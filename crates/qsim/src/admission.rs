//! Connection admission control — the operational question behind Fig 15
//! turned around: given a link of capacity `C` and buffer delay `T_max`,
//! *how many* VBR sources can be admitted at a loss target?
//!
//! Two admission rules are provided: a trace-driven rule (simulate and
//! check, the ground truth) and the Norros effective-bandwidth rule
//! (closed-form, what a switch could evaluate online).

use crate::analytic::norros_capacity;
use crate::qc::{LossMetric, LossTarget, MuxSim};
use vbr_video::Trace;

/// Result of an admission search.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionResult {
    /// Largest admissible number of sources.
    pub max_sources: usize,
    /// Utilisation at that point: `N·mean rate / C`.
    pub utilization: f64,
}

/// Trace-driven admission: the largest `N ≤ n_max` such that `N` offset
/// copies of the trace meet the loss target on a link of
/// `capacity_bps` with buffer `t_max·C`. Monotone in `N`, so a binary
/// search over the source count.
pub fn admit_by_simulation(
    trace: &Trace,
    capacity_bps: f64,
    t_max_secs: f64,
    target: LossTarget,
    metric: LossMetric,
    n_max: usize,
    seed: u64,
) -> AdmissionResult {
    assert!(n_max >= 1);
    let meets = |n: usize| -> bool {
        let sim = MuxSim::new(trace, n, seed.wrapping_add(n as u64));
        if sim.mean_rate() >= capacity_bps {
            return false; // above the mean the backlog diverges
        }
        let loss = sim.run(capacity_bps, t_max_secs * capacity_bps);
        let v = match metric {
            LossMetric::Overall => loss.p_l,
            LossMetric::WorstSecond => loss.p_wes,
        };
        match target {
            LossTarget::Zero => v == 0.0,
            LossTarget::Rate(r) => v <= r,
        }
    };
    let mut lo = 0usize; // always admissible (vacuously)
    let mut hi = n_max + 1; // first non-admissible candidate
    if meets(n_max) {
        lo = n_max;
    } else {
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if meets(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    let mean_per_src = {
        let sim = MuxSim::new(trace, 1, seed);
        sim.mean_rate()
    };
    AdmissionResult { max_sources: lo, utilization: lo as f64 * mean_per_src / capacity_bps }
}

/// Norros effective-bandwidth admission: the largest `N` whose aggregate
/// fBm model (mean `N·m`, same variance coefficient) fits the link.
/// Closed-form per candidate; linear scan is plenty fast.
pub fn admit_by_norros(
    mean_rate_per_source: f64,
    variance_coef: f64,
    hurst: f64,
    capacity_bps: f64,
    buffer_bytes: f64,
    loss_target: f64,
    n_max: usize,
) -> AdmissionResult {
    assert!(n_max >= 1);
    let mut admitted = 0usize;
    for n in 1..=n_max {
        // The aggregate of n i.i.d. fBm sources is fBm with n·m and the
        // same per-source variance coefficient.
        let need = norros_capacity(
            n as f64 * mean_rate_per_source,
            variance_coef,
            hurst,
            buffer_bytes,
            loss_target,
        );
        if need <= capacity_bps {
            admitted = n;
        } else {
            break;
        }
    }
    AdmissionResult {
        max_sources: admitted,
        utilization: admitted as f64 * mean_rate_per_source / capacity_bps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_video::{generate_screenplay, ScreenplayConfig};

    fn test_trace() -> Trace {
        generate_screenplay(&ScreenplayConfig::short(4_000, 61))
    }

    #[test]
    fn more_capacity_admits_more_sources() {
        let t = test_trace();
        let mean = t.mean_bandwidth_bps() / 8.0;
        let small = admit_by_simulation(
            &t,
            mean * 3.0,
            0.002,
            LossTarget::Rate(1e-3),
            LossMetric::Overall,
            32,
            1,
        );
        let big = admit_by_simulation(
            &t,
            mean * 9.0,
            0.002,
            LossTarget::Rate(1e-3),
            LossMetric::Overall,
            32,
            1,
        );
        assert!(big.max_sources > small.max_sources);
        assert!(small.max_sources >= 1, "3x mean must admit at least one source");
        assert!(big.utilization <= 1.0);
    }

    #[test]
    fn admitted_load_meets_target_and_one_more_does_not() {
        let t = test_trace();
        let mean = t.mean_bandwidth_bps() / 8.0;
        let cap = mean * 5.0;
        let r =
            admit_by_simulation(&t, cap, 0.002, LossTarget::Rate(1e-4), LossMetric::Overall, 32, 2);
        let n = r.max_sources;
        assert!(n >= 1);
        let ok = MuxSim::new(&t, n, 2 + n as u64).run(cap, 0.002 * cap);
        assert!(ok.p_l <= 1e-4, "admitted load loses {}", ok.p_l);
        let over = MuxSim::new(&t, n + 1, 2 + (n + 1) as u64).run(cap, 0.002 * cap);
        assert!(over.p_l > 1e-4, "N+1 should violate, lost {}", over.p_l);
    }

    #[test]
    fn utilization_grows_with_scale() {
        // Economy of scale: a 10x-mean link runs at higher utilisation
        // than a 2.5x-mean link.
        let t = test_trace();
        let mean = t.mean_bandwidth_bps() / 8.0;
        let small = admit_by_simulation(
            &t,
            mean * 2.5,
            0.002,
            LossTarget::Rate(1e-3),
            LossMetric::Overall,
            64,
            3,
        );
        let big = admit_by_simulation(
            &t,
            mean * 10.0,
            0.002,
            LossTarget::Rate(1e-3),
            LossMetric::Overall,
            64,
            3,
        );
        assert!(
            big.utilization > small.utilization,
            "large link {:.2} vs small link {:.2}",
            big.utilization,
            small.utilization
        );
    }

    #[test]
    fn norros_rule_tracks_simulation_order_of_magnitude() {
        let t = test_trace();
        let s = t.summary_frame();
        let dt = 1.0 / t.fps();
        let m = s.mean / dt;
        let a = crate::analytic::fbm_variance_coef(s.mean, s.std_dev * s.std_dev, dt, 0.8);
        let cap = m * 8.0;
        let buf = 0.002 * cap;
        let norros = admit_by_norros(m, a, 0.8, cap, buf, 1e-3, 64);
        let sim =
            admit_by_simulation(&t, cap, 0.002, LossTarget::Rate(1e-3), LossMetric::Overall, 64, 4);
        assert!(norros.max_sources >= 1);
        let ratio = norros.max_sources as f64 / sim.max_sources.max(1) as f64;
        assert!(
            (0.3..3.0).contains(&ratio),
            "Norros {} vs simulated {}",
            norros.max_sources,
            sim.max_sources
        );
    }

    #[test]
    fn norros_admission_monotone_in_capacity() {
        let a = admit_by_norros(1e6, 50.0, 0.8, 5e6, 1e4, 1e-6, 100);
        let b = admit_by_norros(1e6, 50.0, 0.8, 2e7, 1e4, 1e-6, 100);
        assert!(b.max_sources > a.max_sources);
    }

    #[test]
    fn zero_admission_when_capacity_below_one_source() {
        let t = test_trace();
        let mean = t.mean_bandwidth_bps() / 8.0;
        let r = admit_by_simulation(
            &t,
            mean * 0.8,
            0.002,
            LossTarget::Rate(1e-3),
            LossMetric::Overall,
            8,
            5,
        );
        assert_eq!(r.max_sources, 0);
    }
}
