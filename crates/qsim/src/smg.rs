//! Statistical multiplexing gain (Fig 15): required capacity per source
//! against the number of multiplexed sources at a fixed buffer delay.

use crate::qc::{LossMetric, LossTarget, MuxSim};
use vbr_video::Trace;

/// One row of the Fig 15 data: how much capacity each source needs when
/// `n` of them share the link.
#[derive(Debug, Clone, Copy)]
pub struct SmgPoint {
    /// Number of multiplexed sources.
    pub n_sources: usize,
    /// Required capacity per source, bytes/second.
    pub capacity_per_source: f64,
    /// Fraction of the peak→mean gain realised, in `[0, 1]`:
    /// `(peak − c) / (peak − mean)` (the paper reports 72 % at N = 5).
    pub gain_realized: f64,
}

/// Sweeps the number of sources at fixed `T_max` and loss target.
///
/// `peak_rate`/`mean_rate` are the single-source frame-level peak and mean
/// rates in bytes/second, used to normalise the realised gain.
pub fn smg_curve(
    trace: &Trace,
    ns: &[usize],
    t_max_secs: f64,
    target: LossTarget,
    metric: LossMetric,
    iterations: usize,
    seed: u64,
) -> Vec<SmgPoint> {
    let series = trace.frame_series();
    let fps = trace.fps();
    let mean_rate = series.iter().sum::<f64>() / series.len() as f64 * fps;
    let peak_rate = series.iter().cloned().fold(0.0f64, f64::max) * fps;
    ns.iter()
        .map(|&n| {
            let sim = MuxSim::new(trace, n, seed.wrapping_add(n as u64));
            let c = sim.required_capacity(t_max_secs, target, metric, iterations) / n as f64;
            SmgPoint {
                n_sources: n,
                capacity_per_source: c,
                gain_realized: ((peak_rate - c) / (peak_rate - mean_rate)).clamp(0.0, 1.0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_video::{generate_screenplay, ScreenplayConfig};

    #[test]
    fn multiplexing_reduces_per_source_capacity() {
        let t = generate_screenplay(&ScreenplayConfig::short(4_000, 21));
        let pts =
            smg_curve(&t, &[1, 4, 12], 0.002, LossTarget::Rate(1e-3), LossMetric::Overall, 20, 1);
        assert_eq!(pts.len(), 3);
        assert!(
            pts[1].capacity_per_source < pts[0].capacity_per_source,
            "N=4 {} vs N=1 {}",
            pts[1].capacity_per_source,
            pts[0].capacity_per_source
        );
        assert!(pts[2].capacity_per_source <= pts[1].capacity_per_source * 1.02);
        // Gain grows with N.
        assert!(pts[2].gain_realized > pts[0].gain_realized);
    }

    #[test]
    fn single_source_needs_near_peak_for_tiny_loss() {
        // "The capacity is very close to the peak rate for one source."
        let t = generate_screenplay(&ScreenplayConfig::short(4_000, 22));
        let pts = smg_curve(&t, &[1], 0.002, LossTarget::Zero, LossMetric::Overall, 22, 2);
        // Gain realised at N = 1 should be small (< 35 %).
        assert!(pts[0].gain_realized < 0.35, "N=1 realised gain {}", pts[0].gain_realized);
    }

    #[test]
    fn many_sources_approach_mean_rate() {
        let t = generate_screenplay(&ScreenplayConfig::short(4_000, 23));
        let pts = smg_curve(&t, &[16], 0.002, LossTarget::Rate(1e-3), LossMetric::Overall, 20, 3);
        // "drops to very close to the mean rate for 20 sources".
        assert!(pts[0].gain_realized > 0.6, "N=16 realised gain {}", pts[0].gain_realized);
    }
}
