//! Analytic queueing references used to validate the simulator:
//! the M/D/1 waiting-time formula and Norros' fractional-Brownian-motion
//! link-dimensioning formula (the closed-form counterpart of the paper's
//! trace-driven capacity searches, published the same year).

/// Mean M/D/1 waiting time (in service-time units):
/// `W/τ = ρ / (2(1 − ρ))` for utilisation `ρ < 1`.
pub fn md1_mean_wait_in_service_units(rho: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho), "M/D/1 requires rho in [0,1), got {rho}");
    rho / (2.0 * (1.0 - rho))
}

/// Mean M/D/1 queue length (cells in queue, excluding the one in
/// service): `L_q = ρ²/(2(1−ρ))`.
pub fn md1_mean_queue(rho: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho));
    rho * rho / (2.0 * (1.0 - rho))
}

/// Norros' dimensioning formula for a fluid queue fed by fractional
/// Brownian traffic (Norros 1994/1995): the capacity needed so that
/// `P[Q > buffer] ≈ loss_target` is
///
/// `C = m + (κ(H) √(−2 ln ε))^{1/H} · a^{1/(2H)} · m^{1/(2H)} · b^{−(1−H)/H}`
///
/// with `κ(H) = H^H (1−H)^{1−H}`, mean rate `m`, variance coefficient
/// `a = Var[A(0,t)]/(m t^{2H})` (bytes·s, peakedness), buffer `b` and
/// overflow target `ε`.
pub fn norros_capacity(
    mean_rate: f64,
    variance_coef: f64,
    hurst: f64,
    buffer: f64,
    loss_target: f64,
) -> f64 {
    assert!(mean_rate > 0.0 && variance_coef > 0.0 && buffer > 0.0);
    assert!((0.5..1.0).contains(&hurst), "Norros formula needs H in [0.5,1)");
    assert!(loss_target > 0.0 && loss_target < 1.0);
    let h = hurst;
    let kappa = h.powf(h) * (1.0 - h).powf(1.0 - h);
    let z = (-2.0 * loss_target.ln()).sqrt();
    mean_rate
        + (kappa * z).powf(1.0 / h)
            * variance_coef.powf(1.0 / (2.0 * h))
            * mean_rate.powf(1.0 / (2.0 * h))
            * buffer.powf(-(1.0 - h) / h)
}

/// Estimates the fBm variance coefficient `a` of a frame-level series:
/// `a = Var(X) · Δt^{2−2H} / mean-rate` where `X` is bytes per interval
/// of length `Δt` (so that `Var[A(0,Δt)] = a·m·Δt^{2H}` holds at the
/// measurement scale).
pub fn fbm_variance_coef(
    mean_per_interval: f64,
    var_per_interval: f64,
    dt: f64,
    hurst: f64,
) -> f64 {
    assert!(mean_per_interval > 0.0 && dt > 0.0);
    let mean_rate = mean_per_interval / dt;
    var_per_interval / (mean_rate * dt.powf(2.0 * hurst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellQueue;
    use crate::{LossMetric, LossTarget, MuxSim};
    use vbr_model::{ModelParams, SourceModel};
    use vbr_stats::rng::Xoshiro256;

    #[test]
    fn md1_formula_values() {
        assert_eq!(md1_mean_wait_in_service_units(0.0), 0.0);
        assert!((md1_mean_wait_in_service_units(0.5) - 0.5).abs() < 1e-12);
        assert!((md1_mean_wait_in_service_units(0.9) - 4.5).abs() < 1e-12);
        assert!((md1_mean_queue(0.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cell_queue_matches_md1_mean_occupancy() {
        // Poisson arrivals, deterministic service, huge buffer.
        let rho = 0.7;
        let service = 1.0; // seconds per cell → rate 1 cell/s
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut q = CellQueue::new(1_000_000, 1.0 / service);
        let mut t = 0.0;
        let n = 400_000;
        let mut occ_sum = 0.0;
        for _ in 0..n {
            t += -rng.open01().ln() * service / rho; // exp interarrivals
            q.offer(t);
            occ_sum += q.occupancy();
        }
        // Occupancy drains continuously, so the in-service cell counts on
        // average as ρ/2 of a cell: arrivals see Lq + ρ/2 (PASTA).
        let measured = occ_sum / n as f64 - 1.0; // subtract the just-added cell
        let want = md1_mean_queue(rho) + rho / 2.0;
        assert!((measured - want).abs() < 0.1 * want, "measured {measured} vs M/D/1 {want}");
    }

    #[test]
    fn norros_capacity_monotonicities() {
        let c = |h: f64, b: f64, eps: f64| norros_capacity(1e6, 100.0, h, b, eps);
        // More buffer → less capacity.
        assert!(c(0.8, 1e4, 1e-6) > c(0.8, 1e5, 1e-6));
        // Stricter loss → more capacity.
        assert!(c(0.8, 1e4, 1e-9) > c(0.8, 1e4, 1e-3));
        // At large buffers, higher H demands more capacity (the buffer
        // stops helping); at small buffers the marginal dominates instead.
        assert!(c(0.9, 1e6, 1e-6) > c(0.6, 1e6, 1e-6));
        // Always above the mean rate.
        assert!(c(0.55, 1e6, 1e-2) > 1e6);
    }

    #[test]
    fn norros_buffer_sensitivity_depends_on_h() {
        // For SRD-ish H the capacity falls fast with buffer; for H → 1 the
        // buffer barely helps — the paper's core warning, in closed form.
        let gain = |h: f64| {
            norros_capacity(1e6, 100.0, h, 1e3, 1e-6) / norros_capacity(1e6, 100.0, h, 1e6, 1e-6)
        };
        assert!(
            gain(0.55) > gain(0.9),
            "buffer gain: H=0.55 {} vs H=0.9 {}",
            gain(0.55),
            gain(0.9)
        );
    }

    #[test]
    fn simulator_tracks_norros_for_gaussian_lrd_traffic() {
        // Gaussian-marginal LRD traffic is (approximately) the fBm input
        // Norros assumes; the simulated required capacity should land in
        // the same ballpark and share the ordering in buffer size.
        let p = ModelParams::new(27_791.0, 6_254.0, 9.0, 0.8);
        let trace = SourceModel::gaussian_marginal(p).generate_trace(40_000, 24.0, 30, 9);
        let sim = MuxSim::new(&trace, 1, 1);
        let dt = 1.0 / 24.0;
        let a = fbm_variance_coef(p.mu_gamma, p.sigma_gamma * p.sigma_gamma, dt, p.hurst);
        let m = p.mu_gamma / dt;
        let eps = 1e-3;
        for &t_max in &[0.01, 0.1] {
            let c_sim =
                sim.required_capacity(t_max, LossTarget::Rate(eps), LossMetric::Overall, 20);
            let b = t_max * c_sim;
            let c_norros = norros_capacity(m, a, p.hurst, b, eps);
            let ratio = c_sim / c_norros;
            assert!(
                (0.5..2.0).contains(&ratio),
                "t_max {t_max}: sim {c_sim} vs Norros {c_norros} (ratio {ratio})"
            );
        }
    }
}
