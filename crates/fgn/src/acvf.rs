//! Theoretical autocovariance/autocorrelation sequences of the two exact
//! LRD models used in the workspace: fractional ARIMA(0, d, 0) and
//! fractional Gaussian noise.

/// Converts a Hurst parameter to the fractional-differencing parameter
/// `d = H − ½` (paper §4.1).
pub fn hurst_to_d(hurst: f64) -> f64 {
    assert!((0.5..1.0).contains(&hurst), "LRD generation requires H in [0.5, 1), got {hurst}");
    hurst - 0.5
}

/// Autocorrelations `ρ_k` of fractional ARIMA(0, d, 0), paper Eq (6):
/// `ρ_k = Π_{i=1..k} (i − 1 + d)/(i − d)`, computed by the stable
/// recursion `ρ_k = ρ_{k−1} (k − 1 + d)/(k − d)`.
///
/// Returns `ρ_0..=ρ_max_lag` (so `max_lag + 1` values, `ρ_0 = 1`).
pub fn farima_acf(d: f64, max_lag: usize) -> Vec<f64> {
    assert!((-0.5..0.5).contains(&d), "fractional ARIMA requires -1/2 < d < 1/2, got {d}");
    let mut rho = Vec::with_capacity(max_lag + 1);
    rho.push(1.0);
    for k in 1..=max_lag {
        let k = k as f64;
        let prev = *rho.last().unwrap();
        rho.push(prev * (k - 1.0 + d) / (k - d));
    }
    rho
}

/// Autocovariances `γ_k` of unit-variance fractional Gaussian noise
/// (the increment process of fractional Brownian motion):
/// `γ_k = ½(|k+1|^{2H} − 2|k|^{2H} + |k−1|^{2H})`.
pub fn fgn_acvf(hurst: f64, max_lag: usize) -> Vec<f64> {
    assert!((0.0..1.0).contains(&hurst) && hurst > 0.0, "fGn requires H in (0, 1), got {hurst}");
    let h2 = 2.0 * hurst;
    (0..=max_lag)
        .map(|k| {
            let k = k as f64;
            0.5 * ((k + 1.0).powf(h2) - 2.0 * k.powf(h2) + (k - 1.0).abs().powf(h2))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farima_acf_closed_form() {
        // ρ_1 = d/(1−d); ρ_2 = d(1+d)/((1−d)(2−d)) — paper Eq (6).
        let d = 0.3;
        let rho = farima_acf(d, 2);
        assert!((rho[1] - d / (1.0 - d)).abs() < 1e-15);
        assert!((rho[2] - d * (1.0 + d) / ((1.0 - d) * (2.0 - d))).abs() < 1e-15);
    }

    #[test]
    fn farima_acf_hyperbolic_tail() {
        // ρ_k ~ c k^{2d−1}: the log-log slope over large k approaches 2d−1.
        let d = 0.3;
        let rho = farima_acf(d, 20_000);
        let slope = (rho[20_000].ln() - rho[2_000].ln()) / ((20_000f64).ln() - (2_000f64).ln());
        assert!((slope - (2.0 * d - 1.0)).abs() < 0.01, "slope {slope}");
    }

    #[test]
    fn farima_d_zero_is_white_noise() {
        let rho = farima_acf(0.0, 10);
        assert_eq!(rho[0], 1.0);
        for &r in &rho[1..] {
            assert_eq!(r, 0.0);
        }
    }

    #[test]
    fn fgn_acvf_half_is_white_noise() {
        let g = fgn_acvf(0.5, 10);
        assert!((g[0] - 1.0).abs() < 1e-12);
        for &v in &g[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn fgn_acvf_sums_to_aggregate_variance() {
        // Var(Σ_{i=1}^{n} X_i) = n^{2H} for unit fGn:
        // n γ_0 + 2 Σ_{k=1}^{n−1} (n−k) γ_k = n^{2H} (telescoping).
        for &h in &[0.6, 0.75, 0.9] {
            let n = 100usize;
            let g = fgn_acvf(h, n);
            let mut var = n as f64 * g[0];
            for (k, &gk) in g.iter().enumerate().skip(1) {
                var += 2.0 * (n - k) as f64 * gk;
            }
            let want = (n as f64).powf(2.0 * h);
            assert!((var - want).abs() < 1e-6 * want, "H={h}: {var} vs {want}");
        }
    }

    #[test]
    fn fgn_acvf_positive_for_persistent_h() {
        let g = fgn_acvf(0.8, 1000);
        for (k, &v) in g.iter().enumerate() {
            assert!(v > 0.0, "γ_{k} = {v} should be positive for H > 1/2");
        }
    }

    #[test]
    fn fgn_acvf_negative_for_antipersistent_h() {
        let g = fgn_acvf(0.3, 10);
        for &v in &g[1..] {
            assert!(v < 0.0, "antipersistent fGn must have negative correlations");
        }
    }

    #[test]
    fn hurst_to_d_maps_correctly() {
        assert!((hurst_to_d(0.8) - 0.3).abs() < 1e-15);
        assert!((hurst_to_d(0.5) - 0.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "H in [0.5, 1)")]
    fn hurst_out_of_range_rejected() {
        hurst_to_d(1.0);
    }
}
