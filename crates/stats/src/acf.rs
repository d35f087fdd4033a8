//! Sample autocorrelation (Fig 7) and autocovariance, computed in
//! `O(n log n)` via FFT for the 171 000-point trace.

use vbr_fft::autocorr_sums;

/// Sample autocovariance `ĉ(k) = (1/n) Σ (x_i − x̄)(x_{i+k} − x̄)` for
/// `k = 0..=max_lag` (the standard biased estimator, which guarantees a
/// positive-semidefinite sequence).
pub fn autocovariance(xs: &[f64], max_lag: usize) -> Vec<f64> {
    let n = xs.len();
    assert!(n > 0, "autocovariance of empty series");
    let mean = xs.iter().sum::<f64>() / n as f64;
    let centred: Vec<f64> = xs.iter().map(|&x| x - mean).collect();
    let sums = autocorr_sums(&centred, max_lag);
    sums.into_iter().map(|s| s / n as f64).collect()
}

/// Sample autocorrelation `r(k) = ĉ(k)/ĉ(0)` for `k = 0..=max_lag`.
///
/// `r(0) = 1` by construction; all values lie in `[-1, 1]`.
pub fn autocorrelation(xs: &[f64], max_lag: usize) -> Vec<f64> {
    let acvf = autocovariance(xs, max_lag);
    let c0 = acvf[0];
    assert!(c0 > 0.0, "autocorrelation of a constant series");
    acvf.into_iter().map(|c| c / c0).collect()
}

/// Direct `O(n·k)` autocorrelation — reference implementation used in
/// tests and for short series.
pub fn autocorrelation_direct(xs: &[f64], max_lag: usize) -> Vec<f64> {
    let n = xs.len();
    assert!(n > 0);
    let max_lag = max_lag.min(n - 1);
    let mean = xs.iter().sum::<f64>() / n as f64;
    let c0: f64 = xs.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    assert!(c0 > 0.0, "autocorrelation of a constant series");
    (0..=max_lag)
        .map(|k| {
            let s: f64 = (0..n - k).map(|i| (xs[i] - mean) * (xs[i + k] - mean)).sum();
            s / (n as f64 * c0)
        })
        .collect()
}

/// Fits `r(k) ≈ ρ^k` over lags `1..=fit_lags` and returns `ρ`
/// (geometric-decay fit via log-linear regression on positive values).
///
/// The paper observes such an exponential fit holds only up to ~100–300
/// lags for the video trace — the departure beyond that is the LRD
/// signature.
pub fn exponential_fit(acf: &[f64], fit_lags: usize) -> f64 {
    let lags: Vec<f64> = (1..=fit_lags.min(acf.len() - 1)).map(|k| k as f64).collect();
    let vals: Vec<f64> = (1..=fit_lags.min(acf.len() - 1)).map(|k| acf[k]).collect();
    let pairs: (Vec<f64>, Vec<f64>) =
        lags.iter().zip(&vals).filter(|(_, &v)| v > 0.0).map(|(&l, &v)| (l, v.ln())).unzip();
    assert!(pairs.0.len() >= 2, "not enough positive ACF values to fit");
    crate::regression::fit_line(&pairs.0, &pairs.1).slope.exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn fft_matches_direct() {
        let xs: Vec<f64> = (0..300).map(|i| ((i * i) % 97) as f64).collect();
        let a = autocorrelation(&xs, 50);
        let b = autocorrelation_direct(&xs, 50);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn lag_zero_is_one_and_bounded() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let xs: Vec<f64> = (0..5000).map(|_| rng.standard_normal()).collect();
        let r = autocorrelation(&xs, 100);
        assert!((r[0] - 1.0).abs() < 1e-12);
        for &v in &r {
            assert!((-1.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn white_noise_has_negligible_correlation() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let r = autocorrelation(&xs, 20);
        // 3σ band for white noise is ±3/√n ≈ 0.0134.
        for &v in &r[1..] {
            assert!(v.abs() < 3.5 / (n as f64).sqrt(), "r = {v}");
        }
    }

    #[test]
    fn ar1_recovers_rho() {
        let rho = 0.8;
        let mut rng = Xoshiro256::seed_from_u64(3);
        let n = 100_000;
        let mut xs = Vec::with_capacity(n);
        let mut x = 0.0;
        for _ in 0..n {
            x = rho * x + rng.standard_normal();
            xs.push(x);
        }
        let r = autocorrelation(&xs, 10);
        assert!((r[1] - rho).abs() < 0.02, "r(1) = {}", r[1]);
        assert!((r[5] - rho.powi(5)).abs() < 0.03, "r(5) = {}", r[5]);
        let fitted = exponential_fit(&r, 10);
        assert!((fitted - rho).abs() < 0.02, "fitted rho = {fitted}");
    }

    #[test]
    fn autocovariance_lag0_is_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let c = autocovariance(&xs, 0);
        assert!((c[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn alternating_series_has_negative_lag1() {
        let xs: Vec<f64> = (0..1000).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let r = autocorrelation(&xs, 3);
        assert!(r[1] < -0.99);
        assert!(r[2] > 0.99);
    }

    #[test]
    #[should_panic(expected = "constant")]
    fn constant_series_rejected() {
        autocorrelation(&[5.0; 10], 3);
    }
}
