//! The variance-time plot (paper §3.2.3, Fig 11).
//!
//! For LRD, `Var(X^(m)) ≈ m^{−β} σ²` with `0 < β < 1`; for SRD `β = 1`.
//! The log-log slope of the normalised aggregated variance against `m`
//! gives `β`, and `H = 1 − β/2`.

use crate::aggregate::{aggregate, log_spaced_blocks};
use crate::error::LrdError;
use vbr_stats::error::{check_all_finite, check_min_len, check_non_constant};
use vbr_stats::regression::{fit_line, LineFit};

/// The computed variance-time curve and its fitted slope.
#[derive(Debug, Clone)]
pub struct VarianceTime {
    /// Block sizes `m`.
    pub block_sizes: Vec<usize>,
    /// Normalised aggregated variances `Var(X^(m)) / σ²`.
    pub normalized_variance: Vec<f64>,
    /// Log-log line fit over the configured range.
    pub fit: LineFit,
    /// `β = −slope`.
    pub beta: f64,
    /// Hurst estimate `H = 1 − β/2`.
    pub hurst: f64,
}

/// Options for the variance-time analysis.
#[derive(Debug, Clone, Copy)]
pub struct VtOptions {
    /// Largest block size (default: n/10 so each aggregated series still
    /// has ≥ 10 blocks).
    pub max_m: Option<usize>,
    /// Points per decade on the m grid.
    pub points_per_decade: usize,
    /// Smallest m included in the slope fit (the paper fits the limiting
    /// slope as m → ∞; small m carries the SRD structure).
    pub fit_min_m: usize,
}

impl Default for VtOptions {
    fn default() -> Self {
        VtOptions { max_m: None, points_per_decade: 8, fit_min_m: 10 }
    }
}

/// Runs the variance-time analysis.
pub fn variance_time(xs: &[f64], opts: &VtOptions) -> VarianceTime {
    let n = xs.len();
    assert!(n >= 100, "variance-time plot needs a reasonably long series, got {n}");
    try_variance_time(xs, opts).unwrap_or_else(|e| panic!("variance_time: {e}"))
}

/// Fallible [`variance_time`]: rejects short, non-finite or constant
/// input and degenerate block grids instead of panicking.
pub fn try_variance_time(xs: &[f64], opts: &VtOptions) -> Result<VarianceTime, LrdError> {
    let n = xs.len();
    check_min_len(xs, 100)?;
    check_all_finite(xs)?;
    check_non_constant(xs)?;
    let max_m = opts.max_m.unwrap_or(n / 10).min(n / 10).max(2);
    let grid = log_spaced_blocks(max_m, opts.points_per_decade);

    let total_var = {
        let mean = xs.iter().sum::<f64>() / n as f64;
        xs.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / n as f64
    };
    // Catches numerically-constant series the exact-equality check missed.
    if total_var <= 0.0 {
        return Err(vbr_stats::error::DataError::ZeroVariance.into());
    }

    // Pre-filter the ascending grid to block sizes that keep ≥ 5 blocks
    // (aggregate drops the trailing partial block, so its length is
    // exactly n/m) — the same cut-off the serial early-break made — then
    // compute the per-m aggregations on the worker pool. par_map keeps
    // grid order, so the curve matches the serial one bit for bit.
    let block_sizes: Vec<usize> = grid.into_iter().filter(|&m| n / m >= 5).collect();
    let norm_var: Vec<f64> = vbr_stats::par::par_map(&block_sizes, |&m| {
        let agg = aggregate(xs, m);
        let mean = agg.iter().sum::<f64>() / agg.len() as f64;
        let v = agg.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / agg.len() as f64;
        v / total_var
    });

    // Fit ln(normalised variance) against ln m over m ≥ fit_min_m.
    let pairs: (Vec<f64>, Vec<f64>) = block_sizes
        .iter()
        .zip(&norm_var)
        .filter(|(&m, &v)| m >= opts.fit_min_m && v > 0.0)
        .map(|(&m, &v)| ((m as f64).ln(), v.ln()))
        .unzip();
    if pairs.0.len() < 3 {
        return Err(LrdError::GridTooSmall { got: pairs.0.len(), needed: 3 });
    }
    let fit = fit_line(&pairs.0, &pairs.1);
    let beta = -fit.slope;
    Ok(VarianceTime {
        block_sizes,
        normalized_variance: norm_var,
        fit,
        beta,
        hurst: 1.0 - beta / 2.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_fgn::DaviesHarte;
    use vbr_stats::rng::Xoshiro256;

    #[test]
    fn white_noise_gives_beta_one_h_half() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let xs: Vec<f64> = (0..100_000).map(|_| rng.standard_normal()).collect();
        let vt = variance_time(&xs, &VtOptions::default());
        assert!((vt.beta - 1.0).abs() < 0.1, "beta {}", vt.beta);
        assert!((vt.hurst - 0.5).abs() < 0.05, "H {}", vt.hurst);
    }

    #[test]
    fn fgn_recovers_hurst() {
        for &h in &[0.7, 0.8, 0.9] {
            let xs = DaviesHarte::new(h, 1.0).generate(200_000, 42);
            let vt = variance_time(&xs, &VtOptions::default());
            assert!((vt.hurst - h).abs() < 0.05, "H = {h}: estimated {}", vt.hurst);
        }
    }

    #[test]
    fn curve_is_decreasing_and_normalised() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.standard_normal() * 3.0 + 7.0).collect();
        let vt = variance_time(&xs, &VtOptions::default());
        assert!((vt.normalized_variance[0] - 1.0).abs() < 1e-9); // m = 1
        for w in vt.normalized_variance.windows(2) {
            // Monotone up to sampling noise.
            assert!(w[1] < w[0] * 1.5);
        }
    }

    #[test]
    fn ar1_eventually_reaches_srd_slope() {
        // AR(1) has short memory: for large m, slope → −1.
        let mut rng = Xoshiro256::seed_from_u64(3);
        let n = 200_000;
        let mut xs = Vec::with_capacity(n);
        let mut x = 0.0;
        for _ in 0..n {
            x = 0.7 * x + rng.standard_normal();
            xs.push(x);
        }
        let vt = variance_time(&xs, &VtOptions { fit_min_m: 100, ..VtOptions::default() });
        assert!((vt.beta - 1.0).abs() < 0.15, "beta {}", vt.beta);
    }

    #[test]
    #[should_panic(expected = "reasonably long")]
    fn short_series_rejected() {
        variance_time(&[1.0; 50], &VtOptions::default());
    }
}
