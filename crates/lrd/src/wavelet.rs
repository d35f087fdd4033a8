//! Wavelet (Abry–Veitch) estimation of H with the Haar wavelet —
//! a sixth estimator for the Table 3 cross-check.
//!
//! The Haar detail coefficients at octave `j` of an LRD process have
//! variance `∝ 2^{j(2H−1)}`; regressing `log₂ Var(d_j)` on `j` over the
//! coarse octaves gives the *logscale diagram* and its slope
//! `2H − 1`. Wavelet estimators are robust to polynomial trends — handy
//! for a movie trace with a story arc.
//!
//! The regression is a *weighted* least-squares fit: octave `j` has only
//! `n_j ≈ n/2^j` coefficients, so under the chi-square model
//! `n_j V̂_j / σ_j² ~ χ²(n_j)` the ordinate variance is
//! `Var[log₂ V̂_j] = ψ₁(n_j/2) / ln²2 ≈ 2/(n_j ln²2)` — the coarsest
//! usable octave is ~8× noisier than one three octaves finer. Weighting
//! by the inverse of that variance (∝ `n_j`) and subtracting the
//! small-sample log bias `g_j = (ψ(n_j/2) − ln(n_j/2)) / ln 2` is the
//! standard Abry–Veitch correction; both are on by default and can be
//! switched off through [`WaveletOptions`] (the unweighted path is kept
//! for the bias-comparison test and for reproducing the old behaviour).

use vbr_stats::error::DataError;
use vbr_stats::regression::{fit_line, fit_line_weighted, LineFit};
use vbr_stats::special::{digamma, trigamma};

use crate::error::LrdError;

/// Variance of the Haar detail coefficients per octave.
#[derive(Debug, Clone)]
pub struct LogscaleDiagram {
    /// Octave numbers `j = 1, 2, …` (scale `2^j` samples).
    pub octaves: Vec<usize>,
    /// `log₂` of the detail variance at each octave.
    pub log2_variance: Vec<f64>,
    /// Number of detail coefficients at each octave.
    pub counts: Vec<usize>,
    /// Mean squared *approximation* coefficient at each octave — the
    /// denominator of the per-octave multiplier moment
    /// `E[m_j²] ≈ E[d_j²] / E[a_j²]` that the multifractal wavelet
    /// model's fit matches.
    pub approx_energy: Vec<f64>,
}

/// Octave-range and correction options for [`wavelet_hurst_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveletOptions {
    /// Finest octave included in the fit. `None` means the documented
    /// default of 3, skipping the SRD-dominated fine scales.
    pub j_min: Option<usize>,
    /// Coarsest octave included. `None` means the coarsest octave with
    /// ≥ 8 coefficients.
    pub j_max: Option<usize>,
    /// Weight each octave by the inverse variance of its `log₂ V̂_j`
    /// ordinate (∝ `n_j`), per Abry–Veitch. Default `true`.
    pub weighted: bool,
    /// Subtract the small-sample bias
    /// `g_j = (ψ(n_j/2) − ln(n_j/2)) / ln 2` from each ordinate.
    /// Default `true`.
    pub bias_correction: bool,
}

impl Default for WaveletOptions {
    fn default() -> Self {
        Self { j_min: None, j_max: None, weighted: true, bias_correction: true }
    }
}

impl WaveletOptions {
    /// The legacy estimator: unweighted, uncorrected. Kept so the
    /// pinned bias test can quantify exactly what the fix buys.
    pub fn unweighted() -> Self {
        Self { weighted: false, bias_correction: false, ..Self::default() }
    }
}

/// Documented default for the finest fitted octave.
pub const DEFAULT_J_MIN: usize = 3;

/// A wavelet H estimate.
#[derive(Debug, Clone)]
pub struct WaveletEstimate {
    /// The logscale diagram.
    pub diagram: LogscaleDiagram,
    /// Least-squares fit over the chosen octave range (weighted and
    /// bias-corrected unless disabled in [`WaveletOptions`]).
    pub fit: LineFit,
    /// Estimated Hurst parameter `H = (slope + 1)/2`.
    pub hurst: f64,
}

/// Computes the Haar logscale diagram of a series.
pub fn logscale_diagram(xs: &[f64]) -> LogscaleDiagram {
    assert!(xs.len() >= 16, "need at least 16 points");
    let mut approx: Vec<f64> = xs.to_vec();
    let mut octaves = Vec::new();
    let mut log2_var = Vec::new();
    let mut counts = Vec::new();
    let mut approx_energy = Vec::new();
    let mut j = 1usize;
    while approx.len() >= 8 {
        let pairs = approx.len() / 2;
        let mut details = Vec::with_capacity(pairs);
        let mut next = Vec::with_capacity(pairs);
        for k in 0..pairs {
            let a = approx[2 * k];
            let b = approx[2 * k + 1];
            // Orthonormal Haar: detail (a−b)/√2, approximation (a+b)/√2.
            details.push((a - b) / std::f64::consts::SQRT_2);
            next.push((a + b) / std::f64::consts::SQRT_2);
        }
        let var = details.iter().map(|d| d * d).sum::<f64>() / pairs as f64;
        if var > 0.0 {
            octaves.push(j);
            log2_var.push(var.log2());
            counts.push(pairs);
            approx_energy.push(next.iter().map(|a| a * a).sum::<f64>() / pairs as f64);
        }
        approx = next;
        j += 1;
    }
    LogscaleDiagram { octaves, log2_variance: log2_var, counts, approx_energy }
}

/// Estimates H from the logscale diagram over octaves `[j_min, j_max]`
/// (defaults: 3 to the coarsest octave with ≥ 8 coefficients, skipping
/// the SRD-dominated fine scales), with the Abry–Veitch WLS weighting
/// and small-sample bias correction on.
///
/// Panics when the octave range holds fewer than three usable octaves;
/// [`try_wavelet_hurst`] is the fallible variant.
pub fn wavelet_hurst(xs: &[f64], j_min: Option<usize>, j_max: Option<usize>) -> WaveletEstimate {
    wavelet_hurst_with(xs, &WaveletOptions { j_min, j_max, ..WaveletOptions::default() })
}

/// [`wavelet_hurst`] with full control over the octave range, weighting
/// and bias correction. Panics on an unusable octave range.
pub fn wavelet_hurst_with(xs: &[f64], opts: &WaveletOptions) -> WaveletEstimate {
    let j_min = opts.j_min.unwrap_or(DEFAULT_J_MIN);
    let j_hi = opts.j_max.unwrap_or(usize::MAX);
    try_wavelet_hurst(xs, opts).unwrap_or_else(|e| match e {
        LrdError::Data(DataError::TooShort { .. }) => {
            panic!("not enough octaves in [{j_min}, {j_hi}] for the wavelet fit")
        }
        e => panic!("wavelet_hurst: {e}"),
    })
}

/// Fallible [`wavelet_hurst_with`]: a series too short to populate three
/// octaves in the requested range surfaces as [`DataError::TooShort`]
/// (the length that *would* reach octave `j_min + 2` with ≥ 8
/// coefficients), so [`crate::robust_hurst`] can fall through to the
/// small-sample estimators instead of panicking.
pub fn try_wavelet_hurst(xs: &[f64], opts: &WaveletOptions) -> Result<WaveletEstimate, LrdError> {
    let j_min = opts.j_min.unwrap_or(DEFAULT_J_MIN);
    let j_hi = opts.j_max.unwrap_or(usize::MAX);
    // Three octaves in [j_min, j_hi] with ≥ 8 detail coefficients each
    // need 8·2^(j_min+2) samples.
    let needed = 8usize.saturating_mul(1usize << (j_min + 2).min(48));
    if xs.len() < 16 || xs.len() < needed {
        return Err(DataError::TooShort { needed, got: xs.len() }.into());
    }
    let diagram = logscale_diagram(xs);
    let mut js = Vec::new();
    let mut ys = Vec::new();
    let mut ws = Vec::new();
    for ((&j, &v), &c) in diagram.octaves.iter().zip(&diagram.log2_variance).zip(&diagram.counts) {
        if j < j_min || j > j_hi || c < 8 {
            continue;
        }
        let half = c as f64 / 2.0;
        // Chi-square small-sample moments of log₂ V̂_j.
        let bias = if opts.bias_correction {
            (digamma(half) - half.ln()) / std::f64::consts::LN_2
        } else {
            0.0
        };
        let weight = if opts.weighted {
            let ln2 = std::f64::consts::LN_2;
            ln2 * ln2 / trigamma(half)
        } else {
            1.0
        };
        js.push(j as f64);
        ys.push(v - bias);
        ws.push(weight);
    }
    if js.len() < 3 {
        return Err(DataError::TooShort { needed, got: xs.len() }.into());
    }
    let fit = if opts.weighted { fit_line_weighted(&js, &ys, &ws) } else { fit_line(&js, &ys) };
    Ok(WaveletEstimate { hurst: (fit.slope + 1.0) / 2.0, fit, diagram })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_fgn::DaviesHarte;
    use vbr_stats::rng::Xoshiro256;

    #[test]
    fn white_noise_gives_h_half() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let xs: Vec<f64> = (0..65_536).map(|_| rng.standard_normal()).collect();
        let est = wavelet_hurst(&xs, Some(1), None);
        assert!((est.hurst - 0.5).abs() < 0.05, "H {}", est.hurst);
    }

    #[test]
    fn fgn_recovers_hurst() {
        for &h in &[0.7, 0.85] {
            let xs = DaviesHarte::new(h, 1.0).generate(131_072, 2);
            let est = wavelet_hurst(&xs, Some(2), None);
            assert!((est.hurst - h).abs() < 0.06, "H = {h}: estimated {}", est.hurst);
        }
    }

    #[test]
    fn default_octave_range_applies() {
        // `None` j_min means octave 3 upward: identical to an explicit 3.
        let xs = DaviesHarte::new(0.8, 1.0).generate(32_768, 11);
        let def = wavelet_hurst(&xs, None, None);
        let explicit = wavelet_hurst(&xs, Some(DEFAULT_J_MIN), None);
        assert_eq!(def.hurst, explicit.hurst);
        assert_eq!(def.fit.n, explicit.fit.n);
    }

    #[test]
    fn immune_to_linear_trends() {
        // Add a strong linear trend to white noise: VT/periodogram blow
        // up, but octave-wise Haar *differences* cancel … at fine scales.
        // (The Haar detail of a linear trend grows with scale, so we fit
        // the fine-to-middle octaves here.)
        let mut rng = Xoshiro256::seed_from_u64(3);
        let n = 65_536;
        let xs: Vec<f64> = (0..n).map(|i| rng.standard_normal() + i as f64 * 1e-4).collect();
        let est = wavelet_hurst(&xs, Some(1), Some(8));
        assert!(
            (est.hurst - 0.5).abs() < 0.08,
            "trend leaked into the estimate: H = {}",
            est.hurst
        );
    }

    #[test]
    fn diagram_counts_halve_per_octave() {
        let xs: Vec<f64> = (0..1024).map(|i| (i as f64).sin()).collect();
        let d = logscale_diagram(&xs);
        assert_eq!(d.counts[0], 512);
        assert_eq!(d.counts[1], 256);
        for w in d.counts.windows(2) {
            assert!(w[1] <= w[0] / 2 + 1);
        }
        assert_eq!(d.approx_energy.len(), d.counts.len());
        assert!(d.approx_energy.iter().all(|&e| e.is_finite() && e >= 0.0));
    }

    #[test]
    fn logscale_slope_positive_for_lrd_zero_for_srd() {
        let lrd = DaviesHarte::new(0.85, 1.0).generate(65_536, 4);
        let est_lrd = wavelet_hurst(&lrd, Some(2), None);
        assert!(est_lrd.fit.slope > 0.4, "LRD slope {}", est_lrd.fit.slope);

        let mut rng = Xoshiro256::seed_from_u64(5);
        let srd: Vec<f64> = (0..65_536).map(|_| rng.standard_normal()).collect();
        let est_srd = wavelet_hurst(&srd, Some(2), None);
        assert!(est_srd.fit.slope.abs() < 0.15, "SRD slope {}", est_srd.fit.slope);
    }

    #[test]
    #[should_panic(expected = "not enough octaves")]
    fn too_narrow_octave_range_rejected() {
        let xs: Vec<f64> = (0..64).map(|i| i as f64).collect();
        wavelet_hurst(&xs, Some(10), None);
    }

    #[test]
    fn try_variant_reports_too_short() {
        let xs: Vec<f64> = (0..120).map(|i| (i as f64).sin()).collect();
        match try_wavelet_hurst(&xs, &WaveletOptions::default()) {
            Err(LrdError::Data(DataError::TooShort { needed, got })) => {
                assert_eq!(needed, 256);
                assert_eq!(got, 120);
            }
            other => panic!("expected TooShort, got {other:?}"),
        }
    }

    /// Pinned comparison: on short fGn traces the weighted, bias-corrected
    /// fit must cut the mean absolute H error relative to the legacy
    /// unweighted fit — the coarse octaves' noise no longer dominates.
    #[test]
    fn weighted_fit_shrinks_short_trace_bias() {
        let h = 0.85;
        let n = 8_192; // short: the coarsest fitted octave has ~16 coeffs
        let reps = 24;
        let mut err_unweighted = 0.0;
        let mut err_weighted = 0.0;
        for seed in 0..reps {
            let xs = DaviesHarte::new(h, 1.0).generate(n, 1_000 + seed);
            let legacy = wavelet_hurst_with(&xs, &WaveletOptions::unweighted());
            let fixed = wavelet_hurst_with(&xs, &WaveletOptions::default());
            err_unweighted += (legacy.hurst - h).abs();
            err_weighted += (fixed.hurst - h).abs();
        }
        err_unweighted /= reps as f64;
        err_weighted /= reps as f64;
        assert!(
            err_weighted < err_unweighted,
            "weighted MAE {err_weighted:.4} vs unweighted {err_unweighted:.4}"
        );
    }

    /// On long (64k) fGn the weighted fit must be no worse than the
    /// legacy unweighted one for both paper-relevant H values.
    #[test]
    fn weighted_fit_no_worse_on_long_traces() {
        for &h in &[0.7, 0.85] {
            let mut err_unweighted = 0.0;
            let mut err_weighted = 0.0;
            let reps = 6;
            for seed in 0..reps {
                let xs = DaviesHarte::new(h, 1.0).generate(65_536, 2_000 + seed);
                let legacy = wavelet_hurst_with(&xs, &WaveletOptions::unweighted());
                let fixed = wavelet_hurst_with(&xs, &WaveletOptions::default());
                err_unweighted += (legacy.hurst - h).abs();
                err_weighted += (fixed.hurst - h).abs();
            }
            assert!(
                err_weighted <= err_unweighted * 1.05 + 1e-3,
                "H = {h}: weighted MAE {err_weighted:.4} vs unweighted {err_unweighted:.4}"
            );
        }
    }
}
