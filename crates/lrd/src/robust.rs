//! The robust ensemble Hurst estimator: a fallback chain over the §3.2.3
//! estimator suite.
//!
//! The paper runs *several* H estimators and trusts their agreement, not
//! any single number (Table 3). This module operationalises that:
//! [`robust_hurst`] runs Whittle first (the most efficient estimator when
//! its parametric model holds), and falls back through local Whittle →
//! wavelet (Abry–Veitch, weighted) → R/S → variance-time when an
//! estimator rejects the series or fails to converge. The result records which estimator produced the headline
//! value, every estimate that succeeded, a cross-estimator agreement
//! diagnostic (the maximum pairwise spread), and the typed error of every
//! estimator that failed — graceful degradation instead of a panic.

use crate::error::LrdError;
use crate::local_whittle::try_local_whittle;
use crate::rs::{try_rs_analysis, RsOptions};
use crate::variance_time::{try_variance_time, VtOptions};
use crate::wavelet::{try_wavelet_hurst, WaveletOptions};
use crate::whittle::{try_whittle_with, SpectralModel};
use vbr_stats::error::{check_all_finite, check_min_len, check_non_constant};
use vbr_stats::obs::{self, Counter};

/// Which estimator produced a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Whittle MLE (fARIMA spectrum).
    Whittle,
    /// Local Whittle (Gaussian semiparametric).
    LocalWhittle,
    /// Abry–Veitch wavelet logscale-diagram slope (weighted WLS fit).
    Wavelet,
    /// R/S pox-diagram slope.
    RsAnalysis,
    /// Variance-time plot slope.
    VarianceTime,
}

impl std::fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            EstimatorKind::Whittle => "Whittle",
            EstimatorKind::LocalWhittle => "local Whittle",
            EstimatorKind::Wavelet => "wavelet",
            EstimatorKind::RsAnalysis => "R/S",
            EstimatorKind::VarianceTime => "variance-time",
        };
        f.write_str(name)
    }
}

/// How one ensemble member fared — the full diagnostic record, kept
/// even when the member's value is rejected or the chain answers early.
#[derive(Debug, Clone)]
pub struct EstimatorAttempt {
    /// Which estimator ran.
    pub kind: EstimatorKind,
    /// The raw Hurst value it produced, if it produced one at all —
    /// present even when the value was rejected as unphysical, so
    /// disagreement diagnostics can show *what* the outlier said.
    pub hurst: Option<f64>,
    /// The typed error: `None` for an accepted estimate, `Some` when the
    /// estimator failed or its value was rejected.
    pub error: Option<LrdError>,
}

impl EstimatorAttempt {
    /// True when this member's estimate entered the ensemble.
    pub fn accepted(&self) -> bool {
        self.hurst.is_some() && self.error.is_none()
    }

    /// One-line status string for reports: `ok`, `rejected` (a value was
    /// produced but not trusted), or the error itself.
    pub fn status(&self) -> String {
        match (&self.hurst, &self.error) {
            (_, None) => "ok".to_string(),
            (Some(h), Some(e)) => format!("rejected (H = {h:.4}): {e}"),
            (None, Some(e)) => e.to_string(),
        }
    }
}

/// The outcome of the ensemble estimation.
#[derive(Debug, Clone)]
pub struct RobustHurst {
    /// The headline Hurst estimate (from the first estimator in the chain
    /// that succeeded), clamped to the model-valid open interval (0, 1).
    pub hurst: f64,
    /// Which estimator supplied [`hurst`](Self::hurst).
    pub by: EstimatorKind,
    /// Every estimator that succeeded, in chain order, with its estimate.
    pub estimates: Vec<(EstimatorKind, f64)>,
    /// Maximum pairwise spread `max|Ĥᵢ − Ĥⱼ|` across the successful
    /// estimators; `None` when fewer than two succeeded. The paper treats
    /// a small spread (≈ 0.02 in Table 3) as evidence the estimate is
    /// real and not an estimator artefact.
    pub agreement: Option<f64>,
    /// Every estimator that failed, with its typed error.
    pub failures: Vec<(EstimatorKind, LrdError)>,
    /// The complete per-estimator record, one entry per chain member in
    /// chain order, regardless of how the run ended. Unlike
    /// [`estimates`](Self::estimates)/[`failures`](Self::failures) this
    /// never loses *which* estimators disagreed or what a rejected
    /// member actually said.
    pub attempts: Vec<EstimatorAttempt>,
}

impl RobustHurst {
    /// True when at least two estimators succeeded and their spread is
    /// below `tol` — the ensemble's cross-check passed.
    pub fn agrees_within(&self, tol: f64) -> bool {
        self.agreement.is_some_and(|s| s <= tol)
    }
}

/// Options for the ensemble run.
#[derive(Debug, Clone, Copy)]
pub struct RobustOptions {
    /// Spectral model for the full Whittle stage.
    pub spectral_model: SpectralModel,
    /// Local Whittle bandwidth (`None` = the `n^0.65` default).
    pub bandwidth: Option<usize>,
}

impl Default for RobustOptions {
    fn default() -> Self {
        RobustOptions { spectral_model: SpectralModel::Farima, bandwidth: None }
    }
}

/// R/S options scaled to the series length, so the fallback stays usable
/// on series far shorter than the defaults assume (the defaults want
/// ≥ 3 fit lags above 100, i.e. thousands of points).
fn adaptive_rs_options(n: usize) -> RsOptions {
    RsOptions {
        min_lag: 8.min(n / 4).max(2),
        fit_min_lag: (n / 20).clamp(16, 100),
        ..RsOptions::default()
    }
}

/// Variance-time options scaled the same way.
fn adaptive_vt_options(n: usize) -> VtOptions {
    VtOptions { fit_min_m: if n >= 10_000 { 10 } else { 3 }, ..VtOptions::default() }
}

/// Runs the fallback chain Whittle → local Whittle → wavelet → R/S →
/// variance-time.
///
/// All five estimators are attempted (their estimates feed the agreement
/// diagnostic); the headline value comes from the first success in chain
/// order. `Err` is returned only when *every* estimator fails — the
/// global validation errors (empty/short/non-finite/constant input) are
/// reported directly since no estimator can do better.
pub fn robust_hurst(xs: &[f64]) -> Result<RobustHurst, LrdError> {
    robust_hurst_with(xs, &RobustOptions::default())
}

/// [`robust_hurst`] with explicit options.
pub fn robust_hurst_with(xs: &[f64], opts: &RobustOptions) -> Result<RobustHurst, LrdError> {
    // Global preconditions shared by every estimator: fail fast with the
    // specific cause rather than collecting four copies of it.
    check_min_len(xs, 32)?;
    check_all_finite(xs)?;
    check_non_constant(xs)?;

    let n = xs.len();
    // The five ensemble members are independent; run them on the worker
    // pool when the series is long enough to amortize the spawn cost
    // (work ≈ n per member). par_map returns results in chain order
    // regardless of which thread finishes first, so the headline choice
    // (first success in chain order) is identical to the serial run.
    const CHAIN: [EstimatorKind; 5] = [
        EstimatorKind::Whittle,
        EstimatorKind::LocalWhittle,
        EstimatorKind::Wavelet,
        EstimatorKind::RsAnalysis,
        EstimatorKind::VarianceTime,
    ];
    let attempts: Vec<(EstimatorKind, Result<f64, LrdError>)> =
        vbr_stats::par::par_map_sized(n.saturating_mul(CHAIN.len()), &CHAIN, |&kind| {
            let outcome = match kind {
                EstimatorKind::Whittle => {
                    try_whittle_with(xs, opts.spectral_model).map(|e| e.hurst)
                }
                EstimatorKind::LocalWhittle => {
                    try_local_whittle(xs, opts.bandwidth).map(|e| e.hurst)
                }
                EstimatorKind::Wavelet => {
                    try_wavelet_hurst(xs, &WaveletOptions::default()).map(|e| e.hurst)
                }
                EstimatorKind::RsAnalysis => {
                    try_rs_analysis(xs, &adaptive_rs_options(n)).map(|e| e.hurst)
                }
                EstimatorKind::VarianceTime => {
                    try_variance_time(xs, &adaptive_vt_options(n)).map(|e| e.hurst)
                }
            };
            (kind, outcome)
        });

    let mut estimates = Vec::new();
    let mut failures = Vec::new();
    let mut attempt_log: Vec<EstimatorAttempt> = Vec::with_capacity(CHAIN.len());
    for (kind, outcome) in attempts {
        match outcome {
            // Slope-based estimators can leave the physical range on
            // adversarial input; treat that as a failure, not an answer.
            Ok(h) if h.is_finite() && h > 0.0 && h < 1.5 => {
                estimates.push((kind, h));
                attempt_log.push(EstimatorAttempt { kind, hurst: Some(h), error: None });
            }
            Ok(h) => {
                let e: LrdError =
                    vbr_stats::error::NumericError::NotConverged { what: "Hurst estimate" }.into();
                failures.push((kind, e));
                // The rejected value itself is kept: "R/S said 2.7" is
                // the diagnostic, not just "R/S failed".
                attempt_log.push(EstimatorAttempt { kind, hurst: Some(h), error: Some(e) });
            }
            Err(e) => {
                failures.push((kind, e));
                attempt_log.push(EstimatorAttempt { kind, hurst: None, error: Some(e) });
            }
        }
    }

    let &(by, headline) = estimates.first().ok_or_else(|| {
        // Every estimator failed; surface the first (most-trusted
        // estimator's) error as the cause.
        failures
            .first()
            .map(|&(_, e)| e)
            .unwrap_or(LrdError::Data(vbr_stats::error::DataError::Empty))
    })?;

    let agreement = if estimates.len() >= 2 {
        let mut spread = 0.0f64;
        for i in 0..estimates.len() {
            for j in i + 1..estimates.len() {
                spread = spread.max((estimates[i].1 - estimates[j].1).abs());
            }
        }
        Some(spread)
    } else {
        None
    };

    obs::counter_add(Counter::RobustHurstRuns, 1);
    if by != EstimatorKind::Whittle {
        obs::counter_add(Counter::EstimatorFallback, 1);
    }
    obs::event_with("lrd.robust_hurst.answered", || {
        format!(
            "by={by}, H={headline:.4}, spread={}, attempts=[{}]",
            agreement.map_or("n/a".to_string(), |s| format!("{s:.4}")),
            attempt_log
                .iter()
                .map(|a| format!("{}: {}", a.kind, a.status()))
                .collect::<Vec<_>>()
                .join("; ")
        )
    });

    Ok(RobustHurst {
        hurst: headline.clamp(1e-3, 1.0 - 1e-3),
        by,
        estimates,
        agreement,
        failures,
        attempts: attempt_log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_fgn::DaviesHarte;
    use vbr_stats::error::DataError;
    use vbr_stats::Xoshiro256;

    #[test]
    fn long_fgn_uses_whittle_and_agrees() {
        let h = 0.8;
        let xs = DaviesHarte::new(h, 1.0).generate(65_536, 1);
        let r = robust_hurst(&xs).unwrap();
        assert_eq!(r.by, EstimatorKind::Whittle);
        assert!((r.hurst - h).abs() < 0.12, "H {}", r.hurst);
        // All five estimators should have answered on a clean long series.
        assert_eq!(r.estimates.len(), 5, "failures: {:?}", r.failures);
        assert!(r.agrees_within(0.15), "spread {:?}", r.agreement);
    }

    #[test]
    fn short_series_falls_back_past_both_whittles() {
        // 120 points: below the Whittle (128), local Whittle (256) and
        // wavelet (256 for the default octave range) minimums, but enough
        // for the adaptive R/S grid — the chain must degrade gracefully
        // and say so.
        let mut rng = Xoshiro256::seed_from_u64(7);
        let xs: Vec<f64> = (0..120).map(|_| rng.standard_normal()).collect();
        let r = robust_hurst(&xs).unwrap();
        assert_eq!(r.by, EstimatorKind::RsAnalysis, "estimates {:?}", r.estimates);
        assert!(r.hurst.is_finite() && r.hurst > 0.0 && r.hurst < 1.0);
        let failed: Vec<EstimatorKind> = r.failures.iter().map(|&(k, _)| k).collect();
        assert!(failed.contains(&EstimatorKind::Whittle));
        assert!(failed.contains(&EstimatorKind::LocalWhittle));
        assert!(failed.contains(&EstimatorKind::Wavelet));
        for (_, e) in &r.failures {
            assert!(
                matches!(e, LrdError::Data(DataError::TooShort { .. })),
                "unexpected failure {e}"
            );
        }
    }

    #[test]
    fn rejects_hopeless_input_with_typed_errors() {
        assert!(matches!(robust_hurst(&[]), Err(LrdError::Data(DataError::Empty))));
        assert!(matches!(robust_hurst(&[1.0; 8]), Err(LrdError::Data(DataError::TooShort { .. }))));
        assert!(matches!(
            robust_hurst(&[3.25; 5_000]),
            Err(LrdError::Data(DataError::ZeroVariance))
        ));
        let mut spiked: Vec<f64> = (0..5_000).map(|i| (i % 17) as f64).collect();
        spiked[123] = f64::NAN;
        assert!(matches!(
            robust_hurst(&spiked),
            Err(LrdError::Data(DataError::NonFiniteSample { index: 123, .. }))
        ));
    }

    #[test]
    fn agreement_flags_disagreeing_estimators() {
        // A strong linear trend poisons the slope estimators much more
        // than Whittle: either some estimator fails, or the spread is
        // large — in both cases the diagnostic must not report agreement
        // at a tight tolerance with full participation.
        let mut rng = Xoshiro256::seed_from_u64(3);
        let xs: Vec<f64> = (0..16_384).map(|i| i as f64 * 0.01 + rng.standard_normal()).collect();
        let r = robust_hurst(&xs).unwrap();
        assert!(
            r.estimates.len() < 4 || !r.agrees_within(0.02),
            "trend went unnoticed: {:?}",
            r.estimates
        );
    }

    #[test]
    fn attempts_record_every_chain_member() {
        // Healthy long series: all five accepted, attempts mirror
        // estimates exactly.
        let xs = DaviesHarte::new(0.8, 1.0).generate(65_536, 21);
        let r = robust_hurst(&xs).unwrap();
        let kinds: Vec<EstimatorKind> = r.attempts.iter().map(|a| a.kind).collect();
        assert_eq!(
            kinds,
            [
                EstimatorKind::Whittle,
                EstimatorKind::LocalWhittle,
                EstimatorKind::Wavelet,
                EstimatorKind::RsAnalysis,
                EstimatorKind::VarianceTime
            ]
        );
        for a in &r.attempts {
            assert!(a.accepted(), "{}: {}", a.kind, a.status());
            assert_eq!(a.status(), "ok");
        }

        // Short series: the chain answers at R/S, but the attempt log
        // still records what happened to *every* member — including the
        // three that failed before the answering one.
        let mut rng = Xoshiro256::seed_from_u64(7);
        let short: Vec<f64> = (0..120).map(|_| rng.standard_normal()).collect();
        let r = robust_hurst(&short).unwrap();
        assert_eq!(r.attempts.len(), 5, "no member may be dropped");
        let whittle = &r.attempts[0];
        assert!(!whittle.accepted());
        assert!(whittle.hurst.is_none());
        assert!(matches!(whittle.error, Some(LrdError::Data(DataError::TooShort { .. }))));
        // Accepted members of the attempt log and `estimates` agree bit
        // for bit.
        let accepted: Vec<(EstimatorKind, f64)> = r
            .attempts
            .iter()
            .filter(|a| a.accepted())
            .map(|a| (a.kind, a.hurst.unwrap()))
            .collect();
        assert_eq!(accepted, r.estimates);
    }

    #[test]
    fn white_noise_lands_near_half_whatever_answers() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let xs: Vec<f64> = (0..32_768).map(|_| rng.standard_normal()).collect();
        let r = robust_hurst(&xs).unwrap();
        assert!((r.hurst - 0.5).abs() < 0.1, "H {} by {}", r.hurst, r.by);
    }
}
