//! Parameter estimation from an empirical trace (§4.2): sample moments
//! for the Gamma body, a log-log CCDF regression for the Pareto tail
//! slope, and the §3.2.3 estimator suite for H.

use crate::error::ModelError;
use crate::params::ModelParams;
use vbr_lrd::{
    aggregate, robust_hurst, try_rs_analysis, try_variance_time, try_whittle, EstimatorKind,
    LrdError, RsOptions, VtOptions,
};
use vbr_stats::error::{check_all_finite, check_min_len, check_non_constant, NumericError};
use vbr_stats::histogram::Ecdf;
use vbr_stats::regression::fit_line;
use vbr_video::Trace;

/// Which estimator supplies the headline H.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HurstMethod {
    /// Variance-time plot slope.
    VarianceTime,
    /// R/S pox-diagram slope.
    RsAnalysis,
    /// Whittle MLE on the log-transformed, aggregated series (the paper's
    /// headline number).
    WhittleLog {
        /// Aggregation level (the paper uses m ≈ 700).
        aggregation: usize,
    },
}

/// Options for estimation.
#[derive(Debug, Clone)]
pub struct EstimateOptions {
    /// Fraction of the sample treated as "tail" for the Pareto fit
    /// (the paper's tail holds ≈ 3 % of the data).
    pub tail_fraction: f64,
    /// H estimator.
    pub hurst_method: HurstMethod,
}

impl Default for EstimateOptions {
    fn default() -> Self {
        EstimateOptions {
            tail_fraction: 0.03,
            hurst_method: HurstMethod::WhittleLog { aggregation: 700 },
        }
    }
}

/// An estimated parameter set with fit diagnostics.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// The fitted model parameters.
    pub params: ModelParams,
    /// R² of the Pareto tail regression.
    pub tail_fit_r2: f64,
    /// Number of tail points used in the regression.
    pub tail_points: usize,
    /// `None` when the requested [`HurstMethod`] produced the headline H;
    /// `Some(kind)` when it failed and the [`vbr_lrd::robust_hurst`]
    /// ensemble answered instead, recording which estimator did.
    pub hurst_fallback: Option<EstimatorKind>,
}

/// Estimates the tail slope `m_T` from the log-log CCDF of the sample's
/// upper `tail_fraction`.
pub fn fit_tail_slope(xs: &[f64], tail_fraction: f64) -> (f64, f64, usize) {
    assert!(tail_fraction > 0.0 && tail_fraction < 0.5);
    let ecdf = Ecdf::new(xs);
    let n = ecdf.len();
    let k = ((n as f64 * tail_fraction) as usize).max(20).min(n / 2);
    // CCDF points at the top-k order statistics, skipping the very last
    // few (noisiest) points.
    let skip_top = (k / 50).max(2);
    let mut lx = Vec::with_capacity(k);
    let mut ly = Vec::with_capacity(k);
    for i in (n - k)..(n - skip_top) {
        let x = ecdf.quantile(i as f64 / (n - 1) as f64);
        let cc = (n - i) as f64 / n as f64;
        if x > 0.0 {
            lx.push(x.ln());
            ly.push(cc.ln());
        }
    }
    let fit = fit_line(&lx, &ly);
    (-fit.slope, fit.r_squared, lx.len())
}

/// Estimates all four parameters from a frame-level series.
///
/// Panics on invalid input; [`try_estimate_series`] is the fallible
/// equivalent with an estimator fallback chain.
pub fn estimate_series(series: &[f64], opts: &EstimateOptions) -> Estimate {
    assert!(series.len() >= 1000, "estimation needs a long series");
    try_estimate_series(series, opts).unwrap_or_else(|e| panic!("estimate_series: {e}"))
}

/// Runs the requested estimator fallibly.
fn try_hurst_method(series: &[f64], method: HurstMethod) -> Result<f64, LrdError> {
    match method {
        HurstMethod::VarianceTime => {
            try_variance_time(series, &VtOptions { fit_min_m: 200, ..VtOptions::default() })
                .map(|v| v.hurst)
        }
        HurstMethod::RsAnalysis => try_rs_analysis(series, &RsOptions::default()).map(|r| r.hurst),
        HurstMethod::WhittleLog { aggregation } => {
            let logged: Vec<f64> = series.iter().map(|&x| x.max(1e-9).ln()).collect();
            // Walk the requested level down until the aggregated series is
            // long enough for Whittle (≥ 128 points).
            let m = aggregation.min(logged.len() / 128).max(1);
            try_whittle(&aggregate(&logged, m)).map(|e| e.hurst)
        }
    }
}

/// Fallible [`estimate_series`]: rejects short, non-finite or constant
/// series with typed errors, and when the requested [`HurstMethod`]
/// fails it degrades to the [`vbr_lrd::robust_hurst`] ensemble instead
/// of panicking, recording the answering estimator in
/// [`Estimate::hurst_fallback`].
pub fn try_estimate_series(series: &[f64], opts: &EstimateOptions) -> Result<Estimate, ModelError> {
    check_min_len(series, 1000)?;
    check_all_finite(series)?;
    check_non_constant(series)?;
    if !(opts.tail_fraction > 0.0 && opts.tail_fraction < 0.5) {
        return Err(NumericError::OutOfRange {
            what: "tail_fraction",
            value: opts.tail_fraction,
            lo: 0.0,
            hi: 0.5,
        }
        .into());
    }

    let n = series.len() as f64;
    // μ_Γ, σ_Γ: "it is sufficiently accurate to take the sample mean and
    // standard deviation, because the heavy tail contains only 3% of the
    // data" (§4.2).
    let mean = series.iter().sum::<f64>() / n;
    let sd = (series.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / n).sqrt();

    let (tail_slope, r2, pts) = fit_tail_slope(series, opts.tail_fraction);

    let (hurst, hurst_fallback) = match try_hurst_method(series, opts.hurst_method) {
        Ok(h) => (h, None),
        // Requested estimator failed: let the ensemble try every other
        // angle before giving up.
        Err(_) => {
            let robust = robust_hurst(series)?;
            (robust.hurst, Some(robust.by))
        }
    };
    // Clamp into the model's valid LRD range.
    let hurst = hurst.clamp(0.5001, 0.9999);

    Ok(Estimate {
        params: ModelParams::try_new(mean, sd, tail_slope, hurst)?,
        tail_fit_r2: r2,
        tail_points: pts,
        hurst_fallback,
    })
}

/// Estimates from a [`Trace`] at frame granularity.
pub fn estimate_trace(trace: &Trace, opts: &EstimateOptions) -> Estimate {
    estimate_series(&trace.frame_series(), opts)
}

/// Fallible [`estimate_trace`].
pub fn try_estimate_trace(trace: &Trace, opts: &EstimateOptions) -> Result<Estimate, ModelError> {
    try_estimate_series(&trace.frame_series(), opts)
}

/// Estimates the four parameters from `n` samples drawn out of *any*
/// [`TrafficModel`](vbr_fgn::TrafficModel) — the estimation side of the model-zoo seam: every
/// family is scored by exactly the same estimator stack it would face as
/// a real trace. The model is advanced by `n` samples.
pub fn estimate_model(
    model: &mut dyn vbr_fgn::TrafficModel,
    n: usize,
    opts: &EstimateOptions,
) -> Result<Estimate, ModelError> {
    let series = model.sample_series(n);
    try_estimate_series(&series, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_stats::dist::{GammaPareto, Pareto};
    use vbr_stats::rng::Xoshiro256;

    #[test]
    fn tail_slope_recovered_from_pure_pareto() {
        let d = Pareto::new(10.0, 2.5);
        let mut rng = Xoshiro256::seed_from_u64(1);
        let xs = vbr_stats::dist::sample_n(&d, 100_000, &mut rng);
        let (slope, r2, _) = fit_tail_slope(&xs, 0.1);
        assert!((slope - 2.5).abs() < 0.15, "slope {slope}");
        assert!(r2 > 0.98, "r2 {r2}");
    }

    #[test]
    fn tail_slope_recovered_from_hybrid() {
        let d = GammaPareto::from_params(1000.0, 250.0, 6.0);
        let mut rng = Xoshiro256::seed_from_u64(2);
        let xs = vbr_stats::dist::sample_n(&d, 200_000, &mut rng);
        let (slope, _, _) = fit_tail_slope(&xs, 0.02);
        assert!((slope - 6.0).abs() < 1.2, "slope {slope}");
    }

    #[test]
    fn estimate_from_screenplay_lands_near_calibration() {
        let trace = vbr_video::generate_screenplay(&vbr_video::ScreenplayConfig::short(60_000, 5));
        let est = estimate_trace(
            &trace,
            &EstimateOptions { hurst_method: HurstMethod::VarianceTime, ..Default::default() },
        );
        let p = est.params;
        assert!((p.mu_gamma - 27_791.0).abs() / 27_791.0 < 0.05, "mu {}", p.mu_gamma);
        assert!((p.sigma_gamma - 6_254.0).abs() / 6_254.0 < 0.3, "sigma {}", p.sigma_gamma);
        assert!(p.hurst > 0.65 && p.hurst < 0.95, "H {}", p.hurst);
        assert!(p.tail_slope > 3.0 && p.tail_slope < 20.0, "m_T {}", p.tail_slope);
    }

    #[test]
    fn whittle_method_works_on_trace() {
        let trace = vbr_video::generate_screenplay(&vbr_video::ScreenplayConfig::short(40_000, 6));
        let est = estimate_trace(
            &trace,
            &EstimateOptions {
                hurst_method: HurstMethod::WhittleLog { aggregation: 100 },
                ..Default::default()
            },
        );
        assert!(est.params.hurst > 0.6, "H {}", est.params.hurst);
    }

    #[test]
    #[should_panic(expected = "long series")]
    fn short_series_rejected() {
        estimate_series(&[1.0; 100], &EstimateOptions::default());
    }

    #[test]
    fn try_estimate_rejects_corrupt_series_with_typed_errors() {
        use crate::error::ModelError;
        use vbr_stats::error::DataError;

        let opts = EstimateOptions::default();
        assert!(matches!(
            try_estimate_series(&[1.0; 100], &opts),
            Err(ModelError::Data(DataError::TooShort { .. }))
        ));
        let mut spiked = vec![100.0; 2000];
        spiked[1234] = f64::NAN;
        assert!(matches!(
            try_estimate_series(&spiked, &opts),
            Err(ModelError::Data(DataError::NonFiniteSample { index: 1234, .. }))
        ));
        assert!(matches!(
            try_estimate_series(&[7.5; 2000], &opts),
            Err(ModelError::Data(DataError::ZeroVariance))
        ));
    }

    #[test]
    fn failed_method_falls_back_to_ensemble() {
        // 1 100 points: variance-time with fit_min_m = 200 has max block
        // size n/10 = 110, so the fit grid is empty and the requested
        // method fails — the ensemble must answer instead.
        let mut rng = Xoshiro256::seed_from_u64(11);
        let xs: Vec<f64> = (0..1_100).map(|_| rng.standard_normal().exp() * 50.0).collect();
        let est = try_estimate_series(
            &xs,
            &EstimateOptions { hurst_method: HurstMethod::VarianceTime, ..Default::default() },
        )
        .expect("fallback should rescue the estimate");
        assert!(est.hurst_fallback.is_some(), "expected ensemble fallback");
        assert!(est.params.hurst > 0.5 && est.params.hurst < 1.0);
    }

    #[test]
    fn healthy_series_reports_no_fallback() {
        let trace = vbr_video::generate_screenplay(&vbr_video::ScreenplayConfig::short(40_000, 6));
        let est = try_estimate_trace(&trace, &EstimateOptions::default()).unwrap();
        assert!(est.hurst_fallback.is_none());
        let direct = estimate_trace(&trace, &EstimateOptions::default());
        assert_eq!(est.params, direct.params);
    }
}
