//! Cross-crate statistical-property tests: the paper's §3 findings must
//! hold on our synthetic trace, and the generators must have the exact
//! laws they claim.

use vbr::prelude::*;
use vbr::stats::acf::exponential_fit;
use vbr::stats::autocorrelation;

fn default_trace() -> Trace {
    generate_screenplay(&ScreenplayConfig::short(80_000, 9))
}

/// §3.1: the right tail is heavier than any exponential-family fit.
#[test]
fn trace_tail_is_heavier_than_gamma_and_normal() {
    let trace = default_trace();
    let series = trace.frame_series();
    let s = trace.summary_frame();
    let ecdf = vbr::stats::Ecdf::new(&series);
    let normal = Normal::from_moments(s.mean, s.std_dev);
    let gamma = Gamma::from_moments(s.mean, s.std_dev);
    let x = ecdf.quantile(0.9995);
    let emp = ecdf.ccdf(x);
    assert!(normal.ccdf(x) < emp / 50.0, "Normal tail not light enough vs data");
    assert!(gamma.ccdf(x) < emp, "Gamma tail should still undershoot the data");
}

/// §3.2: the ACF departs from any exponential fit at large lags
/// (slower-than-exponential decay = LRD signature).
#[test]
fn trace_acf_is_subexponential() {
    let series = default_trace().frame_series();
    let acf = autocorrelation(&series, 3_000);
    let rho = exponential_fit(&acf, 100);
    // At lag 2000 the exponential extrapolation is astronomically small;
    // the data must sit far above it.
    let fit = rho.powi(2000);
    assert!(acf[2000] > 100.0 * fit, "r(2000) = {} vs exp-fit {fit}", acf[2000]);
    assert!(acf[2000] > 0.0, "long-lag autocorrelation should remain positive");
}

/// §3.2.2: aggregating the trace does not whiten it (self-similarity).
#[test]
fn aggregated_trace_retains_correlation() {
    let series = default_trace().frame_series();
    let agg = vbr::lrd::aggregate(&series, 100);
    let r = autocorrelation(&agg, 5);
    assert!(r[1] > 0.3, "X^(100) r(1) = {} — an SRD process would be white", r[1]);
}

/// §3.2.3 / Table 3: H estimates land in the LRD regime and inside the
/// aggregated-Whittle confidence interval.
#[test]
fn hurst_in_lrd_regime() {
    let series = default_trace().frame_series();
    let vt = variance_time(&series, &VtOptions { fit_min_m: 200, ..VtOptions::default() });
    assert!(vt.hurst > 0.6 && vt.hurst < 0.95, "VT H = {}", vt.hurst);
    let rs = rs_analysis(&series, &RsOptions::default());
    assert!(rs.hurst > 0.6 && rs.hurst < 0.95, "R/S H = {}", rs.hurst);
}

/// Hosking's algorithm generates *exactly* the fARIMA autocorrelation
/// (short lags, within sampling error) — the law the paper derives.
#[test]
fn hosking_matches_farima_law() {
    let h = 0.75;
    let xs = Hosking::new(h, 1.0).generate(30_000, 5);
    let r = autocorrelation(&xs, 5);
    let want = vbr::fgn::farima_acf(h - 0.5, 5);
    for k in 1..=5 {
        assert!((r[k] - want[k]).abs() < 0.05, "lag {k}: {} vs theory {}", r[k], want[k]);
    }
}

/// Davies–Harte generates *exactly* the fGn autocovariance.
#[test]
fn davies_harte_matches_fgn_law() {
    let h = 0.85;
    let xs = DaviesHarte::new(h, 1.0).generate(65_536, 6);
    let r = autocorrelation(&xs, 3);
    let want = vbr::fgn::fgn_acvf(h, 3);
    for k in 1..=3 {
        assert!((r[k] - want[k]).abs() < 0.05, "lag {k}: {} vs theory {}", r[k], want[k]);
    }
}

/// Eq 13: the marginal transform imposes the Gamma/Pareto law on an LRD
/// Gaussian path without destroying the Hurst parameter.
#[test]
fn marginal_transform_preserves_h_and_imposes_marginal() {
    let h = 0.8;
    let gauss = DaviesHarte::new(h, 1.0).generate(100_000, 8);
    let target = GammaPareto::from_params(27_791.0, 6_254.0, 9.0);
    let xform = MarginalTransform::new(&target, 0.0, 1.0, TableMode::Exact);
    let ys = xform.map_series(&gauss);

    // Marginal: quantiles match.
    let mut sorted = ys.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for q in [0.1, 0.5, 0.9, 0.99] {
        let emp = sorted[(sorted.len() as f64 * q) as usize];
        let want = target.quantile(q);
        assert!((emp - want).abs() / want < 0.02, "q={q}: {emp} vs {want}");
    }

    // H: variance-time estimate close to the driving H.
    let vt = variance_time(&ys, &VtOptions::default());
    assert!((vt.hurst - h).abs() < 0.08, "H after transform = {}", vt.hurst);
}

/// §6: "H is necessary for characterizing burstiness, but not
/// sufficient" — two processes with the same H but different marginals
/// demand different capacity.
#[test]
fn same_h_different_marginals_different_capacity() {
    let p = ModelParams::paper_frame_defaults();
    let lrd_gp = SourceModel::full(p).generate_trace(20_000, 24.0, 30, 9);
    let lrd_gauss = SourceModel::gaussian_marginal(p).generate_trace(20_000, 24.0, 30, 9);
    let cap = |t: &Trace| {
        MuxSim::new(t, 1, 3).required_capacity(
            0.002,
            LossTarget::Rate(1e-4),
            LossMetric::Overall,
            18,
        )
    };
    let c_gp = cap(&lrd_gp);
    let c_gauss = cap(&lrd_gauss);
    assert!(c_gp > c_gauss * 1.02, "heavy tail must demand more capacity: {c_gp} vs {c_gauss}");
}
