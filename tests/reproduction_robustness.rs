//! Seed-robustness of the reproduction: the paper's headline *shape*
//! claims must hold for any seed of the synthetic movie, not just the
//! default one used by the `repro` harness.

use vbr::prelude::*;
use vbr::stats::dist::ContinuousDist;
use vbr::stats::Ecdf;

fn trace_for(seed: u64) -> Trace {
    generate_screenplay(&ScreenplayConfig::short(40_000, seed))
}

/// Table 2 shape: CoV near 0.23, peak/mean a few, positive minimum —
/// across seeds.
#[test]
fn table2_shape_across_seeds() {
    for seed in [11u64, 22, 33] {
        let s = trace_for(seed).summary_frame();
        assert!((s.coef_variation - 0.24).abs() < 0.06, "seed {seed}: CoV {}", s.coef_variation);
        assert!(
            s.peak_to_mean > 1.8 && s.peak_to_mean < 4.5,
            "seed {seed}: peak/mean {}",
            s.peak_to_mean
        );
        assert!(s.min > 0.0, "seed {seed}: min {}", s.min);
        assert!((s.mean - 27_791.0).abs() / 27_791.0 < 0.08, "seed {seed}: mean {}", s.mean);
    }
}

/// Table 3 shape: H estimates stay in the LRD regime across seeds.
#[test]
fn hurst_regime_across_seeds() {
    for seed in [11u64, 22, 33] {
        let series = trace_for(seed).frame_series();
        let vt = variance_time(&series, &VtOptions { fit_min_m: 200, ..VtOptions::default() });
        let rs = rs_analysis(&series, &RsOptions::default());
        for (name, h) in [("VT", vt.hurst), ("R/S", rs.hurst)] {
            assert!(h > 0.62 && h < 0.95, "seed {seed}, {name}: H = {h} left the LRD regime");
        }
    }
}

/// Fig 4 shape: the Normal tail is always orders of magnitude too light,
/// the fitted hybrid within one order — across seeds.
#[test]
fn tail_ordering_across_seeds() {
    for seed in [11u64, 22, 33] {
        let trace = trace_for(seed);
        let series = trace.frame_series();
        let s = trace.summary_frame();
        let ecdf = Ecdf::new(&series);
        let normal = Normal::from_moments(s.mean, s.std_dev);
        let est = estimate_trace(
            &trace,
            &EstimateOptions { hurst_method: HurstMethod::VarianceTime, ..Default::default() },
        );
        let hybrid = est.params.marginal();
        let x = ecdf.quantile(0.999);
        let emp = ecdf.ccdf(x);
        assert!(
            normal.ccdf(x) < emp / 30.0,
            "seed {seed}: Normal tail only {}x too light",
            emp / normal.ccdf(x)
        );
        let ratio = hybrid.ccdf(x) / emp;
        assert!((0.1..10.0).contains(&ratio), "seed {seed}: hybrid/empirical CCDF ratio {ratio}");
    }
}

/// Fig 15 shape: multiplexing five sources realises well over a third of
/// the peak-to-mean gain — across seeds (shorter trace, coarser search).
#[test]
fn multiplexing_gain_across_seeds() {
    for seed in [11u64, 22] {
        let trace = generate_screenplay(&ScreenplayConfig::short(6_000, seed));
        let pts = smg_curve(
            &trace,
            &[1, 5],
            0.002,
            LossTarget::Rate(1e-3),
            LossMetric::Overall,
            16,
            seed,
        );
        assert!(
            pts[1].gain_realized > pts[0].gain_realized + 0.2,
            "seed {seed}: gain N=1 {} vs N=5 {}",
            pts[0].gain_realized,
            pts[1].gain_realized
        );
        assert!(pts[1].gain_realized > 0.35, "seed {seed}: N=5 gain only {}", pts[1].gain_realized);
    }
}
