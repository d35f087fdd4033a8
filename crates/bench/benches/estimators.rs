//! Criterion benchmarks for the Hurst estimators of Table 3 and
//! Figs 11–12: variance-time, R/S and Whittle on paper-scale series.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vbr_fgn::DaviesHarte;
use vbr_lrd::{rs_analysis, variance_time, whittle_aggregated, RsOptions, VtOptions};

fn lrd_series(n: usize) -> Vec<f64> {
    DaviesHarte::new(0.8, 1.0).generate(n, 7).into_iter().map(|v| v + 10.0).collect()
}

fn bench_variance_time(c: &mut Criterion) {
    let x = lrd_series(171_000);
    let mut g = c.benchmark_group("table3_estimators");
    g.sample_size(10);
    g.bench_function("variance_time_fig11", |b| {
        b.iter(|| variance_time(black_box(&x), &VtOptions::default()))
    });
    g.bench_function("rs_analysis_fig12", |b| {
        b.iter(|| rs_analysis(black_box(&x), &RsOptions::default()))
    });
    g.bench_function("whittle_aggregated_100_700", |b| {
        b.iter(|| whittle_aggregated(black_box(&x), &[100, 700]))
    });
    g.bench_function("local_whittle", |b| b.iter(|| vbr_lrd::local_whittle(black_box(&x), None)));
    g.bench_function("wavelet_hurst", |b| {
        b.iter(|| vbr_lrd::wavelet_hurst(black_box(&x), Some(2), None))
    });
    g.finish();
}

fn bench_whittle_objective(c: &mut Criterion) {
    // The golden-section search evaluates the objective ~200 times per
    // estimate; compare the powf-per-frequency path against the
    // precomputed log-table path for one full search's worth of evals.
    let x = lrd_series(65_536);
    let pg = vbr_stats::Periodogram::compute(&x);
    let d_grid: Vec<f64> = (0..200).map(|i| 0.001 + 0.498 * i as f64 / 199.0).collect();
    let mut g = c.benchmark_group("whittle_objective");
    g.sample_size(10);
    for model in [vbr_lrd::SpectralModel::Farima, vbr_lrd::SpectralModel::Fgn] {
        g.bench_function(format!("direct_{model:?}").to_lowercase(), |b| {
            b.iter(|| {
                d_grid
                    .iter()
                    .map(|&d| vbr_lrd::whittle_objective_direct(black_box(&pg), model, d))
                    .sum::<f64>()
            })
        });
        g.bench_function(format!("fast_{model:?}").to_lowercase(), |b| {
            b.iter(|| {
                let obj = vbr_lrd::WhittleObjective::new(black_box(&pg), model);
                d_grid.iter().map(|&d| obj.eval(d)).sum::<f64>()
            })
        });
    }
    g.finish();
}

fn bench_robust_ensemble(c: &mut Criterion) {
    // The parallel ensemble at 1 worker vs the session's worker count.
    let x = lrd_series(65_536);
    let mut g = c.benchmark_group("robust_hurst");
    g.sample_size(10);
    g.bench_function("serial", |b| {
        b.iter(|| vbr_stats::par::with_threads(1, || vbr_lrd::robust_hurst(black_box(&x)).unwrap()))
    });
    g.bench_function("parallel", |b| b.iter(|| vbr_lrd::robust_hurst(black_box(&x)).unwrap()));
    g.finish();
}

fn bench_estimate_params(c: &mut Criterion) {
    // The full 4-parameter estimation pipeline of §4.2.
    let trace = vbr_video::generate_screenplay(&vbr_video::ScreenplayConfig::short(40_000, 9));
    let mut g = c.benchmark_group("model_estimation");
    g.sample_size(10);
    g.bench_function("estimate_trace_40000", |b| {
        b.iter(|| {
            vbr_model::estimate_trace(
                black_box(&trace),
                &vbr_model::EstimateOptions {
                    hurst_method: vbr_model::HurstMethod::VarianceTime,
                    ..Default::default()
                },
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_variance_time,
    bench_whittle_objective,
    bench_robust_ensemble,
    bench_estimate_params
);
criterion_main!(benches);
