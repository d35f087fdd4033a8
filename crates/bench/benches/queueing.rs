//! Criterion benchmarks for the queueing machinery of Figs 14–17: the
//! raw fluid-queue pass and a full capacity search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vbr_qsim::{FluidQueue, LossMetric, LossTarget, MuxSim};
use vbr_video::{generate_screenplay, ScreenplayConfig};

fn bench_queue_pass(c: &mut Criterion) {
    let trace = generate_screenplay(&ScreenplayConfig::short(20_000, 5));
    let mut g = c.benchmark_group("queue_pass");
    g.sample_size(10);
    for &n in &[1usize, 5, 20] {
        let sim = MuxSim::new(&trace, n, 1);
        let c_tot = sim.mean_rate() * 1.3;
        g.bench_with_input(BenchmarkId::new("mux_run_600k_slots", n), &sim, |b, sim| {
            b.iter(|| sim.run(black_box(c_tot), black_box(0.002 * c_tot)))
        });
    }
    g.finish();
}

fn bench_raw_queue(c: &mut Criterion) {
    let arrivals: Vec<f64> =
        (0..1_000_000).map(|i| 900.0 + 300.0 * ((i as f64) * 0.001).sin()).collect();
    let mut g = c.benchmark_group("fluid_queue");
    g.sample_size(10);
    g.bench_function("step_1M_slots", |b| {
        b.iter(|| {
            let mut q = FluidQueue::new(10_000.0, 700_000.0);
            for &a in &arrivals {
                q.step(black_box(a), 0.001389);
            }
            q.loss_rate()
        })
    });
    g.finish();
}

fn bench_capacity_search(c: &mut Criterion) {
    // One Fig 14 point: bisection to the capacity meeting P_l <= 1e-3.
    let trace = generate_screenplay(&ScreenplayConfig::short(20_000, 6));
    let sim = MuxSim::new(&trace, 2, 2);
    let mut g = c.benchmark_group("fig14_point");
    g.sample_size(10);
    g.bench_function("required_capacity_n2", |b| {
        b.iter(|| {
            sim.required_capacity(black_box(0.002), LossTarget::Rate(1e-3), LossMetric::Overall, 18)
        })
    });
    g.finish();
}

fn bench_qc_sweep(c: &mut Criterion) {
    // A Fig 14 curve: the T_max grid swept serially vs on the worker pool
    // (each point is an independent bisection).
    let trace = generate_screenplay(&ScreenplayConfig::short(10_000, 8));
    let sim = MuxSim::new(&trace, 3, 3);
    let grid = [0.0005, 0.002, 0.01, 0.05];
    let mut g = c.benchmark_group("fig14_curve");
    g.sample_size(10);
    g.bench_function("qc_curve_serial", |b| {
        b.iter(|| {
            vbr_stats::par::with_threads(1, || {
                vbr_qsim::qc_curve(
                    black_box(&sim),
                    &grid,
                    LossTarget::Rate(1e-2),
                    LossMetric::Overall,
                    12,
                )
            })
        })
    });
    g.bench_function("qc_curve_parallel", |b| {
        b.iter(|| {
            vbr_qsim::qc_curve(
                black_box(&sim),
                &grid,
                LossTarget::Rate(1e-2),
                LossMetric::Overall,
                12,
            )
        })
    });
    g.finish();
}

fn bench_cell_sim(c: &mut Criterion) {
    // Cell-level (ATM) simulation of one source over a short trace.
    let trace = generate_screenplay(&ScreenplayConfig::short(2_000, 7));
    let cap = trace.mean_bandwidth_bps() / 8.0 * 1.2;
    let mut g = c.benchmark_group("cell_level");
    g.sample_size(10);
    g.bench_function("uniform_spacing_2000_frames", |b| {
        b.iter(|| {
            vbr_qsim::simulate_cells(
                black_box(&trace),
                &[0],
                cap,
                10_000.0,
                vbr_qsim::CellSpacing::Uniform,
                1,
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_queue_pass,
    bench_raw_queue,
    bench_capacity_search,
    bench_qc_sweep,
    bench_cell_sim
);
criterion_main!(benches);
