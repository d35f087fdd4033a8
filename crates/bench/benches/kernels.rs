//! Criterion benchmarks for the numerical kernels behind Figs 7–8
//! (autocorrelation, periodogram) and everything FFT-based.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vbr_stats::rng::Xoshiro256;

fn series(n: usize) -> Vec<f64> {
    let mut rng = Xoshiro256::seed_from_u64(1);
    (0..n).map(|_| rng.standard_normal() + 10.0).collect()
}

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft");
    for &n in &[1024usize, 16_384, 262_144] {
        let x: Vec<vbr_fft::Complex> =
            series(n).into_iter().map(vbr_fft::Complex::from_re).collect();
        g.bench_with_input(BenchmarkId::new("pow2", n), &x, |b, x| {
            b.iter(|| vbr_fft::fft(black_box(x)))
        });
    }
    // Bluestein path: prime length.
    let x: Vec<vbr_fft::Complex> =
        series(10_007).into_iter().map(vbr_fft::Complex::from_re).collect();
    g.bench_function("bluestein_10007", |b| b.iter(|| vbr_fft::fft(black_box(&x))));
    g.finish();
}

fn bench_acf(c: &mut Criterion) {
    // Fig 7 workload: lag-10 000 ACF of the 171 000-frame series.
    let x = series(171_000);
    let mut g = c.benchmark_group("acf_fig7");
    g.sample_size(10);
    g.bench_function("fft_based_lag10000", |b| {
        b.iter(|| vbr_stats::autocorrelation(black_box(&x), 10_000))
    });
    let small = series(20_000);
    g.bench_function("direct_lag100_n20000", |b| {
        b.iter(|| vbr_stats::acf::autocorrelation_direct(black_box(&small), 100))
    });
    g.finish();
}

fn bench_periodogram(c: &mut Criterion) {
    // Fig 8 workload.
    let x = series(171_000);
    let mut g = c.benchmark_group("periodogram_fig8");
    g.sample_size(10);
    g.bench_function("full_trace", |b| b.iter(|| vbr_stats::Periodogram::compute(black_box(&x))));
    g.finish();
}

fn bench_fft_plan(c: &mut Criterion) {
    // The plan cache: rebuilding tables per call vs the cached hit.
    let mut g = c.benchmark_group("fft_plan");
    for &n in &[16_384usize, 262_144] {
        let input: Vec<vbr_fft::Complex> =
            series(n).into_iter().map(vbr_fft::Complex::from_re).collect();
        let mut buf = input.clone();
        g.bench_with_input(BenchmarkId::new("cold_build", n), &n, |b, &n| {
            b.iter(|| {
                buf.copy_from_slice(&input);
                let plan = vbr_fft::FftPlan::new(black_box(n));
                plan.process(&mut buf, vbr_fft::Direction::Forward);
            })
        });
        g.bench_with_input(BenchmarkId::new("cached", n), &n, |b, &n| {
            b.iter(|| {
                buf.copy_from_slice(&input);
                let plan = vbr_fft::plan_for(black_box(n));
                plan.process(&mut buf, vbr_fft::Direction::Forward);
            })
        });
    }
    g.finish();
}

fn bench_special(c: &mut Criterion) {
    let mut g = c.benchmark_group("special_functions");
    g.bench_function("norm_quantile", |b| {
        let mut p = 0.0001f64;
        b.iter(|| {
            p = if p > 0.999 { 0.0001 } else { p + 0.000017 };
            vbr_stats::special::norm_quantile(black_box(p))
        })
    });
    g.bench_function("gamma_p", |b| {
        let mut x = 0.1f64;
        b.iter(|| {
            x = if x > 60.0 { 0.1 } else { x + 0.013 };
            vbr_stats::special::gamma_p(black_box(19.7), black_box(x))
        })
    });
    g.finish();
}

fn bench_kernels_simd(c: &mut Criterion) {
    // The four blocked kernels against their scalar twins, fine-grained.
    let mut g = c.benchmark_group("kernels_simd");
    let n = 1usize << 16;

    // Bulk standard normals: per-sample scalar draws vs the batch fill.
    let mut buf = vec![0.0f64; n];
    g.bench_function("normal_scalar_64k", |b| {
        b.iter(|| {
            let mut rng = Xoshiro256::seed_from_u64(2);
            for x in buf.iter_mut() {
                *x = rng.standard_normal();
            }
            black_box(buf[n - 1]);
        })
    });
    g.bench_function("normal_batch_64k", |b| {
        b.iter(|| {
            let mut rng = Xoshiro256::seed_from_u64(2);
            rng.fill_standard_normal(&mut buf);
            black_box(buf[n - 1]);
        })
    });

    // Blocked quantile kernel vs per-element evaluation.
    let ps: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
    g.bench_function("quantile_scalar_64k", |b| {
        b.iter(|| {
            for (o, &p) in buf.iter_mut().zip(&ps) {
                *o = vbr_stats::norm_quantile(p);
            }
            black_box(buf[n - 1]);
        })
    });
    g.bench_function("quantile_slice_64k", |b| {
        b.iter(|| {
            buf.copy_from_slice(&ps);
            vbr_stats::norm_quantile_slice(&mut buf);
            black_box(buf[n - 1]);
        })
    });

    // Radix-4 SoA butterflies vs the scalar radix-2 twin.
    let fft_n = 1usize << 14;
    let input: Vec<vbr_fft::Complex> =
        series(fft_n).into_iter().map(vbr_fft::Complex::from_re).collect();
    let mut cbuf = input.clone();
    let plan = vbr_fft::plan_for(fft_n);
    g.bench_function("fft_radix2_scalar_16k", |b| {
        b.iter(|| {
            cbuf.copy_from_slice(&input);
            vbr_fft::reference_radix2(&mut cbuf, vbr_fft::Direction::Forward);
        })
    });
    g.bench_function("fft_radix4_soa_16k", |b| {
        b.iter(|| {
            cbuf.copy_from_slice(&input);
            plan.process(&mut cbuf, vbr_fft::Direction::Forward);
        })
    });

    // FIFO recurrence: per-slot step vs the block pass.
    let arrivals: Vec<f64> = series(n).iter().map(|v| v.abs() * 1e4).collect();
    let dt = 1.0 / (24.0 * 30.0);
    let cap = 27_791.0 / dt * 1.2;
    g.bench_function("queue_step_64k", |b| {
        b.iter(|| {
            let mut q = vbr_qsim::FluidQueue::new(1e6, cap);
            let mut loss = 0.0;
            for &a in &arrivals {
                loss += q.step(a, dt);
            }
            black_box(loss);
        })
    });
    g.bench_function("queue_step_block_64k", |b| {
        b.iter(|| {
            let mut q = vbr_qsim::FluidQueue::new(1e6, cap);
            let mut loss = 0.0;
            for chunk in arrivals.chunks(4096) {
                loss += q.step_block(chunk, dt);
            }
            black_box(loss);
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fft,
    bench_fft_plan,
    bench_acf,
    bench_periodogram,
    bench_special,
    bench_kernels_simd
);
criterion_main!(benches);
