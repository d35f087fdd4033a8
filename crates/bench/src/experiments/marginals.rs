//! Figures 3–6: the marginal bandwidth distribution and its models.

use crate::{banner, compare, Ctx};
use vbr_model::{estimate_trace, EstimateOptions, HurstMethod};
use vbr_stats::dist::{ContinuousDist, Gamma, GammaPareto, Lognormal, Normal};
use vbr_stats::histogram::{Ecdf, Histogram};

fn fitted_models(ctx: &Ctx) -> (Normal, Gamma, Lognormal, GammaPareto) {
    let s = ctx.trace.summary_frame();
    let est = estimate_trace(
        &ctx.trace,
        &EstimateOptions { hurst_method: HurstMethod::VarianceTime, ..Default::default() },
    );
    (
        Normal::from_moments(s.mean, s.std_dev),
        Gamma::from_moments(s.mean, s.std_dev),
        Lognormal::from_moments(s.mean, s.std_dev),
        est.params.marginal(),
    )
}

/// Fig 3: bandwidth distributions of five two-minute segments vs the
/// whole trace — long-term statistics differ markedly from what a queue
/// sees over minutes.
pub fn fig3(ctx: &Ctx) {
    banner("Fig 3 — per-segment bandwidth distributions (five 2-minute segments)");
    let series = ctx.trace.frame_series();
    let seg_frames = (120.0 * ctx.trace.fps()) as usize;
    let n = ctx.trace.frames();
    let starts: Vec<usize> = (0..5).map(|i| (n - seg_frames) * (2 * i + 1) / 10).collect();

    let mut rows: Vec<Vec<f64>> = Vec::new();
    println!("{:>10} {:>12} {:>10} {:>10}", "segment", "mean", "sd", "CoV");
    for (i, &s0) in starts.iter().enumerate() {
        let seg = &series[s0..s0 + seg_frames];
        let mean = seg.iter().sum::<f64>() / seg.len() as f64;
        let sd = (seg.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / seg.len() as f64).sqrt();
        println!("{:>10} {:>12.0} {:>10.0} {:>10.3}", i + 1, mean, sd, sd / mean);
        let h = Histogram::from_data(seg, 40);
        for (x, d) in h.density() {
            rows.push(vec![(i + 1) as f64, x, d]);
        }
    }
    let mean = series.iter().sum::<f64>() / series.len() as f64;
    let sd = (series.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / series.len() as f64).sqrt();
    println!("{:>10} {:>12.0} {:>10.0} {:>10.3}", "whole", mean, sd, sd / mean);
    let h = Histogram::from_data(&series, 60);
    for (x, d) in h.density() {
        rows.push(vec![0.0, x, d]);
    }
    ctx.write_csv("fig3_segment_histograms.csv", "segment,bytes_per_frame,density", &rows);
    println!(
        "shape check: segment means spread over a wide range relative to sd -> \
         short windows deviate significantly from the long-term distribution"
    );
}

/// Fig 4: log-log CCDF of the frame data against Normal, Gamma,
/// Lognormal and Pareto models — only a heavy (Pareto) tail keeps up.
pub fn fig4(ctx: &Ctx) {
    banner("Fig 4 — complementary CDF (right tail), data vs models");
    let series = ctx.trace.frame_series();
    let ecdf = Ecdf::new(&series);
    let (normal, gamma, lognormal, hybrid) = fitted_models(ctx);
    let pareto = hybrid.tail_pareto();

    let mut rows = Vec::new();
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "x", "empirical", "Normal", "Gamma", "Lognormal", "Pareto"
    );
    for q in [0.5, 0.8, 0.9, 0.95, 0.99, 0.997, 0.999, 0.9997, 0.9999] {
        let x = ecdf.quantile(q);
        let row = [ecdf.ccdf(x), normal.ccdf(x), gamma.ccdf(x), lognormal.ccdf(x), pareto.ccdf(x)];
        println!(
            "{:>10.0} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e}",
            x, row[0], row[1], row[2], row[3], row[4]
        );
        rows.push(vec![x, row[0], row[1], row[2], row[3], row[4]]);
    }
    ctx.write_csv("fig4_ccdf.csv", "bytes,empirical,normal,gamma,lognormal,pareto", &rows);
    // Shape check: at the 99.9th percentile the Normal must be orders of
    // magnitude too light, the Pareto within one order of magnitude.
    let x = ecdf.quantile(0.999);
    let emp = ecdf.ccdf(x);
    compare(
        "tail behaviour at the 99.9th pct",
        "Normal falls off too fast; Pareto matches",
        &format!(
            "Normal/emp = {:.1e}, Pareto/emp = {:.2}",
            normal.ccdf(x) / emp,
            pareto.ccdf(x) / emp
        ),
    );

    // Quantified fit (extension: the paper eyeballs the overlays).
    // KS measures the body — where the paper says the bell-shaped
    // candidates do fine; the tail metric (max |log₁₀ CCDF error| over
    // the top 1 %) is where only the heavy tail survives.
    use vbr_stats::ks_statistic;
    let tail_err = |d: &dyn vbr_stats::dist::ContinuousDist| -> f64 {
        [0.99, 0.995, 0.999, 0.9995, 0.9997]
            .iter()
            .map(|&q| {
                let x = ecdf.quantile(q);
                (d.ccdf(x).max(1e-300).log10() - ecdf.ccdf(x).max(1e-300).log10()).abs()
            })
            .fold(0.0f64, f64::max)
    };
    println!("\nfit metrics (lower is better):");
    println!("{:<14} {:>10} {:>22}", "model", "KS (body)", "max |log10 err| (tail)");
    let rows: Vec<(&str, f64, f64)> = vec![
        ("Normal", ks_statistic(&series, &normal), tail_err(&normal)),
        ("Gamma", ks_statistic(&series, &gamma), tail_err(&gamma)),
        ("Lognormal", ks_statistic(&series, &lognormal), tail_err(&lognormal)),
        ("Gamma/Pareto", ks_statistic(&series, &hybrid), tail_err(&hybrid)),
    ];
    for (name, ks, te) in &rows {
        println!("{name:<14} {ks:>10.4} {te:>22.2}");
    }
    let best_tail = rows.iter().min_by(|a, b| a.2.partial_cmp(&b.2).unwrap()).unwrap().0;
    compare("best tail fit", "Gamma/Pareto hybrid (bells match only the body)", best_tail);
}

/// Fig 5: log-log CDF of the left tail — the Gamma fits the lower end.
pub fn fig5(ctx: &Ctx) {
    banner("Fig 5 — cumulative distribution (left tail), data vs models");
    let series = ctx.trace.frame_series();
    let ecdf = Ecdf::new(&series);
    let (normal, gamma, lognormal, hybrid) = fitted_models(ctx);

    let mut rows = Vec::new();
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "x", "empirical", "Normal", "Gamma", "Lognormal", "Gamma/Pareto"
    );
    for q in [0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3] {
        let x = ecdf.quantile(q);
        let row = [ecdf.cdf(x), normal.cdf(x), gamma.cdf(x), lognormal.cdf(x), hybrid.cdf(x)];
        println!(
            "{:>10.0} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e}",
            x, row[0], row[1], row[2], row[3], row[4]
        );
        rows.push(vec![x, row[0], row[1], row[2], row[3], row[4]]);
    }
    ctx.write_csv(
        "fig5_left_tail_cdf.csv",
        "bytes,empirical,normal,gamma,lognormal,gamma_pareto",
        &rows,
    );
    let x = ecdf.quantile(0.003);
    compare(
        "left-tail fit at the 0.3rd pct",
        "Gamma adequate",
        &format!("Gamma/emp = {:.2}", gamma.cdf(x) / ecdf.cdf(x)),
    );
}

/// Fig 6: probability density of the data vs the Gamma/Pareto model.
pub fn fig6(ctx: &Ctx) {
    banner("Fig 6 — probability density vs Gamma/Pareto model");
    let series = ctx.trace.frame_series();
    let (_, _, _, hybrid) = fitted_models(ctx);
    let h = Histogram::from_data(&series, 80);
    let mut rows = Vec::new();
    let mut max_dev: f64 = 0.0;
    let mut peak_density: f64 = 0.0;
    for (x, d) in h.density() {
        let model = hybrid.pdf(x);
        rows.push(vec![x, d, model]);
        peak_density = peak_density.max(d);
        if d > 1e-7 {
            max_dev = max_dev.max((d - model).abs());
        }
    }
    ctx.write_csv("fig6_density.csv", "bytes,empirical_density,gamma_pareto_pdf", &rows);
    compare(
        "density agreement",
        "model overlays the data",
        &format!(
            "max |data - model| = {:.1}% of the modal density",
            100.0 * max_dev / peak_density
        ),
    );
    println!(
        "threshold x_th = {:.0} bytes, Pareto tail holds {:.1}% of the mass \
         (paper: ~3%)",
        hybrid.threshold(),
        100.0 * hybrid.tail_fraction()
    );
}
