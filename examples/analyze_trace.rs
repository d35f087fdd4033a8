//! Full statistical analysis of a VBR trace — the §3 toolbox end to end:
//! Table 2 statistics, marginal-distribution comparison (Figs 4–6),
//! autocorrelation (Fig 7), periodogram (Fig 8) and the complete Hurst
//! estimation suite (Table 3).
//!
//! ```sh
//! cargo run --release --example analyze_trace [path/to/trace.bin]
//! ```
//!
//! With no argument a 60 000-frame synthetic movie trace is analysed.

use vbr::prelude::*;
use vbr::stats::dist::ContinuousDist;
use vbr::stats::{autocorrelation, Ecdf, Periodogram};

fn main() {
    let trace = match std::env::args().nth(1) {
        Some(path) => Trace::load(&path).unwrap_or_else(|e| {
            eprintln!("failed to load {path}: {e}");
            std::process::exit(1);
        }),
        None => generate_screenplay(&ScreenplayConfig::short(60_000, 3)),
    };
    let series = trace.frame_series();

    println!("== Table 2-style statistics ==");
    for (name, s) in [("frame", trace.summary_frame()), ("slice", trace.summary_slice())] {
        println!(
            "{name:>6}: dT={:.3} ms  mean={:.1}  sd={:.1}  CoV={:.2}  max={:.0}  min={:.0}  peak/mean={:.2}",
            s.delta_t_ms, s.mean, s.std_dev, s.coef_variation, s.max, s.min, s.peak_to_mean
        );
    }

    // Marginal-model comparison at a few tail quantiles (Fig 4's story).
    println!("\n== tail CCDF: empirical vs fitted models ==");
    let ecdf = Ecdf::new(&series);
    let mean = trace.summary_frame().mean;
    let sd = trace.summary_frame().std_dev;
    let normal = Normal::from_moments(mean, sd);
    let gamma = Gamma::from_moments(mean, sd);
    let lognormal = Lognormal::from_moments(mean, sd);
    let est = estimate_trace(&trace, &EstimateOptions::default());
    let hybrid = est.params.marginal();
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "x", "empirical", "Normal", "Gamma", "Lognormal", "Gamma/Pareto"
    );
    for q in [0.9, 0.99, 0.999, 0.9999] {
        let x = ecdf.quantile(q);
        println!(
            "{:>10.0} {:>12.2e} {:>12.2e} {:>12.2e} {:>12.2e} {:>12.2e}",
            x,
            ecdf.ccdf(x),
            normal.ccdf(x),
            gamma.ccdf(x),
            lognormal.ccdf(x),
            hybrid.ccdf(x),
        );
    }

    // Autocorrelation decay (Fig 7): exponential fit fails beyond ~300 lags.
    println!("\n== autocorrelation ==");
    let acf = autocorrelation(&series, 5_000.min(series.len() / 4));
    let rho = vbr::stats::acf::exponential_fit(&acf, 100);
    for lag in [1usize, 10, 100, 300, 1000, 3000] {
        if lag < acf.len() {
            println!(
                "r({lag:>5}) = {:+.4}   exp-fit rho^k would be {:+.2e}",
                acf[lag],
                rho.powi(lag as i32)
            );
        }
    }

    // Periodogram low-frequency power law (Fig 8).
    let pg = Periodogram::compute(&series);
    let fit = pg.low_freq_slope(0.05);
    println!(
        "\n== periodogram ==\nlow-frequency power law: I(w) ~ w^{:.2}  (alpha = {:.2}, H = {:.3})",
        fit.slope,
        -fit.slope,
        (1.0 - fit.slope) / 2.0
    );

    // The full Table 3.
    println!("\n== Hurst estimates (Table 3) ==");
    let rep = hurst_report(&series, &ReportOptions::default());
    for (name, h) in rep.estimates() {
        println!("{name:>24}: H = {h:.3}");
    }
    println!(
        "{:>24}: {:.2}-{:.2}",
        "R/S with n, M varied", rep.rs_varied_range.0, rep.rs_varied_range.1
    );
    println!(
        "{:>24}: {:.3} ± {:.3} (95% CI)",
        "Whittle (aggregated)",
        rep.whittle.hurst,
        1.96 * rep.whittle.std_err
    );
}
