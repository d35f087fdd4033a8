//! Tables 1–3 of the paper.

use crate::{banner, compare, Ctx};
use vbr_lrd::{hurst_report, ReportOptions, VtOptions};

/// Table 1: parameters for generating the VBR video trace.
pub fn table1(ctx: &Ctx) {
    banner("Table 1 — trace generation parameters");
    let t = &ctx.trace;
    // The paper's source format: 480 × 504 monochrome, 8 bits/pel.
    let raw_frame_bytes: u64 = 480 * 504;
    compare("Coding algorithms", "DCT, RLE, Huffman", "DCT, RLE, Huffman (vbr-video)");
    compare("Duration", "2 hours", &format!("{:.2} hours", t.duration_secs() / 3600.0));
    compare("Video frames", "171,000", &format!("{}", t.frames()));
    compare("Frame dimensions", "480 x 504 pels", "480 x 504 (synthetic equivalent)");
    compare("Pel resolution", "8 bits/pel mono", "8 bits/pel mono");
    compare("Frame rate", "24 per second", &format!("{} per second", t.fps()));
    compare("\"Slice\" rate", "30 per frame", &format!("{} per frame", t.slices_per_frame()));
    compare("Avg. bandwidth", "5.34 Mb/s", &format!("{:.2} Mb/s", t.mean_bandwidth_bps() / 1e6));
    compare(
        "Avg. compression ratio",
        "8.70",
        &format!("{:.2}", t.compression_ratio(raw_frame_bytes)),
    );
}

/// Table 2: statistics of the VBR video trace at frame and slice ΔT.
pub fn table2(ctx: &Ctx) {
    banner("Table 2 — trace statistics (frame | slice)");
    let f = ctx.trace.summary_frame();
    let s = ctx.trace.summary_slice();
    let row = |label: &str, paper_f: &str, paper_s: &str, mf: f64, ms: f64, digits: usize| {
        compare(
            label,
            &format!("{paper_f} | {paper_s}"),
            &format!("{mf:.digits$} | {ms:.digits$}"),
        );
    };
    row("Time unit dT [ms]", "41.67", "1.389", f.delta_t_ms, s.delta_t_ms, 3);
    row("Mean bandwidth [bytes/dT]", "27791", "926.4", f.mean, s.mean, 1);
    row("Standard deviation [bytes/dT]", "6254", "289.5", f.std_dev, s.std_dev, 1);
    row("Coef. of variation", "0.23", "0.31", f.coef_variation, s.coef_variation, 2);
    row("Maximum bandwidth [bytes/dT]", "78459", "3668", f.max, s.max, 0);
    row("Minimum bandwidth [bytes/dT]", "8622", "257", f.min, s.min, 0);
    row("Peak/mean bandwidth", "2.82", "3.96", f.peak_to_mean, s.peak_to_mean, 2);
}

/// Table 3: estimates of H from all methods.
pub fn table3(ctx: &Ctx) {
    banner("Table 3 — Hurst parameter estimates");
    let series = ctx.trace.frame_series();
    // The paper takes its measurement from ~200 frames upward.
    let opts = ReportOptions {
        vt: VtOptions { fit_min_m: 200, ..VtOptions::default() },
        ..ReportOptions::default()
    };
    let rep = hurst_report(&series, &opts);
    compare("Variance-Time", "0.78", &format!("{:.2}", rep.variance_time.hurst));
    compare("R/S Analysis", "0.83", &format!("{:.2}", rep.rs.hurst));
    compare("R/S Aggregated", "0.78", &format!("{:.2}", rep.rs_aggregated.hurst));
    compare(
        "R/S with n, M varied",
        "0.81-0.83",
        &format!("{:.2}-{:.2}", rep.rs_varied_range.0, rep.rs_varied_range.1),
    );
    compare(
        "Whittle estimate",
        "0.8 +/- 0.088",
        &format!("{:.2} +/- {:.3}", rep.whittle.hurst, 1.96 * rep.whittle.std_err),
    );
    println!("\nWhittle aggregation sweep (paper reads the estimate at m ~ 700):");
    for (m, e) in &rep.whittle_sweep {
        println!("  m = {m:>4}: H = {:.3} +/- {:.3}", e.hurst, 1.96 * e.std_err);
    }
    println!("extension (log-periodogram regression): H = {:.2}", rep.periodogram.hurst);
    println!(
        "extension (local Whittle, semiparametric): H = {:.2} +/- {:.3}",
        rep.local_whittle.hurst,
        1.96 * rep.local_whittle.std_err
    );
}
