//! The beyond-the-paper extension suite, demonstrated in one place:
//! genre fingerprints, the extended estimator battery, admission control
//! and the Norros closed form.

use crate::{banner, compare, Ctx};
use vbr_lrd::{local_whittle, rs_analysis, wavelet_hurst, RsOptions};
use vbr_qsim::{admit_by_norros, admit_by_simulation, fbm_variance_coef, LossMetric, LossTarget};
use vbr_video::{generate_screenplay, Genre, ScreenplayConfig};

/// Runs the extension showcase (not a paper artefact; id `ext`).
pub fn ext(ctx: &Ctx) {
    banner("Extensions — genre fingerprints");
    let frames = if ctx.quick { 20_000 } else { 60_000 };
    println!(
        "{:<16} {:>12} {:>8} {:>10} {:>8}",
        "genre", "mean [Mb/s]", "CoV", "peak/mean", "R/S H"
    );
    let mut rows = Vec::new();
    for (i, (name, genre)) in [
        ("action movie", Genre::ActionMovie),
        ("drama", Genre::Drama),
        ("conference", Genre::Videoconference),
        ("sports", Genre::Sports),
    ]
    .iter()
    .enumerate()
    {
        let t = generate_screenplay(&ScreenplayConfig::genre(*genre, frames, 77));
        let s = t.summary_frame();
        let h = rs_analysis(&t.frame_series(), &RsOptions::default()).hurst;
        println!(
            "{:<16} {:>12.2} {:>8.2} {:>10.2} {:>8.2}",
            name,
            t.mean_bandwidth_bps() / 1e6,
            s.coef_variation,
            s.peak_to_mean,
            h
        );
        rows.push(vec![
            i as f64,
            t.mean_bandwidth_bps() / 1e6,
            s.coef_variation,
            s.peak_to_mean,
            h,
        ]);
    }
    ctx.write_csv("ext_genres.csv", "genre_index,mean_mbps,cov,peak_to_mean,rs_hurst", &rows);
    compare("videoconference H", "0.60-0.75 (paper §3.2.3)", "lowest of the four genres");

    banner("Extensions — estimator battery on the default trace");
    let series = ctx.trace.frame_series();
    let lw = local_whittle(&series, None);
    let wv = wavelet_hurst(&series, Some(3), None);
    println!(
        "local Whittle (semiparametric): H = {:.3} +/- {:.3}  (m = {})",
        lw.hurst,
        1.96 * lw.std_err,
        lw.m
    );
    println!(
        "Haar wavelet logscale:          H = {:.3}  (fit R^2 = {:.3})",
        wv.hurst, wv.fit.r_squared
    );

    banner("Extensions — admission control on a 45 Mb/s link");
    let link = 45e6 / 8.0;
    let sim = admit_by_simulation(
        &ctx.trace,
        link,
        0.002,
        LossTarget::Rate(1e-3),
        LossMetric::Overall,
        16,
        5,
    );
    let s = ctx.trace.summary_frame();
    let dt = 1.0 / ctx.trace.fps();
    let a = fbm_variance_coef(s.mean, s.std_dev * s.std_dev, dt, 0.8);
    let norros = admit_by_norros(s.mean / dt, a, 0.8, link, 0.002 * link, 1e-3, 16);
    println!(
        "trace-driven: {} sources ({:.0}% utilisation)",
        sim.max_sources,
        sim.utilization * 100.0
    );
    println!(
        "Norros rule:  {} sources ({:.0}% utilisation)",
        norros.max_sources,
        norros.utilization * 100.0
    );
    compare(
        "closed form vs simulation",
        "same order of magnitude",
        &format!("{} vs {}", norros.max_sources, sim.max_sources),
    );
}
