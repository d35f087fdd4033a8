//! Figures 1–2 and 7–12: the time series, its low-frequency content and
//! the long-range-dependence evidence.

use crate::{banner, compare, Ctx};
use vbr_lrd::{aggregate, rs_analysis, variance_time, RsOptions, VtOptions};
use vbr_stats::acf::{autocorrelation, exponential_fit};
use vbr_stats::ci::prefix_mean_cis;
use vbr_stats::moving_average::{downsample, moving_average};
use vbr_stats::periodogram::Periodogram;

/// Fig 1: the complete two-hour time series (downsampled for plotting).
pub fn fig1(ctx: &Ctx) {
    banner("Fig 1 — full time series");
    let series = ctx.trace.frame_series();
    let ds = downsample(&series, 2000);
    let rows: Vec<Vec<f64>> = ds.iter().enumerate().map(|(i, &v)| vec![i as f64, v]).collect();
    ctx.write_csv("fig1_timeseries.csv", "block,bytes_per_frame", &rows);

    // Landmarks: opening plateau, three central peaks, late plateau.
    let n = series.len();
    let mean: f64 = series.iter().sum::<f64>() / n as f64;
    let opening: f64 = series[..1000.min(n)].iter().sum::<f64>() / 1000.0f64.min(n as f64);
    let mid = &series[n * 2 / 5..n * 3 / 5];
    let mid_peak = mid.iter().cloned().fold(0.0f64, f64::max);
    let global_peak = series.iter().cloned().fold(0.0f64, f64::max);
    compare(
        "opening text sequence (42 s)",
        "wide high plateau",
        &format!("opening mean = {:.2}x movie mean", opening / mean),
    );
    compare(
        "three special-effects peaks near centre",
        "highest peaks of the movie",
        &format!("central-fifth peak = {:.0} bytes (global max {:.0})", mid_peak, global_peak),
    );
}

/// Fig 2: low-frequency content via a 20 000-frame moving average.
pub fn fig2(ctx: &Ctx) {
    banner("Fig 2 — low-frequency content (moving average, window 20 000 frames)");
    let series = ctx.trace.frame_series();
    let ma = moving_average(&series, 20_000.min(series.len() / 2));
    let ds = downsample(&ma, 1000);
    let rows: Vec<Vec<f64>> = ds.iter().enumerate().map(|(i, &v)| vec![i as f64, v]).collect();
    ctx.write_csv("fig2_moving_average.csv", "block,ma_bytes_per_frame", &rows);
    let lo = ma.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = ma.iter().cloned().fold(0.0f64, f64::max);
    compare(
        "14-minute-scale modulation",
        "strong (story follows arc)",
        &format!(
            "MA range {:.0}..{:.0} = {:.0}% of the mean",
            lo,
            hi,
            100.0 * (hi - lo) * series.len() as f64 / series.iter().sum::<f64>()
        ),
    );
    println!("strong low-frequency content is the visible signature of LRD (paper §2).");
}

/// Fig 7: autocorrelation to lag 10 000 — exponential at first, then
/// hyperbolic (the LRD signature).
pub fn fig7(ctx: &Ctx) {
    banner("Fig 7 — autocorrelation function, lags 0..10 000");
    let series = ctx.trace.frame_series();
    let max_lag = 10_000.min(series.len() / 4);
    let acf = autocorrelation(&series, max_lag);
    let rows: Vec<Vec<f64>> = (0..=max_lag).step_by(10).map(|k| vec![k as f64, acf[k]]).collect();
    ctx.write_csv("fig7_acf.csv", "lag,autocorrelation", &rows);

    let rho = exponential_fit(&acf, 100);
    println!("exponential fit over lags 1..100: rho = {rho:.4}");
    println!("{:>8} {:>12} {:>14}", "lag", "r(lag)", "rho^lag");
    let mut breakdown = None;
    for &k in &[50usize, 100, 300, 600, 1200, 3000, 6000, 10_000] {
        if k > max_lag {
            break;
        }
        let fit = rho.powi(k as i32);
        println!("{k:>8} {:>12.4} {:>14.3e}", acf[k], fit);
        if breakdown.is_none() && acf[k] > 5.0 * fit && acf[k] > 0.02 {
            breakdown = Some(k);
        }
    }
    compare(
        "exponential fit validity",
        "only up to ~100-300 lags",
        &format!(
            "data exceeds 5x the exponential fit from lag ~{}",
            breakdown.map_or("(none)".into(), |k| k.to_string())
        ),
    );
}

/// Fig 8: periodogram on log-linear axes — `w^-alpha` at low frequency.
pub fn fig8(ctx: &Ctx) {
    banner("Fig 8 — periodogram (power spectral density)");
    let series = ctx.trace.frame_series();
    let pg = Periodogram::compute(&series);
    // Log-bin the ordinates for a plottable CSV.
    let mut rows = Vec::new();
    let mut k = 1usize;
    while k < pg.len() {
        let k2 = (k as f64 * 1.3).ceil() as usize;
        let hi = k2.min(pg.len());
        let p: f64 = pg.power()[k - 1..hi].iter().sum::<f64>() / (hi - (k - 1)) as f64;
        let w: f64 = pg.freqs()[(k - 1 + hi) / 2];
        rows.push(vec![w, p]);
        k = k2 + 1;
    }
    ctx.write_csv("fig8_periodogram.csv", "omega,power", &rows);

    let fit = pg.low_freq_slope(0.02);
    compare(
        "low-frequency behaviour",
        "grows like w^-alpha as w->0 (LRD)",
        &format!(
            "I(w) ~ w^{:.2} over the lowest 2% of frequencies (R^2 = {:.2})",
            fit.slope, fit.r_squared
        ),
    );
    println!("implied H = (1 + alpha)/2 = {:.2}", (1.0 - fit.slope) / 2.0);
}

/// Fig 9: mean-rate estimates from growing prefixes with (misleading)
/// i.i.d. confidence intervals, plus the LRD-corrected ones.
pub fn fig9(ctx: &Ctx) {
    banner("Fig 9 — mean estimation from partial observations, 95% CIs");
    let series = ctx.trace.frame_series();
    let n = series.len();
    let final_mean = series.iter().sum::<f64>() / n as f64;
    let ns: Vec<usize> = [1_000usize, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 171_000]
        .into_iter()
        .filter(|&k| k <= n)
        .collect();
    let cis = prefix_mean_cis(&series, &ns, 0.95, 0.8);

    let mut rows = Vec::new();
    let mut iid_misses = 0usize;
    let mut lrd_misses = 0usize;
    println!(
        "{:>8} {:>10} {:>22} {:>6} {:>26} {:>6}",
        "n", "mean", "iid 95% CI", "hit?", "LRD-corrected CI (H=0.8)", "hit?"
    );
    for (k, iid, lrd) in &cis {
        let hit_iid = iid.contains(final_mean);
        let hit_lrd = lrd.contains(final_mean);
        iid_misses += usize::from(!hit_iid);
        lrd_misses += usize::from(!hit_lrd);
        println!(
            "{k:>8} {:>10.0} [{:>9.0}, {:>9.0}] {:>6} [{:>11.0}, {:>11.0}] {:>6}",
            iid.mean,
            iid.lo,
            iid.hi,
            if hit_iid { "yes" } else { "NO" },
            lrd.lo,
            lrd.hi,
            if hit_lrd { "yes" } else { "NO" },
        );
        rows.push(vec![*k as f64, iid.mean, iid.lo, iid.hi, lrd.lo, lrd.hi]);
    }
    ctx.write_csv("fig9_mean_cis.csv", "n,prefix_mean,iid_lo,iid_hi,lrd_lo,lrd_hi", &rows);
    compare(
        "conventional (iid) CI coverage of the final mean",
        "fails for most n",
        &format!("{iid_misses}/{} prefixes missed", cis.len()),
    );
    compare(
        "LRD-corrected CI coverage",
        "\"will disappear when taking LRD into account\"",
        &format!("{lrd_misses}/{} prefixes missed", cis.len()),
    );
}

/// Fig 10: the aggregated processes m = 100, 500, 1000 retain significant
/// correlations and look alike — the self-similarity demonstration.
pub fn fig10(ctx: &Ctx) {
    banner("Fig 10 — self-similarity: aggregated series m = 100, 500, 1000");
    let series = ctx.trace.frame_series();
    let mut rows = Vec::new();
    println!("{:>6} {:>8} {:>10} {:>10} {:>14}", "m", "points", "r(1)", "r(5)", "CoV of X^(m)");
    for &m in &[100usize, 500, 1000] {
        let agg = aggregate(&series, m);
        if agg.len() < 32 {
            println!("{m:>6}   (series too short)");
            continue;
        }
        let r = autocorrelation(&agg, 5.min(agg.len() - 1));
        let mean = agg.iter().sum::<f64>() / agg.len() as f64;
        let sd = (agg.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / agg.len() as f64).sqrt();
        println!(
            "{m:>6} {:>8} {:>10.3} {:>10.3} {:>14.3}",
            agg.len(),
            r[1],
            r.get(5).copied().unwrap_or(f64::NAN),
            sd / mean
        );
        for (i, &v) in agg.iter().take(400).enumerate() {
            rows.push(vec![m as f64, i as f64, v]);
        }
    }
    ctx.write_csv("fig10_aggregated_series.csv", "m,index,mean_bytes_per_frame", &rows);
    compare(
        "aggregated-series correlations",
        "significant at every m (SRD would whiten)",
        "r(1) stays large across m = 100..1000",
    );
}

/// Fig 11: the variance-time plot.
pub fn fig11(ctx: &Ctx) {
    banner("Fig 11 — variance-time plot");
    let series = ctx.trace.frame_series();
    let vt = variance_time(&series, &VtOptions { fit_min_m: 200, ..VtOptions::default() });
    let rows: Vec<Vec<f64>> = vt
        .block_sizes
        .iter()
        .zip(&vt.normalized_variance)
        .map(|(&m, &v)| vec![m as f64, v])
        .collect();
    ctx.write_csv("fig11_variance_time.csv", "m,normalized_variance", &rows);
    compare("slope beta", "~ -0.44 (H = 0.78)", &format!("{:.2}", -vt.beta));
    compare("Hurst estimate", "0.78", &format!("{:.2}", vt.hurst));
    println!("reference: an SRD process shows slope -1.0 (the paper's dotted line).");
}

/// Fig 12: the pox diagram of R/S.
pub fn fig12(ctx: &Ctx) {
    banner("Fig 12 — pox diagram of R/S");
    let series = ctx.trace.frame_series();
    let rs = rs_analysis(&series, &RsOptions::default());
    let rows: Vec<Vec<f64>> = rs.points.iter().map(|&(n, v)| vec![n as f64, v]).collect();
    ctx.write_csv("fig12_rs_pox.csv", "lag,rs", &rows);
    compare(
        "least-squares slope (asymptotic H)",
        "~0.83",
        &format!("{:.2} (R^2 of the fit: {:.3})", rs.hurst, rs.fit.r_squared),
    );
    println!(
        "{} pox points over lags 10..{}",
        rs.points.len(),
        rs.points.iter().map(|p| p.0).max().unwrap_or(0)
    );
}
