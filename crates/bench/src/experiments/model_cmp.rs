//! Figure 16: the engineering test of the source model — Q-C curves of
//! the trace vs the full model vs the two ablations, at `P_l = 0`.

use crate::{banner, compare, Ctx};
use vbr_model::{estimate_trace, EstimateOptions, HurstMethod, SourceModel};
use vbr_qsim::{LossMetric, LossTarget, MuxSim};
use vbr_video::Trace;

/// Fig 16: trace vs fractional-ARIMA/Gaussian vs full model vs i.i.d.
/// Gamma/Pareto.
pub fn fig16(ctx: &Ctx) {
    banner("Fig 16 — trace vs source-model variants (P_l = 0)");
    let est = estimate_trace(
        &ctx.trace,
        &EstimateOptions { hurst_method: HurstMethod::VarianceTime, ..Default::default() },
    );
    println!(
        "fitted parameters: mu = {:.0}, sigma = {:.0}, m_T = {:.1}, H = {:.2}\n",
        est.params.mu_gamma, est.params.sigma_gamma, est.params.tail_slope, est.params.hurst
    );

    let frames = ctx.trace.frames();
    let fps = ctx.trace.fps();
    let spf = ctx.trace.slices_per_frame();
    let gen = |m: &SourceModel, seed: u64| m.generate_trace(frames, fps, spf, seed);

    let variants: Vec<(&str, Trace)> = vec![
        ("trace", ctx.trace.clone()),
        ("full model", gen(&SourceModel::full(est.params), 1601)),
        ("fARIMA Gaussian", gen(&SourceModel::gaussian_marginal(est.params), 1601)),
        ("iid Gamma/Pareto", gen(&SourceModel::iid_gamma_pareto(est.params), 1601)),
    ];

    let grid: Vec<f64> =
        if ctx.quick { vec![0.001, 0.002, 0.01] } else { vec![0.0005, 0.001, 0.002, 0.005, 0.02] };
    let ns: &[usize] = if ctx.quick { &[1, 5] } else { &[1, 2, 5, 20] };
    let iters = ctx.search_iters();

    let mut rows = Vec::new();
    // capacities[variant index] at the 2 ms column, per N, for shape checks.
    let mut at2ms: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for &n in ns {
        println!("N = {n}");
        print!("{:>18}", "T_max [ms] ->");
        for &tm in &grid {
            print!(" {:>9.2}", tm * 1e3);
        }
        println!();
        for (vi, (name, trace)) in variants.iter().enumerate() {
            let sim = MuxSim::new(trace, n, 16 + n as u64);
            print!("{name:>18}");
            for (gi, &tm) in grid.iter().enumerate() {
                let c = sim.required_capacity(tm, LossTarget::Zero, LossMetric::Overall, iters)
                    / n as f64;
                print!(" {:>8.2}M", c * 8.0 / 1e6);
                rows.push(vec![n as f64, vi as f64, tm * 1e3, c * 8.0 / 1e6]);
                if (tm * 1e3 - 2.0).abs() < 1e-9 || (ctx.quick && gi == 1) {
                    at2ms[vi].push(c);
                }
            }
            println!();
        }
        println!();
    }
    ctx.write_csv(
        "fig16_model_comparison.csv",
        "n_sources,variant_index,t_max_ms,capacity_per_source_mbps",
        &rows,
    );

    // Shape checks against the paper's reading of Fig 16.
    let mean_err = |vi: usize| -> f64 {
        at2ms[vi].iter().zip(&at2ms[0]).map(|(&m, &t)| (m - t).abs() / t).sum::<f64>()
            / at2ms[0].len() as f64
    };
    let full = mean_err(1);
    let gauss = mean_err(2);
    let iid = mean_err(3);
    compare(
        "full model vs ablations (mean |rel err| vs trace @2 ms)",
        "full model consistently closest",
        &format!(
            "full {:.1}%, Gaussian {:.1}%, iid {:.1}%",
            full * 100.0,
            gauss * 100.0,
            iid * 100.0
        ),
    );
    // Agreement improves with N: relative error at the largest N below
    // that at N = 1 for the full model.
    if at2ms[1].len() >= 2 {
        let first = (at2ms[1][0] - at2ms[0][0]).abs() / at2ms[0][0];
        let last =
            (at2ms[1].last().unwrap() - at2ms[0].last().unwrap()).abs() / at2ms[0].last().unwrap();
        compare(
            "agreement vs N (full model)",
            "improves as N grows",
            &format!("rel err N=min {:.1}% -> N=max {:.1}%", first * 100.0, last * 100.0),
        );
    }
}
