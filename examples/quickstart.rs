//! Quickstart: the full analyse → model → generate → verify loop in
//! under a minute.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use vbr::prelude::*;

fn main() {
    // 1. Get a VBR video trace. (With real data you'd `Trace::load` a
    //    file; here we synthesise a 20 000-frame movie segment.)
    let trace = generate_screenplay(&ScreenplayConfig::short(20_000, 42));
    let stats = trace.summary_frame();
    println!("== trace ==");
    println!(
        "frames: {}   duration: {:.0} s   mean bandwidth: {:.2} Mb/s",
        trace.frames(),
        trace.duration_secs(),
        trace.mean_bandwidth_bps() / 1e6
    );
    println!(
        "bytes/frame: mean {:.0}, sd {:.0}, peak/mean {:.2}",
        stats.mean, stats.std_dev, stats.peak_to_mean
    );

    // 2. Estimate the four model parameters (μ_Γ, σ_Γ, m_T, H).
    let est = estimate_trace(
        &trace,
        &EstimateOptions { hurst_method: HurstMethod::VarianceTime, ..Default::default() },
    );
    let p = est.params;
    println!("\n== estimated parameters ==");
    println!("mu_gamma    = {:.0} bytes/frame", p.mu_gamma);
    println!("sigma_gamma = {:.0} bytes/frame", p.sigma_gamma);
    println!(
        "tail slope  = {:.2}  (log-log CCDF slope, R² = {:.3})",
        p.tail_slope, est.tail_fit_r2
    );
    println!("Hurst H     = {:.3}", p.hurst);

    // 3. Generate synthetic traffic from the fitted model.
    let model = SourceModel::full(p);
    let synthetic = model.generate_trace(20_000, 24.0, 30, 7);
    let s = synthetic.summary_frame();
    println!("\n== synthetic traffic from the fitted model ==");
    println!(
        "bytes/frame: mean {:.0}, sd {:.0}, peak/mean {:.2}",
        s.mean, s.std_dev, s.peak_to_mean
    );

    // 4. Verify the synthetic traffic is long-range dependent too.
    let vt = variance_time(&synthetic.frame_series(), &VtOptions::default());
    println!("variance-time H of the synthetic traffic: {:.3}", vt.hurst);

    // 5. Size a link for it: capacity needed for one source at
    //    T_max = 2 ms and overall loss ≤ 1e-3.
    let sim = MuxSim::new(&synthetic, 1, 1);
    let c = sim.required_capacity(0.002, LossTarget::Rate(1e-3), LossMetric::Overall, 22);
    println!(
        "\nrequired capacity @ T_max = 2 ms, P_l <= 1e-3: {:.2} Mb/s \
         (mean rate {:.2} Mb/s)",
        c * 8.0 / 1e6,
        sim.mean_rate() * 8.0 / 1e6
    );
}
