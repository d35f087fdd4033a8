//! Capacity planning for multiplexed VBR video (§5): how much bandwidth
//! per source does a link need as more sources share it, and how does the
//! buffer/bandwidth tradeoff look?
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use vbr::prelude::*;

fn main() {
    // A 20 000-frame trace keeps this example fast; the repro harness
    // (`repro fig14`/`fig15`) runs the full 171 000 frames.
    let trace = generate_screenplay(&ScreenplayConfig::short(20_000, 9));
    let s = trace.summary_frame();
    let mean_mbps = trace.mean_bandwidth_bps() / 1e6;
    let peak_mbps = s.max * trace.fps() * 8.0 / 1e6;
    println!(
        "single source: mean {mean_mbps:.2} Mb/s, frame-peak {peak_mbps:.2} Mb/s, \
         peak/mean {:.2}",
        s.peak_to_mean
    );

    // Q-C tradeoff for one source (one curve of Fig 14).
    println!("\n== Q-C curve, N = 1, P_l <= 1e-3 ==");
    let sim = MuxSim::new(&trace, 1, 1);
    let grid = [0.0005, 0.001, 0.002, 0.005, 0.02, 0.1];
    let curve = qc_curve(&sim, &grid, LossTarget::Rate(1e-3), LossMetric::Overall, 22);
    println!("{:>12} {:>18}", "T_max [ms]", "C/source [Mb/s]");
    for p in &curve {
        println!("{:>12.2} {:>18.2}", p.t_max_secs * 1e3, p.capacity_per_source * 8.0 / 1e6);
    }
    println!("(note the knee: below ~2 ms the required bandwidth climbs steeply)");

    // Statistical multiplexing gain (Fig 15).
    println!("\n== multiplexing gain @ T_max = 2 ms, P_l <= 1e-3 ==");
    let pts = smg_curve(
        &trace,
        &[1, 2, 5, 10, 20],
        0.002,
        LossTarget::Rate(1e-3),
        LossMetric::Overall,
        20,
        7,
    );
    println!("{:>4} {:>18} {:>18}", "N", "C/source [Mb/s]", "gain realised");
    for p in &pts {
        println!(
            "{:>4} {:>18.2} {:>17.0}%",
            p.n_sources,
            p.capacity_per_source * 8.0 / 1e6,
            p.gain_realized * 100.0
        );
    }
    println!("(the paper: with 5 sources ~72% of the peak-to-mean gain is realised)");

    // Peak clipping (§6's recommendation): clip the most extreme frames at
    // the 99.9th percentile and see the resource saving.
    let p999 = {
        let mut v = trace.frame_series();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[(v.len() as f64 * 0.999) as usize]
    };
    let clipped = trace.clip(p999 as u32);
    let sim_clip = MuxSim::new(&clipped, 1, 1);
    let c_raw = sim.required_capacity(0.002, LossTarget::Zero, LossMetric::Overall, 22);
    let c_clip = sim_clip.required_capacity(0.002, LossTarget::Zero, LossMetric::Overall, 22);
    println!(
        "\n== peak clipping at the 99.9th percentile ==\n\
         zero-loss capacity: raw {:.2} Mb/s -> clipped {:.2} Mb/s ({:.0}% saved)",
        c_raw * 8.0 / 1e6,
        c_clip * 8.0 / 1e6,
        (1.0 - c_clip / c_raw) * 100.0
    );
}
