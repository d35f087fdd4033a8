//! Transport alternatives for VBR video, quantified: CBR smoothing
//! (the paper's introduction), plain VBR multiplexing (§5), layered
//! coding with priority queueing (§5.3) and coder-side peak clipping
//! (§6) — all on the same synthetic movie.
//!
//! ```sh
//! cargo run --release --example transport_tradeoffs
//! ```

use vbr::prelude::*;
use vbr::qsim::{min_cbr_rate, simulate_layered};

fn main() {
    let trace = generate_screenplay(&ScreenplayConfig::short(20_000, 77));
    let mean_mbps = trace.mean_bandwidth_bps() / 1e6;
    println!(
        "movie segment: {} frames, mean {:.2} Mb/s, peak/mean {:.2}\n",
        trace.frames(),
        mean_mbps,
        trace.summary_frame().peak_to_mean
    );

    // 1. CBR transport: constant rate, delay traded for bandwidth.
    println!("== CBR smoothing (intro: 'delay, wasted bandwidth') ==");
    println!("{:>14} {:>12} {:>13}", "max delay", "rate [Mb/s]", "utilisation");
    for delay in [5.0, 1.0, 0.25, 0.05] {
        let r = min_cbr_rate(&trace, delay, 30);
        println!(
            "{:>11.2} s {:>12.2} {:>12.0}%",
            delay,
            r.rate_bps * 8.0 / 1e6,
            r.utilization * 100.0
        );
    }

    // 2. VBR statistical multiplexing at interactive delay.
    println!("\n== VBR multiplexing @ T_max = 2 ms, P_l <= 1e-4 ==");
    for n in [1usize, 10] {
        let sim = MuxSim::new(&trace, n, 3);
        let c = sim.required_capacity(0.002, LossTarget::Rate(1e-4), LossMetric::Overall, 20)
            / n as f64;
        println!(
            "N = {n:>2}: {:.2} Mb/s per source ({:.0}% utilisation)",
            c * 8.0 / 1e6,
            100.0 * mean_mbps / (c * 8.0 / 1e6)
        );
    }
    println!("VBR at N = 10 beats even 5-second-delay CBR on bandwidth, at 2 ms delay.");

    // 3. Layered coding + priority queueing: run the link *under* the
    //    total load and keep the base layer clean.
    println!("\n== layered coding with priority queueing (§5.3) ==");
    let capacity = trace.mean_bandwidth_bps() / 8.0 * 0.97;
    println!("link at 97% of the mean rate ({:.2} Mb/s):", capacity * 8.0 / 1e6);
    println!("{:>14} {:>12} {:>14} {:>12}", "base frac", "base loss", "enh. loss", "unlayered");
    for base in [0.5, 0.7, 0.85] {
        let r = simulate_layered(&trace, base, capacity, 200_000.0);
        println!(
            "{:>14.2} {:>12.2e} {:>14.2e} {:>12.2e}",
            base, r.base_loss, r.enhancement_loss, r.unlayered_loss
        );
    }
    println!("the base layer rides through congestion that would corrupt 100% of an");
    println!("unlayered stream's frames at random.");

    // 4. Peak clipping at the coder (§6).
    println!("\n== coder-side peak clipping (§6) ==");
    let p999 = {
        let mut v = trace.frame_series();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[(v.len() as f64 * 0.999) as usize] as u32
    };
    let clipped = trace.clip(p999);
    for (name, t) in [("raw", &trace), ("clipped @99.9pct", &clipped)] {
        let sim = MuxSim::new(t, 1, 5);
        let c = sim.required_capacity(0.002, LossTarget::Zero, LossMetric::Overall, 20);
        println!(
            "{name:<18} zero-loss capacity {:.2} Mb/s (peak/mean {:.2})",
            c * 8.0 / 1e6,
            t.summary_frame().peak_to_mean
        );
    }
    println!("\"It will be much better trade-off for the coder to optimize its use of");
    println!("the available bandwidth … than for the network to accommodate such");
    println!("exceptional bursts.\"");
}
