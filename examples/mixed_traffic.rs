//! Heterogeneous traffic on one link: movies, videoconferences and
//! sports feeds multiplexed together, with admission control — the
//! operational setting the paper's conclusions point at ("more movies of
//! the same and different types").
//!
//! ```sh
//! cargo run --release --example mixed_traffic
//! ```

use vbr::prelude::*;
use vbr::qsim::{admit_by_simulation, aggregate_arrivals_multi, FluidQueue};
use vbr::video::Genre;

fn main() {
    let frames = 12_000;
    let movie = generate_screenplay(&ScreenplayConfig::genre(Genre::ActionMovie, frames, 1));
    let conf = generate_screenplay(&ScreenplayConfig::genre(Genre::Videoconference, frames, 2));
    let sports = generate_screenplay(&ScreenplayConfig::genre(Genre::Sports, frames, 3));

    println!("per-source statistics:");
    println!("{:<16} {:>12} {:>8} {:>10}", "genre", "mean [Mb/s]", "CoV", "peak/mean");
    for (name, t) in [("action movie", &movie), ("conference", &conf), ("sports", &sports)] {
        let s = t.summary_frame();
        println!(
            "{:<16} {:>12.2} {:>8.2} {:>10.2}",
            name,
            t.mean_bandwidth_bps() / 1e6,
            s.coef_variation,
            s.peak_to_mean
        );
    }

    // Mix 2 movies + 4 conferences + 1 sports feed on one link.
    let sources: Vec<&Trace> = vec![&movie, &movie, &conf, &conf, &conf, &conf, &sports];
    let offsets = vec![0usize, 3_000, 500, 2_000, 4_500, 7_000, 1_500];
    let agg = aggregate_arrivals_multi(&sources, &offsets);
    let dt = movie.slice_duration();
    let mean_bps: f64 = agg.iter().sum::<f64>() / (agg.len() as f64 * dt);
    println!("\nmix of {} sources: aggregate mean {:.2} Mb/s", sources.len(), mean_bps * 8.0 / 1e6);

    // Loss on the mixed link at several capacities.
    println!("{:>18} {:>12}", "capacity [Mb/s]", "P_l");
    for factor in [1.05, 1.15, 1.3, 1.5] {
        let cap = mean_bps * factor;
        let mut q = FluidQueue::new(0.002 * cap, cap);
        for &a in &agg {
            q.step(a, dt);
        }
        println!("{:>18.2} {:>12.2e}", cap * 8.0 / 1e6, q.loss_rate());
    }

    // Admission control per genre on a fixed 45 Mb/s (DS3-class) link.
    let link = 45e6 / 8.0; // bytes/s
    println!("\nadmission onto a 45 Mb/s link @ T_max = 2 ms, P_l <= 1e-3:");
    println!("{:<16} {:>10} {:>14}", "genre", "admitted", "utilisation");
    for (name, t) in [("action movie", &movie), ("conference", &conf), ("sports", &sports)] {
        let r =
            admit_by_simulation(t, link, 0.002, LossTarget::Rate(1e-3), LossMetric::Overall, 64, 9);
        println!("{:<16} {:>10} {:>13.0}%", name, r.max_sources, r.utilization * 100.0);
    }
    println!("\nsmoother, lower-rate conferences pack far more densely than movies —");
    println!("burstiness (and H) set the admissible load, not just the mean rate.");
}
