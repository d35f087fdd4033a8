//! `vbrtrace` — command-line utility for VBR trace files.
//!
//! ```sh
//! vbrtrace gen out.bin --frames 171000 --seed 7   # synthesise a movie trace
//! vbrtrace stats trace.bin                        # Table 2-style summary
//! vbrtrace clip trace.bin out.bin --max 60000     # clip frame peaks
//! vbrtrace csv trace.bin out.csv                  # export frame series
//! vbrtrace segment trace.bin out.bin --start 1000 --frames 2880
//! ```

use std::process::exit;

use vbr_video::{generate_screenplay, ScreenplayConfig, Trace};

fn usage() -> ! {
    eprintln!(
        "usage:\n  vbrtrace gen <out.bin> [--frames N] [--seed S] [--no-events]\n  \
         vbrtrace stats <trace.bin>\n  \
         vbrtrace clip <in.bin> <out.bin> --max <bytes>\n  \
         vbrtrace csv <in.bin> <out.csv>\n  \
         vbrtrace segment <in.bin> <out.bin> --start <frame> --frames <n>"
    );
    exit(2)
}

fn load(path: &str) -> Trace {
    Trace::load(path).unwrap_or_else(|e| {
        eprintln!("cannot load {path}: {e}");
        exit(1)
    })
}

fn save(trace: &Trace, path: &str) {
    trace.save(path).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(1)
    });
    eprintln!("wrote {path} ({} frames)", trace.frames());
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    match cmd {
        "gen" => {
            let out = args.get(1).unwrap_or_else(|| usage());
            let frames: usize = flag(&args, "--frames")
                .map(|v| v.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(171_000);
            if frames == 0 {
                eprintln!("--frames must be positive");
                std::process::exit(2);
            }
            let seed = flag(&args, "--seed")
                .map(|v| v.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(ScreenplayConfig::default().seed);
            let events = !args.iter().any(|a| a == "--no-events");
            let trace = generate_screenplay(&ScreenplayConfig {
                frames,
                seed,
                events,
                ..Default::default()
            });
            save(&trace, out);
        }
        "stats" => {
            let trace = load(args.get(1).unwrap_or_else(|| usage()));
            let f = trace.summary_frame();
            let s = trace.summary_slice();
            println!(
                "frames: {}   slices/frame: {}   fps: {}   duration: {:.1} s",
                trace.frames(),
                trace.slices_per_frame(),
                trace.fps(),
                trace.duration_secs()
            );
            println!("mean bandwidth: {:.3} Mb/s", trace.mean_bandwidth_bps() / 1e6);
            for (name, t) in [("frame", f), ("slice", s)] {
                println!(
                    "{name:>6}: dT={:.3} ms mean={:.1} sd={:.1} CoV={:.3} min={:.0} max={:.0} peak/mean={:.2}",
                    t.delta_t_ms, t.mean, t.std_dev, t.coef_variation, t.min, t.max, t.peak_to_mean
                );
            }
        }
        "clip" => {
            let trace = load(args.get(1).unwrap_or_else(|| usage()));
            let out = args.get(2).unwrap_or_else(|| usage());
            let max: u32 =
                flag(&args, "--max").and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            let clipped = trace.clip(max);
            let removed: i64 = trace
                .slice_bytes()
                .iter()
                .zip(clipped.slice_bytes())
                .map(|(&a, &b)| a as i64 - b as i64)
                .sum();
            eprintln!(
                "clipped {} bytes ({:.4}% of the trace)",
                removed,
                100.0 * removed as f64 / trace.slice_bytes().iter().map(|&b| b as f64).sum::<f64>()
            );
            save(&clipped, out);
        }
        "csv" => {
            let trace = load(args.get(1).unwrap_or_else(|| usage()));
            let out = args.get(2).unwrap_or_else(|| usage());
            let file = std::fs::File::create(out).unwrap_or_else(|e| {
                eprintln!("cannot create {out}: {e}");
                exit(1)
            });
            trace.write_frame_csv(std::io::BufWriter::new(file)).unwrap();
            eprintln!("wrote {out}");
        }
        "segment" => {
            let trace = load(args.get(1).unwrap_or_else(|| usage()));
            let out = args.get(2).unwrap_or_else(|| usage());
            let start: usize =
                flag(&args, "--start").and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            let n: usize =
                flag(&args, "--frames").and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            if start + n > trace.frames() {
                eprintln!("segment {start}+{n} exceeds trace length {}", trace.frames());
                exit(1);
            }
            save(&trace.segment(start, n), out);
        }
        _ => usage(),
    }
}
