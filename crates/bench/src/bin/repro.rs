//! The reproduction harness: one subcommand per paper table/figure.
//!
//! ```sh
//! cargo run --release -p vbr-bench --bin repro -- table2 fig11 fig14
//! cargo run --release -p vbr-bench --bin repro -- all
//! cargo run --release -p vbr-bench --bin repro -- all --quick --frames 40000
//! ```
//!
//! Flags:
//! - `--frames N`  trace length (default 171000, the paper's)
//! - `--seed S`    trace seed (default: the screenplay default)
//! - `--quick`     smaller sweeps / fewer search iterations
//! - `--out DIR`   output directory for CSV series (default `repro_out`)

use std::path::PathBuf;
use std::process::exit;

use vbr_bench::experiments;
use vbr_bench::Ctx;

fn usage() -> ! {
    eprintln!(
        "usage: repro <ids...|all> [--frames N] [--seed S] [--quick] [--out DIR]\n\
         ids: {}",
        experiments::ALL.join(" ")
    );
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut ids: Vec<String> = Vec::new();
    let mut frames = 171_000usize;
    let mut seed = vbr_video::ScreenplayConfig::default().seed;
    let mut quick = false;
    let mut out = PathBuf::from("repro_out");

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--frames" => {
                frames = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()),
            "--quick" => quick = true,
            "--out" => out = PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "all" => ids.extend(experiments::ALL.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => usage(),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        usage();
    }
    for id in &ids {
        if !experiments::ALL.contains(&id.as_str()) {
            eprintln!("unknown experiment id: {id}");
            usage();
        }
    }

    println!(
        "reproduction harness — Garrett & Willinger, SIGCOMM '94\n\
         trace: {frames} frames, seed {seed}{}",
        if quick { ", quick mode" } else { "" }
    );
    let ctx = Ctx::new(frames, seed, out, quick);

    for id in &ids {
        let t0 = std::time::Instant::now();
        experiments::run(&ctx, id);
        eprintln!("[repro] {id} finished in {:.1?}", t0.elapsed());
    }
}
