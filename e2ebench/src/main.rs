//! End-to-end benchmark of the VBR workspace.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release -q --manifest-path e2ebench/Cargo.toml -- \
//!     --workload stream|fleet|plan|analyze --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run spawns the workload in a child process of its own with
//! `VBR_THREADS` pinned to the host's core count, so peak RSS and the
//! process-global obs counters belong to that workload alone. With
//! `--trace 0` the last stdout line is a JSON object with the end-to-end
//! metrics; with `--trace 1` it holds the per-layer metrics of a traced
//! child, set against an untraced child (tracing overhead) and, for
//! `fleet` and `plan`, a single-thread child (scaling efficiency). The
//! traced child writes its spans to `e2ebench/traces/`. See README.md
//! in this directory for the metrics and what each one should move.

mod analyze;
mod fleet;
mod harness;
mod plan;
mod stream;

use std::collections::HashMap;
use std::process::{Command, ExitCode, Stdio};

use harness::{drive, Ctx, Workload};

const WORKLOADS: [&str; 4] = ["stream", "fleet", "plan", "analyze"];

/// End-to-end metrics, reported by every workload (`--trace 0`).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("pass_ratio", "ratio"),
    ("mslices_s", "Mslices/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
];

/// Layers, named by the module prefix of their spans.
const LAYERS: [&str; 7] = ["fgn", "qsim", "serve", "lrd", "model", "video", "bench"];

/// Per-layer metrics (`--trace 1`). Every workload reports all of them;
/// a metric of a layer call the workload never makes reads 0.
const PER_LAYER: [(&str, &str); 85] = [
    ("bench.reps", "count"),
    ("bench.threads", "count"),
    ("bench.timed_s", "s"),
    ("bench.check_s", "s"),
    ("bench.work_s", "s"),
    ("trace.work_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("fgn.self_s", "s"),
    ("fgn.share", "ratio"),
    ("qsim.self_s", "s"),
    ("qsim.share", "ratio"),
    ("serve.self_s", "s"),
    ("serve.share", "ratio"),
    ("lrd.self_s", "s"),
    ("lrd.share", "ratio"),
    ("model.self_s", "s"),
    ("model.share", "ratio"),
    ("video.self_s", "s"),
    ("video.share", "ratio"),
    ("bench.self_s", "s"),
    ("bench.share", "ratio"),
    ("fft.plan_hits", "count"),
    ("fft.plan_lookups", "count"),
    ("fft.plan_hit_ratio", "ratio"),
    // stream
    ("fgn.stream_new_s", "s"),
    ("fgn.marginal_new_s", "s"),
    ("fgn.next_block_s", "s"),
    ("fgn.next_block_ns_per_slice", "ns/slice"),
    ("fgn.map_inplace_s", "s"),
    ("fgn.map_ns_per_slice", "ns/slice"),
    ("qsim.step_block_s", "s"),
    ("qsim.step_ns_per_slice", "ns/slice"),
    ("fgn.slices", "count"),
    ("fgn.stream_blocks", "count"),
    ("fgn.seam_cross_fades", "count"),
    // fleet
    ("serve.advance_slot_s", "s"),
    ("serve.slots", "count"),
    ("serve.source_slots", "count"),
    ("serve.shard_load_max", "count"),
    ("serve.shard_load_mean", "count"),
    ("serve.shard_load_max_over_mean", "ratio"),
    ("fgn.stream_blocks_per_source_slot", "ratio"),
    ("serve.plan_cache_contention", "count"),
    ("serve.snapshot_s", "s"),
    ("serve.snapshots", "count"),
    ("serve.snapshot_mib", "MiB"),
    ("serve.admit_s", "s"),
    ("serve.groups", "count"),
    ("serve.restore_s", "s"),
    ("serve.slot_ms_1t", "ms"),
    ("serve.slot_ms_nt", "ms"),
    ("serve.scaling_eff", "ratio"),
    // plan
    ("video.generate_s", "s"),
    ("model.estimate_trace_s", "s"),
    ("model.model_zoo_s", "s"),
    ("qsim.muxsim_new_s", "s"),
    ("qsim.required_capacity_s", "s"),
    ("qsim.required_capacity_ms_p50", "ms"),
    ("qsim.required_capacity_calls", "count"),
    ("qsim.mux_runs", "count"),
    ("qsim.qc_probes", "count"),
    ("qsim.probe_slices", "count"),
    ("qsim.probe_ns_per_slice", "ns/slice"),
    ("qsim.required_capacity_model_s.farima-gamma-pareto", "s"),
    ("qsim.required_capacity_model_s.mwm", "s"),
    ("qsim.required_capacity_model_s.scene-chain", "s"),
    ("qsim.mux_points_s_1t", "s"),
    ("qsim.mux_points_s_nt", "s"),
    ("qsim.scaling_eff", "ratio"),
    // analyze
    ("lrd.whittle_s", "s"),
    ("lrd.local_whittle_s", "s"),
    ("lrd.wavelet_s", "s"),
    ("lrd.rs_s", "s"),
    ("lrd.variance_time_s", "s"),
    ("lrd.periodogram_s", "s"),
    ("lrd.robust_hurst_s", "s"),
    ("lrd.whittle_iterations", "count"),
    ("lrd.refusals", "count"),
    ("lrd.panel_estimators", "count"),
    ("model.estimate_series_s", "s"),
    ("model.estimator_fallbacks", "count"),
    ("video.slice_series_s", "s"),
    ("trace.spans", "count"),
    ("bench.verify_s", "s"),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2ebench --workload stream|fleet|plan|analyze --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child-process flags, set by the parent only.
    child: bool,
    max_reps: usize,
}

fn parse_args() -> Option<Args> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        child: false,
        max_reps: usize::MAX,
    };
    let mut it = std::env::args().skip(1);
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--child" => a.child = true,
            "--workload" => a.workload = it.next()?,
            "--seed" => seed = Some(it.next()?.parse().ok()?),
            "--seconds" => seconds = Some(it.next()?.parse::<f64>().ok()?),
            "--trace" => {
                trace = Some(match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            "--max-reps" => a.max_reps = it.next()?.parse().ok()?,
            _ => return None,
        }
    }
    a.seed = seed?;
    a.seconds = seconds.filter(|s| *s >= 0.0)?;
    a.trace = trace?;
    WORKLOADS.contains(&a.workload.as_str()).then_some(a)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    if args.child {
        child(&args)
    } else {
        parent(&args)
    }
}

// ---------------------------------------------------------------------------
// Child: runs one workload and prints `metric`, `note`, `checks` and
// `digest` lines for the parent.
// ---------------------------------------------------------------------------

fn child(args: &Args) -> ExitCode {
    let mut ctx = Ctx::new(args.seed, args.trace);
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "stream" => Box::new(stream::Stream::new()),
        "fleet" => Box::new(fleet::FleetBench::new()),
        "plan" => Box::new(plan::Plan::new()),
        _ => Box::new(analyze::Analyze::new()),
    };
    let works = drive(w.as_mut(), &mut ctx, args.seconds, args.max_reps);
    if works.is_empty() {
        eprintln!("e2ebench: {} produced no completed rep", args.workload);
        return ExitCode::FAILURE;
    }
    let reps = works.len() as f64;
    ctx.metric("_work_s", harness::min(&works));
    let rss_kib = vbr_stats::obs::peak_rss_kib().unwrap_or(0);
    ctx.check("peak RSS is readable from /proc/self/status", rss_kib > 0);
    ctx.metric("peak_rss_mib", rss_kib as f64 / 1024.0);

    if args.trace {
        let (layers, timed) = ctx.tr.timed_self_times();
        let mut covered = 0.0;
        for layer in LAYERS {
            let own = layers.iter().find(|(l, _)| *l == layer).map_or(0.0, |(_, t)| *t);
            covered += own;
            ctx.metric(&format!("{layer}.self_s"), own / reps);
            ctx.metric(&format!("{layer}.share"), own / timed);
        }
        let coverage = covered / timed;
        ctx.check(
            &format!("spans cover {coverage:.4} >= 0.95 of the timed phase"),
            coverage >= 0.95,
        );
        let metrics = [
            ("trace.coverage", coverage),
            ("bench.reps", reps),
            ("bench.timed_s", timed / reps),
            ("bench.check_s", ctx.tr.total("bench.check") / reps),
            ("bench.verify_s", ctx.tr.total(harness::VERIFY) / reps),
            ("video.slice_series_s", ctx.tr.total("video.slice_series") / reps),
            ("trace.spans", ctx.tr.spans.len() as f64),
        ];
        for (name, v) in metrics {
            ctx.metric(name, v);
        }
        let dir = std::path::Path::new("e2ebench").join("traces");
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        let threads = vbr_stats::par::num_threads();
        let json = ctx.tr.to_json(&args.workload, args.seed, threads);
        let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => eprintln!("e2ebench: spans written to {}", path.display()),
            Err(e) => ctx.check(&format!("write spans to {} ({e})", path.display()), false),
        }
    }

    for line in &ctx.notes {
        println!("note\t{line}");
    }
    for (name, v) in &ctx.metrics {
        println!("metric\t{name}\t{v}");
    }
    if let Some(d) = ctx.digest() {
        println!("digest\t{d:016x}");
    }
    println!("checks\t{}\t{}", ctx.attempted, ctx.failed);
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Parent: spawns the children, merges what they print, prints the result.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ChildOut {
    metrics: HashMap<String, f64>,
    notes: Vec<String>,
    digest: Option<String>,
    attempted: u64,
    failed: u64,
}

fn spawn(args: &Args, traced: bool, threads: usize, max_reps: usize) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .env("VBR_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if max_reps != usize::MAX {
        cmd.args(["--max-reps", &max_reps.to_string()]);
    }
    let out = cmd.output().map_err(|e| format!("cannot run the workload child: {e}"))?;
    if !out.status.success() {
        return Err(format!("workload child failed: {}", out.status));
    }
    let mut c = ChildOut::default();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["note", text] => c.notes.push(text.to_string()),
            ["metric", name, v] => {
                let v = v.parse().map_err(|_| format!("bad metric line: {line}"))?;
                c.metrics.insert(name.to_string(), v);
            }
            ["digest", d] => c.digest = Some(d.to_string()),
            ["checks", a, f] => {
                c.attempted = a.parse().map_err(|_| format!("bad checks line: {line}"))?;
                c.failed = f.parse().map_err(|_| format!("bad checks line: {line}"))?;
            }
            _ => return Err(format!("unexpected child output: {line}")),
        }
    }
    Ok(c)
}

fn parent(args: &Args) -> ExitCode {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    match run_parent(args, threads) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_parent(args: &Args, threads: usize) -> Result<(), String> {
    let plain = spawn(args, false, threads, usize::MAX)?;
    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    let mut values: Vec<(&str, &str, f64)> = Vec::new();

    if !args.trace {
        for line in &plain.notes {
            println!("{line}");
        }
        for (name, unit) in END_TO_END {
            let v = match name {
                "pass_ratio" => (attempted - failed) as f64 / attempted.max(1) as f64,
                _ => *plain.metrics.get(name).ok_or(format!("child did not report {name}"))?,
            };
            values.push((name, unit, v));
        }
        println!("setup_s {:.4} s; peak_rss_mib {:.1} MiB", values[0].2, values[1].2);
        println!(
            "fail_ratio {} ({failed} failed of {attempted} checks)",
            failed as f64 / attempted.max(1) as f64
        );
    } else {
        let traced = spawn(args, true, threads, usize::MAX)?;
        attempted += traced.attempted;
        failed += traced.failed;
        let mut digests = vec![plain.digest.clone(), traced.digest.clone()];
        let mut m = traced.metrics.clone();
        let work = |c: &ChildOut| c.metrics.get("_work_s").copied().unwrap_or(f64::NAN);
        m.insert("bench.threads".into(), threads as f64);
        m.insert("bench.work_s".into(), work(&plain));
        m.insert("trace.work_s".into(), work(&traced));
        m.insert("trace.overhead".into(), work(&traced) / work(&plain) - 1.0);
        // Single-thread baselines: one rep at VBR_THREADS=1 against the
        // untraced multi-thread child.
        let baseline = match args.workload.as_str() {
            "fleet" => Some(("serve", "step_ms_p50", "slot_ms")),
            "plan" => Some(("qsim", "_mux_points_s", "mux_points_s")),
            _ => None,
        };
        if let Some((layer, key, stem)) = baseline {
            let one = spawn(args, false, 1, 1)?;
            attempted += one.attempted;
            failed += one.failed;
            digests.push(one.digest.clone());
            let t1 = one.metrics.get(key).copied().unwrap_or(f64::NAN);
            let tn = plain.metrics.get(key).copied().unwrap_or(f64::NAN);
            m.insert(format!("{layer}.{stem}_1t"), t1);
            m.insert(format!("{layer}.{stem}_nt"), tn);
            m.insert(format!("{layer}.scaling_eff"), t1 / (threads as f64 * tn));
        }
        attempted += 1;
        if digests.windows(2).any(|w| w[0] != w[1]) {
            failed += 1;
            eprintln!("e2ebench: CHECK FAILED: children disagree on output bits: {digests:?}");
        }
        for line in &plain.notes {
            println!("{line}");
        }
        for (name, unit) in PER_LAYER {
            values.push((name, unit, m.get(name).copied().unwrap_or(0.0)));
        }
    }

    let mut json = String::from("{");
    let correct = failed == 0;
    json.push_str(&format!(
        "\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    ));
    for (i, (name, unit, v)) in values.iter().enumerate() {
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        // An empty f64 sum is -0.0; report it as 0.
        let v = v + 0.0;
        json.push_str(&format!("{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}
