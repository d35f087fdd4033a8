//! The observability determinism contract: installing the span
//! collector must leave every pipeline output bit-identical —
//! instrumentation is write-only and never branches on collected data.
//!
//! The collector is process-global, so the on/off comparisons serialize
//! on one mutex (the cargo test harness runs these `#[test]`s on
//! threads of a single process).

use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;
use vbr_fgn::DaviesHarte;
use vbr_lrd::robust_hurst;
use vbr_qsim::{FluidQueue, MuxSim};
use vbr_stats::obs;
use vbr_video::{generate_screenplay, ScreenplayConfig};

/// Serializes every test that installs/uninstalls the process-global
/// collector.
fn collector_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap()
}

/// Runs `f` twice — collector off, then installed — and returns both
/// results for bit-comparison.
fn with_and_without_collector<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let _guard = collector_lock();
    obs::uninstall_collector();
    let off = f();
    obs::install_collector(4096);
    let on = f();
    obs::uninstall_collector();
    (off, on)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn collector_leaves_davies_harte_bit_identical(
        h in 0.55f64..0.9,
        n in 64usize..2048,
        seed in 0u64..1000,
    ) {
        let (off, on) = with_and_without_collector(|| {
            DaviesHarte::new(h, 1.0).generate(n, seed)
        });
        prop_assert_eq!(off, on);
    }

    #[test]
    fn collector_leaves_robust_hurst_bit_identical(h in 0.6f64..0.85, seed in 0u64..100) {
        let xs = DaviesHarte::new(h, 1.0).generate(4096, seed);
        let (off, on) = with_and_without_collector(|| {
            let r = robust_hurst(&xs).expect("clean series must estimate");
            let mut sig: Vec<u64> = vec![r.hurst.to_bits(), r.attempts.len() as u64];
            sig.extend(r.estimates.iter().map(|&(_, est)| est.to_bits()));
            sig
        });
        prop_assert_eq!(off, on);
    }

    #[test]
    fn collector_leaves_fluid_queue_bit_identical(seed in 0u64..1000, buffer in 10.0f64..500.0) {
        let arrivals = DaviesHarte::new(0.8, 1.0).generate(2048, seed);
        let arrivals: Vec<f64> = arrivals.iter().map(|g| g.abs() * 100.0).collect();
        let (off, on) = with_and_without_collector(|| {
            let mut q = FluidQueue::new(buffer, 3_000.0);
            let mut loss = 0.0;
            for chunk in arrivals.chunks(256) {
                loss += q.step_block(chunk, 0.001);
            }
            [loss.to_bits(), q.backlog().to_bits(), q.lost().to_bits(), q.served().to_bits()]
        });
        prop_assert_eq!(off, on);
    }

    #[test]
    fn collector_leaves_mux_run_bit_identical(n_sources in 1usize..4, seed in 0u64..50) {
        let trace = generate_screenplay(&ScreenplayConfig::short(1_500, seed));
        let sim = MuxSim::new(&trace, n_sources, seed);
        let cap = sim.mean_rate() * 1.2;
        let (off, on) = with_and_without_collector(|| {
            let l = sim.run(cap, 0.002 * cap);
            (l.p_l.to_bits(), l.p_wes.to_bits())
        });
        prop_assert_eq!(off, on);
    }
}

/// With a collector installed the traced pipeline actually produces
/// spans — the on/off equality above is not vacuous.
#[test]
fn collector_records_pipeline_spans() {
    let _guard = collector_lock();
    obs::install_collector(1024);
    DaviesHarte::new(0.8, 1.0).generate(512, 3);
    let snap = obs::uninstall_collector().expect("collector installed");
    assert!(
        snap.records.iter().any(|r| r.name == "fgn.davies_harte"),
        "traced generation must record its span"
    );
}

/// DESIGN.md §12 as a checked invariant: outside the `obs` facade
/// itself, no library source reads a counter back. Test modules and
/// the `vbr-bench` harness (which reports counters and restores them
/// across checkpoints) are exempt; every figure the library returns
/// must be computed, never recovered from a counter delta.
#[test]
fn library_code_never_reads_counters() {
    const READS: [&str; 3] = ["CounterSnapshot", "counter_value(", "counter_restore("];
    let mut offenders = Vec::new();
    for (path, text) in library_sources() {
        if path.ends_with("stats/src/obs.rs") {
            continue;
        }
        let library = text.split("#[cfg(test)]").next().unwrap_or("");
        for read in READS {
            if library.contains(read) {
                offenders.push(format!("{}: {read}", path.display()));
            }
        }
    }
    assert!(offenders.is_empty(), "library code reads counters: {offenders:?}");
}

/// DESIGN.md §14: the chunk width is the compile-time constant `LANES`,
/// never a per-process decision. No library source outside `vbr-bench`
/// (which records CPU features as bench provenance) may detect CPU
/// features or read a width override.
#[test]
fn library_code_has_no_runtime_width_knob() {
    // The env var name is split so a repo-wide search for it finds no
    // live reference, this check included.
    const KNOBS: [&str; 2] = ["is_x86_feature_detected", concat!("VBR_SIMD", "_WIDTH")];
    let mut offenders = Vec::new();
    for (path, text) in library_sources() {
        for knob in KNOBS {
            if text.contains(knob) {
                offenders.push(format!("{}: {knob}", path.display()));
            }
        }
    }
    assert!(offenders.is_empty(), "library code has a runtime width knob: {offenders:?}");
}

/// Every `.rs` file under `crates/*/src` except `vbr-bench`'s, with its
/// text.
fn library_sources() -> Vec<(std::path::PathBuf, String)> {
    let crates_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut sources = Vec::new();
    let mut stack = Vec::new();
    for entry in std::fs::read_dir(&crates_dir).expect("crates dir") {
        let path = entry.expect("entry").path();
        if path.file_name().is_some_and(|n| n != "bench") {
            stack.push(path.join("src"));
        }
    }
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("readable source");
                sources.push((path, text));
            }
        }
    }
    assert!(sources.len() > 50, "found only {} library sources", sources.len());
    sources
}
