//! Smoke tests for the reproduction harness: every cheap experiment runs
//! to completion on a small trace and writes its CSV outputs.

use vbr_bench::{experiments, Ctx};

fn small_ctx(tag: &str) -> Ctx {
    let dir = std::env::temp_dir().join(format!("vbr_repro_smoke_{tag}"));
    // Clean slate so the cache path is exercised both ways.
    let _ = std::fs::remove_dir_all(&dir);
    Ctx::new(6_000, 7, dir, true)
}

#[test]
fn tables_run() {
    let ctx = small_ctx("tables");
    for id in ["table1", "table2", "table3"] {
        assert!(experiments::run(&ctx, id), "{id} unknown");
    }
}

#[test]
fn cheap_figures_run_and_write_csv() {
    let ctx = small_ctx("figs");
    for id in [
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
        "fig12",
    ] {
        assert!(experiments::run(&ctx, id), "{id} unknown");
    }
    // Spot-check a few outputs exist and are non-trivial.
    for f in ["fig1_timeseries.csv", "fig7_acf.csv", "fig11_variance_time.csv"] {
        let path = ctx.out_dir.join(f);
        let meta = std::fs::metadata(&path).unwrap_or_else(|e| {
            panic!("missing {}: {e}", path.display());
        });
        assert!(meta.len() > 100, "{f} suspiciously small");
    }
}

#[test]
fn unknown_id_is_rejected() {
    let ctx = small_ctx("unknown");
    assert!(!experiments::run(&ctx, "fig99"));
}

#[test]
fn trace_cache_is_reused() {
    let dir = std::env::temp_dir().join("vbr_repro_smoke_cache");
    let _ = std::fs::remove_dir_all(&dir);
    let a = Ctx::new(2_000, 3, dir.clone(), true);
    let first = a.trace.clone();
    // Second construction must load the cached file and agree exactly.
    let b = Ctx::new(2_000, 3, dir, true);
    assert_eq!(first, b.trace);
}
