//! `fleet`: a `vbr_serve::Fleet` of mixed-tenant fGn sources advanced
//! slot by slot, with an in-memory snapshot every few slots and a
//! restore at the end of every rep.

use std::time::Instant;

use vbr_serve::{Fleet, FleetConfig, SourceModel, TenantSpec};
use vbr_stats::obs::Counter;

use crate::harness::{
    figures, median, report_fft, secs, Counts, Ctx, Digest, Workload, SETUP, TIMED, VERIFY,
};

pub const SOURCES: usize = 100_000;
const SHARDS: usize = 2;
/// Slices each source renders per slot (the `fleet_bench` block).
const SLOT_LEN: usize = 16;
/// Slots per rep: enough that each rep's p90 has more than ten slots
/// beyond it.
const SLOTS: usize = 128;
const SNAPSHOT_EVERY: usize = 32;
/// A fleet restored from the snapshot taken after `RESUME_SLOT` slots
/// must replay the next `VERIFY_SLOTS` aggregates bit for bit.
const RESUME_SLOT: usize = SLOTS - SNAPSHOT_EVERY;
const VERIFY_SLOTS: usize = 2;
/// Slots over which a 1-shard fleet must match the 2-shard fleet.
const PREFIX_SLOTS: usize = 4;

/// The three `fleet_bench` (H, variance) classes cycled across tenant
/// ids; per-tenant seeds are mixed from the run seed.
fn spec_for(t: u64, seed: u64) -> TenantSpec {
    let (hurst, variance) = match t % 3 {
        0 => (0.8, 1.0),
        1 => (0.7, 1.5),
        _ => (0.55, 0.75),
    };
    TenantSpec {
        tenant: t,
        model: SourceModel::Fgn { hurst },
        variance,
        block: SLOT_LEN,
        overlap: None,
        seed: t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed,
    }
}

fn config(shards: usize) -> FleetConfig {
    FleetConfig::fixed(shards, SLOT_LEN, usize::MAX)
}

fn admit_all(shards: usize, seed: u64) -> Fleet {
    let mut fleet = Fleet::new(config(shards));
    for t in 0..SOURCES as u64 {
        fleet.admit(spec_for(t, seed)).expect("admission of a valid spec");
    }
    fleet
}

pub struct FleetBench {
    setups: Vec<f64>,
    slots_ms: Vec<Vec<f64>>,
    works: Vec<f64>,
    counts: Counts,
    snapshot_bytes: usize,
    loads: Vec<usize>,
    groups: usize,
}

impl FleetBench {
    pub fn new() -> FleetBench {
        FleetBench {
            setups: Vec::new(),
            slots_ms: Vec::new(),
            works: Vec::new(),
            counts: Counts::new(),
            snapshot_bytes: 0,
            loads: Vec::new(),
            groups: 0,
        }
    }
}

impl Workload for FleetBench {
    fn rep(&mut self, ctx: &mut Ctx, rep: usize) -> f64 {
        let seed = ctx.seed;
        self.counts.start();
        let t = Instant::now();
        ctx.tr.enter(SETUP);
        let mut fleet = ctx.tr.span("serve.admit", || admit_all(SHARDS, seed));
        ctx.tr.exit();
        let mut setup = secs(t);
        ctx.check("fleet: every source admitted", fleet.sources() == SOURCES);
        self.loads = fleet.shard_loads();
        self.groups = fleet.shard_groups().iter().sum();

        ctx.tr.enter(TIMED);
        let mut agg = vec![0.0f64; SLOT_LEN];
        let mut digest = Digest::new();
        let mut prefix = Digest::new();
        // The snapshot a restored fleet resumes from, and the aggregates
        // the uninterrupted fleet produced right after it.
        let mut resume_from = Vec::new();
        let mut after_resume = Vec::new();
        let mut work = 0.0;
        let mut slots_ms = Vec::with_capacity(SLOTS);
        for slot in 0..SLOTS {
            let t = Instant::now();
            ctx.tr.span("serve.advance_slot", || fleet.advance_slot(&mut agg));
            let step = secs(t);
            slots_ms.push(step * 1e3);
            work += step;
            ctx.tr.span("bench.check", || {
                digest.f64s(&agg);
                if slot < PREFIX_SLOTS {
                    prefix.f64s(&agg);
                }
                if (RESUME_SLOT..RESUME_SLOT + VERIFY_SLOTS).contains(&slot) {
                    after_resume.extend_from_slice(&agg);
                }
            });
            if (slot + 1) % SNAPSHOT_EVERY == 0 {
                let t = Instant::now();
                let snapshot = ctx.tr.span("serve.snapshot", || fleet.snapshot());
                work += secs(t);
                self.snapshot_bytes = snapshot.len();
                if slot + 1 == RESUME_SLOT {
                    resume_from = snapshot;
                }
            }
        }
        ctx.tr.exit();
        self.counts.stop();
        drop(fleet);

        let t = Instant::now();
        ctx.tr.enter(SETUP);
        let restored =
            ctx.tr.span("serve.restore", || Fleet::restore(config(SHARDS), &resume_from));
        ctx.tr.exit();
        setup += secs(t);
        self.setups.push(setup);

        ctx.tr.enter(VERIFY);
        match restored {
            Ok(mut restored) => {
                let mut resumed = Vec::new();
                for _ in 0..VERIFY_SLOTS {
                    ctx.tr.span("serve.advance_slot", || restored.advance_slot(&mut agg));
                    resumed.extend_from_slice(&agg);
                }
                let same =
                    resumed.iter().zip(&after_resume).all(|(x, y)| x.to_bits() == y.to_bits());
                ctx.check(
                    "fleet: snapshot -> restore -> advance equals the uninterrupted fleet",
                    same && resumed.len() == after_resume.len(),
                );
            }
            Err(e) => ctx.check(&format!("fleet: restore of its own snapshot ({e})"), false),
        }
        if rep == 0 {
            let mut one = ctx.tr.span("serve.admit", || admit_all(1, seed));
            let mut d = Digest::new();
            for _ in 0..PREFIX_SLOTS {
                ctx.tr.span("serve.advance_slot", || one.advance_slot(&mut agg));
                d.f64s(&agg);
            }
            ctx.check(
                "fleet: 1-shard digest equals the 2-shard digest over the prefix",
                d.value() == prefix.value(),
            );
        }
        ctx.tr.exit();

        ctx.rep_digest(digest.value());
        self.slots_ms.push(slots_ms);
        self.works.push(work);
        work
    }

    fn finish(&mut self, ctx: &mut Ctx, reps: usize) {
        let reps_f = reps as f64;
        let source_slots = (SOURCES * SLOTS) as f64;
        let f = figures(&self.works, &self.slots_ms);
        let mslices = source_slots * SLOT_LEN as f64 / f.work_s / 1e6;
        let (p50, p90) = (f.p50_ms, f.p90_ms);
        ctx.metric("setup_s", median(&self.setups));
        ctx.metric("mslices_s", mslices);
        ctx.metric("step_ms_p50", p50);
        ctx.metric("step_ms_p90", p90);
        ctx.note(format!(
            "fleet_msource_slots_s {:.4} Msource-slots/s at {SOURCES} sources x {SLOTS} slots \
             per rep, {SHARDS} shards (floor over {reps} reps)",
            mslices / SLOT_LEN as f64
        ));
        for (name, v) in [("slot_ms_p50", p50), ("slot_ms_p90", p90)] {
            ctx.note(format!("{name} {v:.3} ms (floors of {} slots over {reps} reps)", f.steps));
        }

        let max_load = self.loads.iter().copied().max().unwrap_or(0) as f64;
        let mean_load = self.loads.iter().sum::<usize>() as f64 / self.loads.len().max(1) as f64;
        let tr = &ctx.tr;
        let blocks = self.counts.get(Counter::StreamBlocks) / reps_f;
        let layer = [
            ("serve.advance_slot_s", tr.total_under("serve.advance_slot", TIMED) / reps_f),
            ("serve.slots", SLOTS as f64),
            ("serve.source_slots", source_slots),
            ("serve.shard_load_max", max_load),
            ("serve.shard_load_mean", mean_load),
            ("serve.shard_load_max_over_mean", max_load / mean_load),
            ("fgn.stream_blocks", blocks),
            ("fgn.stream_blocks_per_source_slot", blocks / source_slots),
            ("serve.plan_cache_contention", self.counts.get(Counter::PlanCacheContention) / reps_f),
            ("serve.snapshot_s", tr.total("serve.snapshot") / reps_f),
            ("serve.snapshots", (SLOTS / SNAPSHOT_EVERY) as f64),
            ("serve.snapshot_mib", self.snapshot_bytes as f64 / (1024.0 * 1024.0)),
            ("serve.admit_s", tr.total_under("serve.admit", SETUP) / reps_f),
            ("serve.groups", self.groups as f64),
            ("serve.restore_s", tr.total("serve.restore") / reps_f),
        ];
        for (name, v) in layer {
            ctx.metric(name, v);
        }
        report_fft(ctx, &self.counts, reps_f);
    }
}
