//! `stream`: one long self-similar source, block by block — H = 0.8 fGn
//! (`FgnStream`) → Table 2 Gamma/Pareto marginal (`MarginalTransform`,
//! table mode) → fluid queue (`FluidQueue::step_block`).

use std::time::Instant;

use vbr_fgn::{FgnStream, MarginalTransform, TableMode};
use vbr_qsim::FluidQueue;
use vbr_stats::dist::GammaPareto;
use vbr_stats::obs::Counter;

use crate::harness::{
    figures, median, report_fft, secs, Counts, Ctx, Digest, Workload, SETUP, TIMED,
};

/// Slices generated per rep (the `stream_smoke` length).
pub const SLICES: usize = 1 << 24;
/// fGn window, and the chunk handed from generator to map to queue.
const BLOCK: usize = 1 << 14;
/// Blocks per timed step (2^17 slices). The host's speed flips between
/// two levels every 50–200 ms; a step this short lands in one level or
/// the other, so each step's floor over reps finds the fast level.
const STEP_BLOCKS: usize = 8;
const HURST: f64 = 0.8;
/// Table 2 marginal: μ, σ and tail slope m_T, bytes per slice.
const MU: f64 = 27_791.0;
const SIGMA: f64 = 6_254.0;
const TAIL_SLOPE: f64 = 9.0;
const TABLE_POINTS: usize = 10_000;
/// 24 fps × 30 slices per frame; 20 % capacity headroom over the mean.
const DT: f64 = 1.0 / (24.0 * 30.0);
const CAPACITY_BPS: f64 = MU / DT * 1.2;
const BUFFER_BYTES: f64 = 1e6;

pub struct Stream {
    target: GammaPareto,
    setups: Vec<f64>,
    steps_ms: Vec<Vec<f64>>,
    works: Vec<f64>,
    counts: Counts,
}

impl Stream {
    pub fn new() -> Stream {
        Stream {
            target: GammaPareto::from_params(MU, SIGMA, TAIL_SLOPE),
            setups: Vec::new(),
            steps_ms: Vec::new(),
            works: Vec::new(),
            counts: Counts::new(),
        }
    }
}

impl Workload for Stream {
    fn rep(&mut self, ctx: &mut Ctx, _rep: usize) -> f64 {
        self.counts.start();
        let t = Instant::now();
        ctx.tr.enter(SETUP);
        let seed = ctx.seed;
        let mut src = ctx.tr.span("fgn.stream_new", || FgnStream::new(HURST, 1.0, BLOCK, seed));
        let target = &self.target;
        let xform = ctx.tr.span("fgn.marginal_new", || {
            MarginalTransform::new(target, 0.0, 1.0, TableMode::Table(TABLE_POINTS))
        });
        let mut q = FluidQueue::new(BUFFER_BYTES, CAPACITY_BPS);
        ctx.tr.exit();
        self.setups.push(secs(t));

        ctx.tr.enter(TIMED);
        let mut buf = vec![0.0f64; BLOCK];
        let mut digest = Digest::new();
        let mut total = 0.0f64;
        let mut bad = 0usize;
        let mut work = 0.0;
        let mut steps_ms = Vec::with_capacity(SLICES / (BLOCK * STEP_BLOCKS));
        for _ in 0..SLICES / (BLOCK * STEP_BLOCKS) {
            let mut step = 0.0;
            for _ in 0..STEP_BLOCKS {
                let t = Instant::now();
                ctx.tr.span("fgn.next_block", || src.next_block(&mut buf));
                ctx.tr.span("fgn.map_inplace", || xform.map_inplace(&mut buf));
                ctx.tr.span("qsim.step_block", || q.step_block(&buf, DT));
                step += secs(t);
                ctx.tr.span("bench.check", || {
                    bad += buf.iter().filter(|&&x| !(x.is_finite() && x >= 0.0)).count();
                    total += buf.iter().sum::<f64>();
                    digest.f64s(&buf);
                });
            }
            work += step;
            steps_ms.push(step * 1e3);
        }
        ctx.tr.exit();
        self.counts.stop();

        ctx.check("stream: every slice is finite and >= 0", bad == 0);
        // The sample mean of n LRD slices spreads as σ·n^(H−1); allow five
        // of those around μ.
        let mean = total / SLICES as f64;
        let tol = 5.0 * SIGMA * (SLICES as f64).powf(HURST - 1.0);
        ctx.check(
            &format!("stream: mean slice {mean:.1} within {tol:.1} of {MU}"),
            (mean - MU).abs() <= tol,
        );
        let loss = q.loss_rate();
        ctx.check("stream: loss rate in [0, 1]", (0.0..=1.0).contains(&loss));
        digest.u64(loss.to_bits());
        ctx.rep_digest(digest.value());
        self.steps_ms.push(steps_ms);
        self.works.push(work);
        work
    }

    fn finish(&mut self, ctx: &mut Ctx, reps: usize) {
        let reps_f = reps as f64;
        let slices = SLICES as f64;
        let f = figures(&self.works, &self.steps_ms);
        let (mslices, p50, p90) = (slices / f.work_s / 1e6, f.p50_ms, f.p90_ms);
        ctx.metric("setup_s", median(&self.setups));
        ctx.metric("mslices_s", mslices);
        ctx.metric("step_ms_p50", p50);
        ctx.metric("step_ms_p90", p90);
        ctx.note(format!(
            "stream_mslices_s {mslices:.3} Mslices/s at {SLICES} slices per rep; step of {} \
             slices p50 {p50:.4} ms, p90 {p90:.4} ms (floors of {} steps over {reps} reps)",
            BLOCK * STEP_BLOCKS,
            f.steps
        ));

        let tr = &ctx.tr;
        let per_rep = |name: &str| tr.total(name) / reps_f;
        let per_slice_ns = |name: &str| tr.total(name) * 1e9 / (reps_f * slices);
        let layer = [
            ("fgn.stream_new_s", per_rep("fgn.stream_new")),
            ("fgn.marginal_new_s", per_rep("fgn.marginal_new")),
            ("fgn.next_block_s", per_rep("fgn.next_block")),
            ("fgn.next_block_ns_per_slice", per_slice_ns("fgn.next_block")),
            ("fgn.map_inplace_s", per_rep("fgn.map_inplace")),
            ("fgn.map_ns_per_slice", per_slice_ns("fgn.map_inplace")),
            ("qsim.step_block_s", per_rep("qsim.step_block")),
            ("qsim.step_ns_per_slice", per_slice_ns("qsim.step_block")),
            ("fgn.slices", slices),
            ("fgn.stream_blocks", self.counts.get(Counter::StreamBlocks) / reps_f),
            ("fgn.seam_cross_fades", self.counts.get(Counter::SeamCrossFades) / reps_f),
        ];
        for (name, v) in layer {
            ctx.metric(name, v);
        }
        report_fft(ctx, &self.counts, reps_f);
    }
}
