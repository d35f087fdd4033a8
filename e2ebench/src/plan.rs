//! `plan`: the paper's capacity-planning path on a screenplay trace —
//! estimate the model, fit the zoo, then find the capacity each
//! multiplexing level, buffer and loss target needs, trace-driven
//! (`MuxSim::required_capacity`) and model-driven
//! (`required_capacity_model`).

use std::time::Instant;

use vbr_model::{estimate_trace, model_zoo, EstimateOptions};
use vbr_qsim::{required_capacity_model, LossMetric, LossTarget, MuxSim};
use vbr_stats::obs::{Counter, CounterSnapshot};
use vbr_video::{generate_screenplay, ScreenplayConfig, Trace};

use crate::harness::{
    figures, median, min, quantile, secs, Counts, Ctx, Digest, Workload, SETUP, TIMED,
};

/// The paper's trace length (≈ 2 hours at 24 fps).
pub const FRAMES: usize = 171_000;
/// Buffer sizes as maximum delay `T_max = Q / C`, seconds.
const T_MAX: [f64; 2] = [0.01, 0.1];
/// Loss-rate targets; the multiplexed level uses only the first.
const TARGETS: [f64; 2] = [1e-3, 1e-5];
const N_MUX: usize = 5;
/// Bisection probes per capacity point.
const ITERATIONS: usize = 8;
/// Model-driven points: one per zoo family, at frame granularity.
const MODEL_T_MAX: f64 = 0.1;
const MODEL_DT: f64 = 1.0 / 24.0;

pub const GRID: &str =
    "N=1: T_max {0.01, 0.1} s x loss {1e-3, 1e-5}; N=5: T_max {0.01, 0.1} s x loss 1e-3; \
     one model-driven point per zoo family (T_max 0.1 s, loss 1e-3); 8 bisection probes per point";

/// Static span name for a zoo family's model-driven capacity search.
fn model_span(name: &str) -> &'static str {
    match name {
        "farima-gamma-pareto" => "qsim.required_capacity_model.farima-gamma-pareto",
        "mwm" => "qsim.required_capacity_model.mwm",
        "scene-chain" => "qsim.required_capacity_model.scene-chain",
        _ => "qsim.required_capacity_model.other",
    }
}

/// One trace-driven capacity point: total capacity in bytes/s.
struct Point {
    n: usize,
    t_max: f64,
    target: f64,
    capacity: f64,
}

fn capacity(points: &[Point], n: usize, t_max: f64, target: f64) -> f64 {
    points
        .iter()
        .find(|p| p.n == n && p.t_max == t_max && p.target == target)
        .map_or(f64::NAN, |p| p.capacity)
}

pub struct Plan {
    setups: Vec<f64>,
    works: Vec<f64>,
    mux_works: Vec<f64>,
    /// Wall ms of every trace-driven capacity point, over all reps.
    rc_ms: Vec<f64>,
    /// Per rep: wall ms of each capacity point, trace- and model-driven.
    steps_ms: Vec<Vec<f64>>,
    counts: Counts,
    /// Aggregate slices replayed by trace-driven probes (probes ×
    /// lag combinations × trace slices), summed over reps.
    probe_slices: f64,
}

impl Plan {
    pub fn new() -> Plan {
        Plan {
            setups: Vec::new(),
            works: Vec::new(),
            mux_works: Vec::new(),
            rc_ms: Vec::new(),
            steps_ms: Vec::new(),
            counts: Counts::new(),
            probe_slices: 0.0,
        }
    }

    /// The trace-driven Q-C grid at one multiplexing level; returns its
    /// measured seconds.
    fn mux_points(&mut self, ctx: &mut Ctx, trace: &Trace, n: usize, out: &mut Vec<Point>) -> f64 {
        let seed = ctx.seed;
        let t = Instant::now();
        let sim = ctx.tr.span("qsim.muxsim_new", || MuxSim::new(trace, n, seed ^ n as u64));
        let targets = if n == 1 { &TARGETS[..] } else { &TARGETS[..1] };
        for &target in targets {
            for &t_max in &T_MAX {
                let before = CounterSnapshot::capture();
                let capacity = ctx.tr.span_ms("qsim.required_capacity", &mut self.rc_ms, || {
                    let target = LossTarget::Rate(target);
                    sim.required_capacity(t_max, target, LossMetric::Overall, ITERATIONS)
                });
                let probes = CounterSnapshot::capture().delta_of(&before, Counter::QcProbes);
                self.probe_slices +=
                    (probes as usize * sim.combos().len() * trace.slice_bytes().len()) as f64;
                out.push(Point { n, t_max, target, capacity });
            }
        }
        let work = secs(t);
        let (mean, hi) = (sim.mean_rate(), sim.peak_slot_rate().max(sim.mean_rate() * 1.001));
        ctx.checks(|| {
            out.iter()
                .filter(|p| p.n == n)
                .map(|p| {
                    (
                        format!(
                            "plan: capacity {} at N={n} in (mean {mean}, peak {hi}]",
                            p.capacity
                        ),
                        p.capacity > mean && p.capacity <= hi,
                    )
                })
                .collect()
        });
        work
    }
}

impl Workload for Plan {
    fn rep(&mut self, ctx: &mut Ctx, _rep: usize) -> f64 {
        let seed = ctx.seed;
        self.counts.start();
        let t = Instant::now();
        ctx.tr.enter(SETUP);
        let trace = ctx
            .tr
            .span("video.generate", || generate_screenplay(&ScreenplayConfig::short(FRAMES, seed)));
        ctx.tr.exit();
        self.setups.push(secs(t));

        ctx.tr.enter(TIMED);
        let t = Instant::now();
        let checks_before = ctx.check_secs;
        let est = ctx
            .tr
            .span("model.estimate_trace", || estimate_trace(&trace, &EstimateOptions::default()));
        let frames = ctx.tr.span("video.frame_series", || trace.frame_series());
        let mut zoo = ctx.tr.span("model.model_zoo", || model_zoo(&frames, &est.params, seed));

        let mut points = Vec::new();
        let first_point = self.rc_ms.len();
        let mux = self.mux_points(ctx, &trace, 1, &mut points)
            + self.mux_points(ctx, &trace, N_MUX, &mut points);
        self.mux_works.push(mux);

        let mut steps = self.rc_ms[first_point..].to_vec();
        let mut digest = Digest::new();
        for m in zoo.iter_mut() {
            // The search replays the model's path from its current state;
            // sample that path once to bound the answer.
            let snap = m.snapshot(0);
            let (mean, hi) = {
                let t = Instant::now();
                let xs = ctx.tr.span("bench.check", || m.sample_series(FRAMES));
                ctx.check_secs += secs(t);
                let mean = xs.iter().sum::<f64>() / xs.len() as f64 / MODEL_DT;
                let peak = xs.iter().copied().fold(0.0f64, f64::max) / MODEL_DT;
                (mean, peak.max(mean * 1.001))
            };
            ctx.check("plan: model snapshot restores", m.restore(&snap).is_ok());
            let c = ctx.tr.span_ms(model_span(m.name()), &mut steps, || {
                let target = LossTarget::Rate(TARGETS[0]);
                required_capacity_model(
                    m.as_mut(),
                    FRAMES,
                    MODEL_DT,
                    MODEL_T_MAX,
                    target,
                    LossMetric::Overall,
                    ITERATIONS,
                )
            });
            let name = m.name();
            ctx.checks(|| {
                vec![(
                    format!("plan: {name} capacity {c} in (mean {mean}, peak {hi}]"),
                    c > mean * (1.0 - 1e-9) && c <= hi * (1.0 + 1e-9),
                )]
            });
            digest.u64(c.to_bits());
        }
        ctx.checks(|| {
            let c = |n, t_max, target| capacity(&points, n, t_max, target);
            let mut out = Vec::new();
            for (n, targets) in [(1, &TARGETS[..]), (N_MUX, &TARGETS[..1])] {
                for &target in targets {
                    let (short, long) = (c(n, T_MAX[0], target), c(n, T_MAX[1], target));
                    out.push((
                        format!("plan: N={n} loss {target}: {long} at larger T_max <= {short}"),
                        long <= short,
                    ));
                }
            }
            for &t_max in &T_MAX {
                let (loose, strict) = (c(1, t_max, TARGETS[0]), c(1, t_max, TARGETS[1]));
                out.push((
                    format!("plan: T_max {t_max}: stricter loss needs {strict} >= {loose}"),
                    strict >= loose,
                ));
                let (one, per_source) = (loose, c(N_MUX, t_max, TARGETS[0]) / N_MUX as f64);
                out.push((
                    format!("plan: T_max {t_max}: per-source {per_source} at N={N_MUX} <= {one}"),
                    per_source <= one,
                ));
            }
            out
        });
        let work = secs(t) - (ctx.check_secs - checks_before);
        ctx.tr.exit();
        self.counts.stop();

        for p in &points {
            digest.u64(p.capacity.to_bits());
        }
        for v in
            [est.params.mu_gamma, est.params.sigma_gamma, est.params.tail_slope, est.params.hurst]
        {
            digest.u64(v.to_bits());
        }
        ctx.rep_digest(digest.value());
        self.steps_ms.push(steps);
        self.works.push(work);
        work
    }

    fn finish(&mut self, ctx: &mut Ctx, reps: usize) {
        let reps_f = reps as f64;
        let slices = (FRAMES * 30) as f64;
        let f = figures(&self.works, &self.steps_ms);
        let (plan_s, p50, p90) = (f.work_s, f.p50_ms, f.p90_ms);
        ctx.metric("setup_s", median(&self.setups));
        ctx.metric("mslices_s", slices / plan_s / 1e6);
        ctx.metric("step_ms_p50", p50);
        ctx.metric("step_ms_p90", p90);
        ctx.metric("_mux_points_s", min(&self.mux_works));
        ctx.note(format!(
            "plan_s {plan_s:.4} s (floor over {reps} reps) for {FRAMES} frames; grid: {GRID}; \
             point p50 {p50:.3} ms, p90 {p90:.3} ms (floors of {} points)",
            f.steps
        ));

        let tr = &ctx.tr;
        let per_rep = |name: &str| tr.total(name) / reps_f;
        let rc_busy = tr.total("qsim.required_capacity");
        let layer = [
            ("video.generate_s", per_rep("video.generate")),
            ("model.estimate_trace_s", per_rep("model.estimate_trace")),
            ("model.model_zoo_s", per_rep("model.model_zoo")),
            ("qsim.muxsim_new_s", per_rep("qsim.muxsim_new")),
            ("qsim.required_capacity_s", rc_busy / reps_f),
            ("qsim.required_capacity_ms_p50", quantile(&self.rc_ms, 0.5)),
            ("qsim.required_capacity_calls", self.rc_ms.len() as f64 / reps_f),
            ("qsim.mux_runs", self.counts.get(Counter::MuxRuns) / reps_f),
            ("qsim.qc_probes", self.counts.get(Counter::QcProbes) / reps_f),
            ("qsim.probe_slices", self.probe_slices / reps_f),
            (
                "qsim.probe_ns_per_slice",
                if self.probe_slices > 0.0 { rc_busy * 1e9 / self.probe_slices } else { 0.0 },
            ),
            (
                "qsim.required_capacity_model_s.farima-gamma-pareto",
                per_rep("qsim.required_capacity_model.farima-gamma-pareto"),
            ),
            ("qsim.required_capacity_model_s.mwm", per_rep("qsim.required_capacity_model.mwm")),
            (
                "qsim.required_capacity_model_s.scene-chain",
                per_rep("qsim.required_capacity_model.scene-chain"),
            ),
        ];
        for (name, v) in layer {
            ctx.metric(name, v);
        }
    }
}
