//! What every workload shares: the rep loop, output checks, the in-memory
//! span tracer, counter deltas, a bit digest and order statistics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use vbr_stats::obs::{Counter, CounterSnapshot};

/// Every run measures at least this many reps, so each step's floor and
/// the median set-up always have several samples.
pub const MIN_REPS: usize = 3;

/// Phase spans. Layer spans nest under exactly one of them.
pub const SETUP: &str = "phase.setup";
pub const TIMED: &str = "phase.timed";
pub const VERIFY: &str = "phase.verify";

/// One recorded span. `parent` indexes the enclosing span; `run` is the
/// rep the span belongs to, shared by every span of that rep.
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: usize,
}

/// Bench-side tracer: spans are recorded around each call into a layer,
/// kept in memory and written out when the run ends. When off, `span`
/// is a plain call and nothing is recorded.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: usize,
    stack: Vec<usize>,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), run: 0, stack: Vec::new(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// `span`, also pushing the call's wall time in ms onto `ms` (timed
    /// whether or not tracing is on).
    pub fn span_ms<R>(
        &mut self,
        name: &'static str,
        ms: &mut Vec<f64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let t = Instant::now();
        let r = self.span(name, f);
        ms.push(secs(t) * 1e3);
        r
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(dur).sum()
    }

    /// Summed duration of the spans called `name` directly under a
    /// `phase` span, in seconds.
    pub fn total_under(&self, name: &str, phase: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| self.spans[p].name == phase))
            .map(dur)
            .sum()
    }

    /// Self time (duration minus direct children) per layer, summed over
    /// the spans under a `TIMED` phase, plus the phase total itself.
    pub fn timed_self_times(&self) -> (Vec<(&'static str, f64)>, f64) {
        let mut child_sum = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += dur(s);
            }
        }
        let mut in_timed = vec![false; self.spans.len()];
        let mut layers: Vec<(&'static str, f64)> = Vec::new();
        let mut timed = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            // Parents precede children, so one forward pass propagates.
            in_timed[i] = s.parent.is_some_and(|p| in_timed[p] || self.spans[p].name == TIMED);
            if s.name == TIMED {
                timed += dur(s);
            } else if in_timed[i] {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                let own = dur(s) - child_sum[i];
                match layers.iter_mut().find(|(l, _)| *l == layer) {
                    Some((_, t)) => *t += own,
                    None => layers.push((layer, own)),
                }
            }
        }
        (layers, timed)
    }

    /// The span records as JSON; `parent` is the index of the parent span.
    pub fn to_json(&self, workload: &str, seed: u64, threads: usize) -> String {
        let head =
            format!("\"workload\": \"{workload}\", \"seed\": {seed}, \"threads\": {threads}");
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                    s.name, s.start_ns, s.end_ns, s.run
                )
            })
            .collect();
        format!("{{{head}, \"spans\": [\n{}\n]}}\n", spans.join(",\n"))
    }
}

fn dur(s: &SpanRec) -> f64 {
    (s.end_ns - s.start_ns) as f64 * 1e-9
}

/// Per-run state handed to a workload: its seed, its tracer, the output
/// checks and the metrics it reports.
pub struct Ctx {
    pub seed: u64,
    pub tr: Tracer,
    pub attempted: u64,
    pub failed: u64,
    /// Seconds spent in `checks`, which workloads leave out of their
    /// measured time.
    pub check_secs: f64,
    reference_digest: Option<u64>,
    pub metrics: Vec<(String, f64)>,
    pub notes: Vec<String>,
}

impl Ctx {
    pub fn new(seed: u64, traced: bool) -> Ctx {
        Ctx {
            seed,
            tr: Tracer::new(traced),
            attempted: 0,
            failed: 0,
            check_secs: 0.0,
            reference_digest: None,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("e2ebench: CHECK FAILED: {what}");
        }
    }

    /// Runs output checks inside a `bench.check` span and records them.
    pub fn checks(&mut self, f: impl FnOnce() -> Vec<(String, bool)>) {
        let t = Instant::now();
        let results = self.tr.span("bench.check", f);
        for (what, ok) in results {
            self.check(&what, ok);
        }
        self.check_secs += secs(t);
    }

    /// Every rep rebuilds its inputs from the same seed, so every rep's
    /// output digest must equal the first one's.
    pub fn rep_digest(&mut self, d: u64) {
        match self.reference_digest {
            None => self.reference_digest = Some(d),
            Some(r) => self.check("same seed gives the same output bits on every rep", d == r),
        }
    }

    pub fn digest(&self) -> Option<u64> {
        self.reference_digest
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// A human-readable result line printed before the JSON result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// A workload: `rep` builds its inputs from the seed (set-up), runs the
/// timed phase and checks the outputs; `finish` reports the metrics.
pub trait Workload {
    /// Runs one rep and returns its measured (timed, check-free) seconds.
    fn rep(&mut self, ctx: &mut Ctx, rep: usize) -> f64;
    fn finish(&mut self, ctx: &mut Ctx, reps: usize);
}

/// Runs reps until `seconds` of measured time are spent (at least
/// `MIN_REPS`, at most `max_reps`), never starting a rep that the last
/// rep's length says would overrun. A panicking rep counts as a failed
/// check and ends the run. Returns the per-rep measured seconds.
pub fn drive(w: &mut dyn Workload, ctx: &mut Ctx, seconds: f64, max_reps: usize) -> Vec<f64> {
    let mut works: Vec<f64> = Vec::new();
    while works.len() < max_reps {
        let spent: f64 = works.iter().sum();
        let last = works.last().copied().unwrap_or(0.0);
        if works.len() >= MIN_REPS && spent + last > seconds {
            break;
        }
        ctx.tr.run = works.len();
        let rep = works.len();
        match catch_unwind(AssertUnwindSafe(|| w.rep(ctx, rep))) {
            Ok(work) => works.push(work),
            Err(_) => {
                ctx.check("rep ran without panicking", false);
                while !ctx.tr.stack.is_empty() {
                    ctx.tr.exit();
                }
                break;
            }
        }
    }
    if !works.is_empty() {
        w.finish(ctx, works.len());
    }
    works
}

/// Counter deltas summed over bracketed regions (obs counters are
/// process-global; each workload runs in its own process).
pub struct Counts {
    sums: Vec<u64>,
    open: Option<CounterSnapshot>,
}

impl Counts {
    pub fn new() -> Counts {
        Counts { sums: vec![0; Counter::ALL.len()], open: None }
    }

    pub fn start(&mut self) {
        self.open = Some(CounterSnapshot::capture());
    }

    pub fn stop(&mut self) {
        let before = self.open.take().expect("Counts::stop without start");
        let after = CounterSnapshot::capture();
        for (sum, &c) in self.sums.iter_mut().zip(Counter::ALL.iter()) {
            *sum += after.delta_of(&before, c);
        }
    }

    pub fn get(&self, c: Counter) -> f64 {
        self.sums[c as usize] as f64
    }
}

/// FFT plan-cache hit ratio over set-up and timed phase, with its base
/// per rep.
pub fn report_fft(ctx: &mut Ctx, counts: &Counts, reps: f64) {
    let hits = counts.get(Counter::FftPlanHit);
    let lookups = hits + counts.get(Counter::FftPlanMiss);
    ctx.metric("fft.plan_hits", hits / reps);
    ctx.metric("fft.plan_lookups", lookups / reps);
    ctx.metric("fft.plan_hit_ratio", if lookups > 0.0 { hits / lookups } else { 0.0 });
}

/// Order-sensitive 64-bit digest of output bits.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.u64(x.to_bits());
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Nearest-rank quantile (`q` in (0, 1]) of unsorted samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A run's end-to-end timings, from the floors of its steps.
pub struct Figures {
    /// Floor of the timed phase, in seconds.
    pub work_s: f64,
    /// p50 and p90 of the step floors, in ms.
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// Steps per rep: the samples p50 and p90 are taken over.
    pub steps: usize,
}

/// Every rep runs the same steps in the same order (same seed, same
/// inputs), so each step has one time per rep; its floor is the fastest
/// of them, the program's speed when the shared host let it run. A whole
/// rep's floor needs one rep free of the host's slow episodes throughout;
/// a step's floor needs one rep that is fast at that step. `work_s` sums
/// the step floors and adds the fastest rep's time outside steps.
pub fn figures(works: &[f64], steps_per_rep: &[Vec<f64>]) -> Figures {
    let steps = steps_per_rep.iter().map(Vec::len).min().unwrap_or(0);
    let floors: Vec<f64> = (0..steps)
        .map(|k| steps_per_rep.iter().map(|s| s[k]).fold(f64::INFINITY, f64::min))
        .collect();
    let outside = works
        .iter()
        .zip(steps_per_rep)
        .map(|(w, s)| w - s.iter().sum::<f64>() * 1e-3)
        .fold(f64::INFINITY, f64::min)
        .max(0.0);
    Figures {
        work_s: floors.iter().sum::<f64>() * 1e-3 + outside,
        p50_ms: quantile(&floors, 0.5),
        p90_ms: quantile(&floors, 0.9),
        steps,
    }
}

/// Smallest sample (the floor over reps).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
