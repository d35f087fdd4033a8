//! `analyze`: the paper's §3 H analysis at slice granularity — the six
//! panel estimators, the `robust_hurst` ensemble and the four-parameter
//! `estimate_series` fit, on a screenplay trace's slice series.

use std::time::Instant;

use vbr_lrd::{
    periodogram_h, robust_hurst, try_local_whittle, try_rs_analysis, try_variance_time,
    try_wavelet_hurst, try_whittle, RsOptions, VtOptions, WaveletOptions,
};
use vbr_model::{try_estimate_series, EstimateOptions};
use vbr_stats::obs::Counter;
use vbr_video::{generate_screenplay, ScreenplayConfig};

use crate::harness::{figures, median, secs, Counts, Ctx, Digest, Workload, SETUP, TIMED};

/// Frames of screenplay trace; × 30 slices per frame.
pub const FRAMES: usize = 60_000;

pub struct Analyze {
    setups: Vec<f64>,
    works: Vec<f64>,
    /// Per rep: wall ms of each estimator call.
    steps_ms: Vec<Vec<f64>>,
    counts: Counts,
    slices: usize,
    refusals: f64,
    fallbacks: f64,
    observed: Vec<String>,
}

impl Analyze {
    pub fn new() -> Analyze {
        Analyze {
            setups: Vec::new(),
            works: Vec::new(),
            steps_ms: Vec::new(),
            counts: Counts::new(),
            slices: 0,
            refusals: 0.0,
            fallbacks: 0.0,
            observed: Vec::new(),
        }
    }
}

impl Workload for Analyze {
    fn rep(&mut self, ctx: &mut Ctx, rep: usize) -> f64 {
        let seed = ctx.seed;
        self.counts.start();
        let t = Instant::now();
        ctx.tr.enter(SETUP);
        let trace = ctx
            .tr
            .span("video.generate", || generate_screenplay(&ScreenplayConfig::short(FRAMES, seed)));
        let xs = ctx.tr.span("video.slice_series", || trace.slice_series());
        ctx.tr.exit();
        self.setups.push(secs(t));
        self.slices = xs.len();

        ctx.tr.enter(TIMED);
        let t = Instant::now();
        let checks_before = ctx.check_secs;
        let tr = &mut ctx.tr;
        let mut ms = Vec::with_capacity(8);
        // (estimator, H if it answered). A refusal is recorded, not failed.
        let panel: [(&str, Option<f64>); 6] = [
            (
                "whittle",
                tr.span_ms("lrd.whittle", &mut ms, || try_whittle(&xs).ok().map(|e| e.hurst)),
            ),
            (
                "local_whittle",
                tr.span_ms("lrd.local_whittle", &mut ms, || {
                    try_local_whittle(&xs, None).ok().map(|e| e.hurst)
                }),
            ),
            (
                "wavelet",
                tr.span_ms("lrd.wavelet", &mut ms, || {
                    try_wavelet_hurst(&xs, &WaveletOptions::default()).ok().map(|e| e.hurst)
                }),
            ),
            (
                "rs",
                tr.span_ms("lrd.rs", &mut ms, || {
                    try_rs_analysis(&xs, &RsOptions::default()).ok().map(|e| e.hurst)
                }),
            ),
            (
                "variance_time",
                tr.span_ms("lrd.variance_time", &mut ms, || {
                    try_variance_time(&xs, &VtOptions::default()).ok().map(|e| e.hurst)
                }),
            ),
            (
                "periodogram",
                tr.span_ms("lrd.periodogram", &mut ms, || Some(periodogram_h(&xs, 0.1).hurst)),
            ),
        ];
        let robust = tr.span_ms("lrd.robust_hurst", &mut ms, || robust_hurst(&xs));
        let est = tr.span_ms("model.estimate_series", &mut ms, || {
            try_estimate_series(&xs, &EstimateOptions::default())
        });

        let mut digest = Digest::new();
        ctx.checks(|| {
            let mut out = Vec::new();
            for (name, h) in &panel {
                if let Some(h) = h {
                    out.push((format!("analyze: {name} H {h} is finite"), h.is_finite()));
                    digest.u64(h.to_bits());
                } else {
                    digest.u64(u64::MAX);
                }
            }
            match &robust {
                Ok(r) => {
                    out.push((
                        format!("analyze: robust_hurst H {} is finite", r.hurst),
                        r.hurst.is_finite(),
                    ));
                    digest.u64(r.hurst.to_bits());
                }
                Err(e) => out.push((format!("analyze: robust_hurst answers ({e})"), false)),
            }
            match &est {
                Ok(e) => {
                    let p = &e.params;
                    out.push((
                        format!("analyze: estimate_series H {} is finite", p.hurst),
                        [p.mu_gamma, p.sigma_gamma, p.tail_slope, p.hurst]
                            .iter()
                            .all(|v| v.is_finite()),
                    ));
                    for v in [p.mu_gamma, p.sigma_gamma, p.tail_slope, p.hurst] {
                        digest.u64(v.to_bits());
                    }
                }
                Err(e) => out.push((format!("analyze: estimate_series answers ({e})"), false)),
            }
            out
        });
        let work = secs(t) - (ctx.check_secs - checks_before);
        ctx.tr.exit();
        self.counts.stop();

        let refused: Vec<&str> =
            panel.iter().filter(|(_, h)| h.is_none()).map(|(n, _)| *n).collect();
        let fallback = est.as_ref().ok().and_then(|e| e.hurst_fallback);
        self.refusals += refused.len() as f64;
        self.fallbacks += if fallback.is_some() { 1.0 } else { 0.0 };
        if rep == 0 {
            self.observed.push(format!(
                "analyze: refused at slice granularity: {refused:?}; \
                 estimate_series fell back to {}",
                fallback.map_or("nothing".to_string(), |k| k.to_string())
            ));
        }
        ctx.rep_digest(digest.value());
        self.steps_ms.push(ms);
        self.works.push(work);
        work
    }

    fn finish(&mut self, ctx: &mut Ctx, reps: usize) {
        let reps_f = reps as f64;
        let f = figures(&self.works, &self.steps_ms);
        let (analyze_s, p50, p90) = (f.work_s, f.p50_ms, f.p90_ms);
        ctx.metric("setup_s", median(&self.setups));
        ctx.metric("mslices_s", self.slices as f64 / analyze_s / 1e6);
        ctx.metric("step_ms_p50", p50);
        ctx.metric("step_ms_p90", p90);
        ctx.note(format!(
            "analyze_s {analyze_s:.4} s (floor over {reps} reps) for {} slices ({FRAMES} frames): \
             six-estimator panel + robust_hurst + estimate_series; call p50 {p50:.3} ms, p90 \
             {p90:.3} ms (floors of {} calls)",
            self.slices, f.steps
        ));
        for line in std::mem::take(&mut self.observed) {
            ctx.note(line);
        }

        let tr = &ctx.tr;
        let per_rep = |name: &str| tr.total(name) / reps_f;
        let layer = [
            ("video.generate_s", per_rep("video.generate")),
            ("lrd.whittle_s", per_rep("lrd.whittle")),
            ("lrd.local_whittle_s", per_rep("lrd.local_whittle")),
            ("lrd.wavelet_s", per_rep("lrd.wavelet")),
            ("lrd.rs_s", per_rep("lrd.rs")),
            ("lrd.variance_time_s", per_rep("lrd.variance_time")),
            ("lrd.periodogram_s", per_rep("lrd.periodogram")),
            ("lrd.robust_hurst_s", per_rep("lrd.robust_hurst")),
            ("lrd.whittle_iterations", self.counts.get(Counter::WhittleIterations) / reps_f),
            ("lrd.refusals", self.refusals / reps_f),
            ("lrd.panel_estimators", 6.0),
            ("model.estimate_series_s", per_rep("model.estimate_series")),
            ("model.estimator_fallbacks", self.fallbacks / reps_f),
        ];
        for (name, v) in layer {
            ctx.metric(name, v);
        }
    }
}
