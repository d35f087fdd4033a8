//! A Markov-modulated scene-chain traffic model — the paper's open
//! question (§4.2, "scene-dependent structure") turned into a generator.
//!
//! The model is fitted from the *measured* scene statistics of a trace
//! ([`crate::detect_scenes`]/[`crate::summarize_scenes`]): scene levels
//! are quantile-binned into `K` states, transitions between consecutive
//! scenes give an empirical `K × K` Markov chain, and each state carries
//! a geometric dwell time (matching that state's mean scene length) plus
//! Gaussian within-scene jitter. The result is short-range dependent —
//! dwell times are geometric, so correlations decay exponentially — which
//! is exactly why it belongs in the bake-off: it is the natural "scenes
//! explain everything" null hypothesis against the LRD families.

use vbr_fgn::stream::BlockSource;
use vbr_fgn::traffic::TrafficModel;
use vbr_stats::rng::Xoshiro256;
use vbr_stats::snapshot::{Payload, Section, SnapshotError};
use vbr_stats::ParamHasher;

use crate::scenes::{detect_scenes, SceneDetectOptions};

/// Static configuration of a [`SceneChainModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct SceneChainConfig {
    /// Mean level (bytes/frame) of each scene state.
    pub levels: Vec<f64>,
    /// Row-stochastic `K × K` transition matrix, row-major: `transition
    /// [i * K + j]` is the probability the next scene is state `j` given
    /// the current is state `i`.
    pub transition: Vec<f64>,
    /// Mean scene length (frames) per state; dwell is geometric with
    /// success probability `1 / mean_scene_len[i]`.
    pub mean_scene_len: Vec<f64>,
    /// Within-scene Gaussian jitter sd per state.
    pub within_sd: Vec<f64>,
    /// Sample mean the model was fitted to.
    pub nominal_mean: f64,
    /// Sample variance the model was fitted to.
    pub nominal_variance: f64,
}

impl SceneChainConfig {
    /// Number of scene states `K`.
    pub fn states(&self) -> usize {
        self.levels.len()
    }
}

/// The Markov-modulated scene-chain generator.
#[derive(Debug, Clone)]
pub struct SceneChainModel {
    cfg: SceneChainConfig,
    rng: Xoshiro256,
    /// Current scene state index.
    state: usize,
    /// Frames left in the current scene (0 → draw a new scene first).
    remaining: u64,
}

impl SceneChainModel {
    /// Builds a model from its configuration. Panics on an inconsistent
    /// configuration (empty, mismatched lengths, non-stochastic rows,
    /// dwell means < 1, negative levels or sds).
    pub fn new(cfg: SceneChainConfig, seed: u64) -> Self {
        let k = cfg.states();
        assert!(k >= 1, "SceneChainModel needs at least one state");
        assert_eq!(cfg.transition.len(), k * k, "transition matrix must be K×K");
        assert_eq!(cfg.mean_scene_len.len(), k, "mean_scene_len must have K entries");
        assert_eq!(cfg.within_sd.len(), k, "within_sd must have K entries");
        assert!(
            cfg.levels.iter().all(|&l| l >= 0.0 && l.is_finite()),
            "scene levels must be non-negative"
        );
        assert!(
            cfg.mean_scene_len.iter().all(|&m| m >= 1.0 && m.is_finite()),
            "mean scene lengths must be ≥ 1"
        );
        assert!(
            cfg.within_sd.iter().all(|&s| s >= 0.0 && s.is_finite()),
            "within-scene sds must be non-negative"
        );
        for row in cfg.transition.chunks(k) {
            let sum: f64 = row.iter().sum();
            assert!(
                row.iter().all(|&p| (0.0..=1.0).contains(&p)) && (sum - 1.0).abs() < 1e-9,
                "transition rows must be probability distributions (sum {sum})"
            );
        }
        SceneChainModel { cfg, rng: Xoshiro256::seed_from_u64(seed), state: 0, remaining: 0 }
    }

    /// The model's configuration.
    pub fn config(&self) -> &SceneChainConfig {
        &self.cfg
    }

    /// Fits a scene-chain model to a frame-size series: detect scenes,
    /// quantile-bin their levels into `k` states, count transitions, and
    /// measure per-state dwell and jitter. Panics when the series yields
    /// no scenes (empty input) or `k == 0`.
    pub fn fit(frame_series: &[f64], k: usize, detect: &SceneDetectOptions, seed: u64) -> Self {
        assert!(k >= 1, "need at least one state");
        let scenes = detect_scenes(frame_series, detect);
        assert!(!scenes.is_empty(), "no scenes detected (empty series?)");

        // Quantile bin edges over scene levels.
        let mut sorted: Vec<f64> = scenes.iter().map(|s| s.level).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let edges: Vec<f64> =
            (1..k).map(|i| sorted[(i * sorted.len() / k).min(sorted.len() - 1)]).collect();
        let bin = |level: f64| edges.iter().filter(|&&e| level >= e).count();

        let mut level_sum = vec![0.0; k];
        let mut len_sum = vec![0.0; k];
        let mut count = vec![0usize; k];
        let mut trans = vec![0.0; k * k];
        let mut within_m2 = vec![0.0; k];
        let mut within_n = vec![0usize; k];
        let mut prev: Option<usize> = None;
        for s in &scenes {
            let b = bin(s.level);
            level_sum[b] += s.level;
            len_sum[b] += s.len as f64;
            count[b] += 1;
            if let Some(p) = prev {
                trans[p * k + b] += 1.0;
            }
            prev = Some(b);
            for &x in &frame_series[s.start..s.start + s.len] {
                within_m2[b] += (x - s.level) * (x - s.level);
                within_n[b] += 1;
            }
        }

        let grand_level = scenes.iter().map(|s| s.level).sum::<f64>() / scenes.len() as f64;
        let grand_len = scenes.iter().map(|s| s.len as f64).sum::<f64>() / scenes.len() as f64;
        let levels: Vec<f64> = (0..k)
            .map(|i| if count[i] > 0 { level_sum[i] / count[i] as f64 } else { grand_level })
            .collect();
        let mean_scene_len: Vec<f64> = (0..k)
            .map(|i| {
                let m = if count[i] > 0 { len_sum[i] / count[i] as f64 } else { grand_len };
                m.max(1.0)
            })
            .collect();
        let within_sd: Vec<f64> = (0..k)
            .map(|i| if within_n[i] > 0 { (within_m2[i] / within_n[i] as f64).sqrt() } else { 0.0 })
            .collect();
        let transition: Vec<f64> = (0..k)
            .flat_map(|i| {
                let row = &trans[i * k..(i + 1) * k];
                let sum: f64 = row.iter().sum();
                let out: Vec<f64> = if sum > 0.0 {
                    row.iter().map(|c| c / sum).collect()
                } else {
                    // Never-observed state: jump uniformly.
                    vec![1.0 / k as f64; k]
                };
                out
            })
            .collect();

        let n = frame_series.len() as f64;
        let mean = frame_series.iter().sum::<f64>() / n;
        let variance = frame_series.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        SceneChainModel::new(
            SceneChainConfig {
                levels,
                transition,
                mean_scene_len,
                within_sd,
                nominal_mean: mean,
                nominal_variance: variance,
            },
            seed,
        )
    }

    /// Draws the next scene: Markov step + geometric dwell.
    fn next_scene(&mut self) {
        let k = self.cfg.states();
        let u = vbr_stats::rng::open01(&mut self.rng);
        let row = &self.cfg.transition[self.state * k..(self.state + 1) * k];
        let mut acc = 0.0;
        let mut next = k - 1;
        for (j, &p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                next = j;
                break;
            }
        }
        self.state = next;
        let mean_len = self.cfg.mean_scene_len[next];
        let dwell = if mean_len <= 1.0 {
            1
        } else {
            // Geometric with success probability 1/mean_len (support ≥ 1).
            let p = 1.0 / mean_len;
            let v = vbr_stats::rng::open01(&mut self.rng);
            1 + (v.ln() / (1.0 - p).ln()).floor() as u64
        };
        self.remaining = dwell;
    }
}

impl BlockSource for SceneChainModel {
    fn next_block(&mut self, out: &mut [f64]) {
        for y in out.iter_mut() {
            if self.remaining == 0 {
                self.next_scene();
            }
            let level = self.cfg.levels[self.state];
            let sd = self.cfg.within_sd[self.state];
            *y = (level + sd * self.rng.standard_normal()).max(0.0);
            self.remaining -= 1;
        }
    }
}

impl TrafficModel for SceneChainModel {
    fn name(&self) -> &'static str {
        "scene-chain"
    }

    fn nominal_hurst(&self) -> Option<f64> {
        // Geometric dwells ⇒ short-range dependence: no LRD claim.
        None
    }

    fn nominal_mean(&self) -> f64 {
        self.cfg.nominal_mean
    }

    fn nominal_variance(&self) -> f64 {
        self.cfg.nominal_variance
    }

    fn param_hash(&self) -> u64 {
        let mut h = ParamHasher::new()
            .str("scene-chain")
            .usize(self.cfg.states())
            .f64(self.cfg.nominal_mean)
            .f64(self.cfg.nominal_variance);
        for v in self
            .cfg
            .levels
            .iter()
            .chain(&self.cfg.transition)
            .chain(&self.cfg.mean_scene_len)
            .chain(&self.cfg.within_sd)
        {
            h = h.f64(*v);
        }
        h.finish()
    }

    fn encode_state(&self, p: &mut Payload) {
        p.put_u64_slice(&self.rng.state());
        p.put_usize(self.state);
        p.put_u64(self.remaining);
    }

    fn decode_state(&mut self, s: &mut Section) -> Result<(), SnapshotError> {
        let rng_vec = s.get_u64_vec()?;
        let rng_state: [u64; 4] = rng_vec
            .try_into()
            .map_err(|_| SnapshotError::Invalid { what: "rng state is not 4 words" })?;
        let rng = Xoshiro256::from_state(rng_state)
            .ok_or(SnapshotError::Invalid { what: "all-zero rng state" })?;
        let state = s.get_usize()?;
        if state >= self.cfg.states() {
            return Err(SnapshotError::Invalid { what: "scene state out of range" });
        }
        let remaining = s.get_u64()?;
        self.rng = rng;
        self.state = state;
        self.remaining = remaining;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::screenplay::{generate, ScreenplayConfig};

    fn two_state() -> SceneChainConfig {
        SceneChainConfig {
            levels: vec![800.0, 2400.0],
            transition: vec![0.2, 0.8, 0.7, 0.3],
            mean_scene_len: vec![60.0, 30.0],
            within_sd: vec![40.0, 90.0],
            nominal_mean: 1400.0,
            nominal_variance: 650_000.0,
        }
    }

    #[test]
    fn output_non_negative_and_switches_levels() {
        let mut m = SceneChainModel::new(two_state(), 1);
        let xs = m.sample_series(20_000);
        assert!(xs.iter().all(|&x| x >= 0.0 && x.is_finite()));
        let low = xs.iter().filter(|&&x| x < 1_600.0).count();
        let high = xs.len() - low;
        assert!(low > 1_000 && high > 1_000, "low {low}, high {high}: chain stuck");
    }

    #[test]
    fn deterministic_across_block_boundaries() {
        let mut a = SceneChainModel::new(two_state(), 5);
        let mut b = SceneChainModel::new(two_state(), 5);
        let whole = a.sample_series(700);
        let mut got = Vec::new();
        for &k in &[13usize, 1, 400, 286] {
            let mut chunk = vec![0.0; k];
            b.next_block(&mut chunk);
            got.extend_from_slice(&chunk);
        }
        assert_eq!(whole, got);
    }

    #[test]
    fn snapshot_restores_mid_scene() {
        let mut m = SceneChainModel::new(two_state(), 9);
        let _ = m.sample_series(457);
        let snap = m.snapshot(3);
        let want = m.sample_series(900);
        let mut fresh = SceneChainModel::new(two_state(), 1234);
        assert_eq!(fresh.restore(&snap).unwrap(), 3);
        assert_eq!(fresh.sample_series(900), want);
    }

    #[test]
    fn fit_recovers_two_level_structure() {
        // A clean two-level alternating series: the 2-state fit must put
        // its state levels near the truth and dwell near the scene length.
        let mut xs = Vec::new();
        let mut rng = Xoshiro256::seed_from_u64(2);
        for i in 0..80 {
            let level = if i % 2 == 0 { 1000.0 } else { 3000.0 };
            for _ in 0..120 {
                xs.push(level + rng.standard_normal() * 25.0);
            }
        }
        let m = SceneChainModel::fit(&xs, 2, &SceneDetectOptions::default(), 0);
        let cfg = m.config();
        let (lo, hi) = (cfg.levels[0].min(cfg.levels[1]), cfg.levels[0].max(cfg.levels[1]));
        assert!((lo - 1000.0).abs() < 100.0, "low level {lo}");
        assert!((hi - 3000.0).abs() < 100.0, "high level {hi}");
        for &ml in &cfg.mean_scene_len {
            assert!(ml > 60.0 && ml < 260.0, "dwell {ml}");
        }
        // Strict alternation → off-diagonal transition mass dominates.
        assert!(cfg.transition[1] > 0.8 && cfg.transition[2] > 0.8);
    }

    #[test]
    fn fit_runs_on_screenplay_trace() {
        let trace = generate(&ScreenplayConfig::short(12_000, 6));
        let mut m =
            SceneChainModel::fit(&trace.frame_series(), 4, &SceneDetectOptions::default(), 1);
        let xs = m.sample_series(4_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let want = m.nominal_mean();
        assert!((mean - want).abs() / want < 0.25, "generated mean {mean} vs fitted {want}");
    }
}
