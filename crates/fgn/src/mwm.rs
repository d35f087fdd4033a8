//! The multifractal wavelet model (MWM, Riedi et al.): a Haar synthesis
//! pyramid with random multiplicative innovations.
//!
//! Where fGn/fARIMA is *additive* Gaussian (then marginal-transformed),
//! the MWM is *multiplicative* and positive by construction: starting
//! from a non-negative root approximation coefficient, each synthesis
//! level splits every coefficient `a` into two children
//! `(a ± d)/√2` with `d = m·a` and a symmetric-beta multiplier
//! `m = 2·Beta(p, p) − 1 ∈ [−1, 1]`, so children stay non-negative and
//! the per-octave detail-to-approximation energy ratio is
//! `E[m²] = 1/(2p + 1)`. Choosing `p` per octave to match a measured
//! Haar logscale diagram reproduces the trace's second-order scaling —
//! including an LRD slope — without any Gaussian assumption. The
//! analysis half is `vbr_lrd::logscale_diagram` (which reports both the
//! detail variances and the approximation energies); the fitting glue
//! lives in `vbr-model` so this crate stays free of the estimator stack.

use vbr_stats::dist::{ContinuousDist, Gamma};
use vbr_stats::rng::Xoshiro256;
use vbr_stats::snapshot::{Payload, Section, SnapshotError};
use vbr_stats::ParamHasher;

use crate::stream::BlockSource;
use crate::traffic::TrafficModel;

/// Static configuration of an [`MwmModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct MwmConfig {
    /// Mean of the root (coarsest) approximation coefficient — in root
    /// scale, i.e. `sample mean × 2^{J/2}` for `J` levels.
    pub root_mean: f64,
    /// Standard deviation of the root coefficient (Gaussian, clamped at
    /// zero to keep the pyramid non-negative).
    pub root_sd: f64,
    /// Symmetric-beta shape per octave, finest first: `shapes[j − 1]` is
    /// the shape used for the multipliers that create the octave-`j`
    /// details. Length = number of synthesis levels `J`; one synthesis
    /// block emits `2^J` samples.
    pub shapes: Vec<f64>,
    /// Hurst parameter the fitted scaling targets (`None` when the fit
    /// did not establish one).
    pub nominal_hurst: Option<f64>,
    /// Sample mean the model was fitted to.
    pub nominal_mean: f64,
    /// Sample variance the model was fitted to.
    pub nominal_variance: f64,
}

impl MwmConfig {
    /// Number of synthesis levels `J`.
    pub fn levels(&self) -> usize {
        self.shapes.len()
    }

    /// Samples per independent synthesis block, `2^J`.
    pub fn block_len(&self) -> usize {
        1usize << self.levels()
    }
}

/// A multifractal wavelet traffic generator. Blocks of `2^J` samples are
/// synthesised independently (the model's correlation horizon is one
/// block; choose `J` so the block covers the lags of interest).
#[derive(Debug, Clone)]
pub struct MwmModel {
    cfg: MwmConfig,
    rng: Xoshiro256,
    /// Current synthesis block.
    buf: Vec<f64>,
    /// Emit position in `buf`; `buf.len()` means a refill is due.
    pos: usize,
}

impl MwmModel {
    /// Builds a model from its configuration. Panics on an invalid
    /// configuration (no levels, non-positive shapes or root mean,
    /// negative root sd, more than 30 levels).
    pub fn new(cfg: MwmConfig, seed: u64) -> Self {
        assert!(!cfg.shapes.is_empty(), "MwmModel needs at least one level");
        assert!(cfg.shapes.len() <= 30, "MwmModel: too many levels");
        assert!(
            cfg.shapes.iter().all(|&p| p > 0.0 && p.is_finite()),
            "MwmModel: beta shapes must be positive and finite"
        );
        assert!(
            cfg.root_mean > 0.0 && cfg.root_mean.is_finite(),
            "MwmModel: root mean must be positive"
        );
        assert!(
            cfg.root_sd >= 0.0 && cfg.root_sd.is_finite(),
            "MwmModel: root sd must be non-negative"
        );
        let block = cfg.block_len();
        MwmModel {
            cfg,
            rng: Xoshiro256::seed_from_u64(seed),
            buf: vec![0.0; block],
            pos: block, // force a refill on the first draw
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &MwmConfig {
        &self.cfg
    }

    /// Synthesises one fresh block into `buf` (in place, coarse→fine).
    fn refill(&mut self) {
        let j_levels = self.cfg.levels();
        // Root approximation coefficient: Gaussian, clamped non-negative.
        self.buf[0] = (self.cfg.root_mean + self.cfg.root_sd * self.rng.standard_normal()).max(0.0);
        let mut len = 1usize;
        for level in 0..j_levels {
            // This level creates the details of octave `j = J − level`.
            let shape = self.cfg.shapes[j_levels - level - 1];
            let gamma = Gamma::new(shape, 1.0);
            // Expand in place from the end: iteration `k` writes indices
            // `2k, 2k+1 ≥ k`, never clobbering an unread coefficient.
            for k in (0..len).rev() {
                let a = self.buf[k];
                let g1 = gamma.sample(&mut self.rng);
                let g2 = gamma.sample(&mut self.rng);
                let sum = g1 + g2;
                // Beta(p, p) via the two-gamma ratio; a double underflow
                // (possible for tiny shapes deep in the quantile tails)
                // degrades to the symmetric midpoint m = 0.
                let m = if sum > 0.0 { 2.0 * g1 / sum - 1.0 } else { 0.0 };
                let d = m * a;
                self.buf[2 * k] = (a + d) / std::f64::consts::SQRT_2;
                self.buf[2 * k + 1] = (a - d) / std::f64::consts::SQRT_2;
            }
            len *= 2;
        }
    }
}

impl BlockSource for MwmModel {
    fn next_block(&mut self, out: &mut [f64]) {
        let mut filled = 0usize;
        while filled < out.len() {
            if self.pos == self.buf.len() {
                self.refill();
                self.pos = 0;
            }
            let take = (out.len() - filled).min(self.buf.len() - self.pos);
            out[filled..filled + take].copy_from_slice(&self.buf[self.pos..self.pos + take]);
            self.pos += take;
            filled += take;
        }
    }
}

impl TrafficModel for MwmModel {
    fn name(&self) -> &'static str {
        "mwm"
    }

    fn nominal_hurst(&self) -> Option<f64> {
        self.cfg.nominal_hurst
    }

    fn nominal_mean(&self) -> f64 {
        self.cfg.nominal_mean
    }

    fn nominal_variance(&self) -> f64 {
        self.cfg.nominal_variance
    }

    fn param_hash(&self) -> u64 {
        let mut h = ParamHasher::new()
            .str("mwm")
            .usize(self.cfg.levels())
            .f64(self.cfg.root_mean)
            .f64(self.cfg.root_sd)
            .f64(self.cfg.nominal_hurst.unwrap_or(f64::NAN))
            .f64(self.cfg.nominal_mean)
            .f64(self.cfg.nominal_variance);
        for &p in &self.cfg.shapes {
            h = h.f64(p);
        }
        h.finish()
    }

    fn encode_state(&self, p: &mut Payload) {
        p.put_u64_slice(&self.rng.state());
        p.put_f64_slice(&self.buf);
        p.put_usize(self.pos);
    }

    fn decode_state(&mut self, s: &mut Section) -> Result<(), SnapshotError> {
        let rng_vec = s.get_u64_vec()?;
        let rng_state: [u64; 4] = rng_vec
            .try_into()
            .map_err(|_| SnapshotError::Invalid { what: "rng state is not 4 words" })?;
        let rng = Xoshiro256::from_state(rng_state)
            .ok_or(SnapshotError::Invalid { what: "all-zero rng state" })?;
        let buf = s.get_f64_vec()?;
        if buf.len() != self.cfg.block_len() {
            return Err(SnapshotError::Invalid { what: "mwm block length mismatch" });
        }
        let pos = s.get_usize()?;
        if pos > buf.len() {
            return Err(SnapshotError::Invalid { what: "mwm position out of range" });
        }
        self.rng = rng;
        self.buf = buf;
        self.pos = pos;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> MwmConfig {
        MwmConfig {
            root_mean: 1000.0 * 2.0f64.powf(4.0), // J = 8 → 2^{8/2}
            root_sd: 300.0,
            shapes: vec![4.0, 3.5, 3.0, 2.5, 2.0, 1.8, 1.5, 1.2],
            nominal_hurst: Some(0.8),
            nominal_mean: 1000.0,
            nominal_variance: 90_000.0,
        }
    }

    #[test]
    fn output_is_non_negative_and_near_nominal_mean() {
        let mut m = MwmModel::new(test_cfg(), 1);
        let xs = m.sample_series(1 << 14);
        assert!(xs.iter().all(|&x| x >= 0.0 && x.is_finite()));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 1000.0).abs() / 1000.0 < 0.1, "mean {mean} vs nominal 1000");
    }

    #[test]
    fn deterministic_across_block_boundaries() {
        let mut a = MwmModel::new(test_cfg(), 7);
        let mut b = MwmModel::new(test_cfg(), 7);
        let whole = a.sample_series(1000);
        // Draw the same 1000 samples in ragged chunks.
        let mut got = Vec::new();
        for &k in &[1usize, 255, 256, 31, 457] {
            let mut chunk = vec![0.0; k];
            b.next_block(&mut chunk);
            got.extend_from_slice(&chunk);
        }
        assert_eq!(whole, got);
    }

    #[test]
    fn snapshot_restores_mid_block() {
        let mut m = MwmModel::new(test_cfg(), 3);
        let _ = m.sample_series(137); // stop mid-block
        let snap = m.snapshot(42);
        let want = m.sample_series(513);
        let mut fresh = MwmModel::new(test_cfg(), 999); // different seed: state comes from the snapshot
        assert_eq!(fresh.restore(&snap).unwrap(), 42);
        assert_eq!(fresh.sample_series(513), want);
    }

    #[test]
    fn snapshot_rejects_different_params() {
        let m = MwmModel::new(test_cfg(), 3);
        let snap = m.snapshot(0);
        let mut other_cfg = test_cfg();
        other_cfg.shapes[0] = 9.0;
        let mut other = MwmModel::new(other_cfg, 3);
        assert!(other.restore(&snap).is_err());
    }

    #[test]
    fn multiplier_energy_tracks_shape() {
        // With a single level and shape p, E[m²] = 1/(2p+1): the detail/
        // approx energy ratio of the emitted pairs must match.
        let p = 2.0;
        let cfg = MwmConfig {
            root_mean: 100.0 * std::f64::consts::SQRT_2,
            root_sd: 0.0,
            shapes: vec![p],
            nominal_hurst: None,
            nominal_mean: 100.0,
            nominal_variance: 0.0,
        };
        let mut m = MwmModel::new(cfg, 11);
        let xs = m.sample_series(60_000);
        let mut dd = 0.0;
        let mut aa = 0.0;
        for pair in xs.chunks_exact(2) {
            let d = (pair[0] - pair[1]) / std::f64::consts::SQRT_2;
            let a = (pair[0] + pair[1]) / std::f64::consts::SQRT_2;
            dd += d * d;
            aa += a * a;
        }
        let want = 1.0 / (2.0 * p + 1.0);
        let got = dd / aa;
        assert!((got - want).abs() / want < 0.05, "E[m²] {got:.4} vs theoretical {want:.4}");
    }
}
