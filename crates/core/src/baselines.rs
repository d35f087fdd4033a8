//! Classic pre-LRD VBR video source models, implemented as baselines:
//!
//! - **DAR(1)** (discrete autoregressive; Heyman et al.): keep the
//!   previous frame size with probability ρ, otherwise redraw from the
//!   marginal. Geometric ACF, arbitrary marginal — for years the
//!   standard videoconference model.
//! - **Maglaris mini-sources** (Maglaris et al. 1988): the aggregate of
//!   `m` independent on/off "mini-sources", each contributing a fixed
//!   rate `a` when on — a birth–death Markov-chain rate process with a
//!   binomial marginal and exponential ACF.
//!
//! Both are exactly the "commonly used stochastic models for VBR video
//! traffic" that §3.2 says fail to capture long-range dependence; the
//! ablation benches quantify how.

use vbr_stats::dist::ContinuousDist;
use vbr_stats::rng::Xoshiro256;
use vbr_video::Trace;

/// DAR(1): discrete autoregressive process of order 1.
#[derive(Debug, Clone)]
pub struct Dar1<D: ContinuousDist> {
    marginal: D,
    rho: f64,
}

impl<D: ContinuousDist> Dar1<D> {
    /// Creates a DAR(1) source with lag-1 correlation `rho ∈ [0, 1)`.
    pub fn new(marginal: D, rho: f64) -> Self {
        assert!((0.0..1.0).contains(&rho), "DAR(1) rho must be in [0,1), got {rho}");
        Dar1 { marginal, rho }
    }

    /// The lag-1 correlation.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Generates `n` frame sizes.
    pub fn generate_frames(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n);
        let mut current = self.marginal.sample(&mut rng);
        for _ in 0..n {
            if rng.open01() >= self.rho {
                current = self.marginal.sample(&mut rng);
            }
            out.push(current);
        }
        out
    }

    /// Generates a [`Trace`] with even slice splitting.
    pub fn generate_trace(&self, n: usize, fps: f64, spf: usize, seed: u64) -> Trace {
        frames_to_trace(&self.generate_frames(n, seed), fps, spf)
    }
}

/// The Maglaris et al. mini-source aggregate: `m` independent two-state
/// (on/off) Markov mini-sources, each emitting `rate_per_source` bytes
/// per frame when on.
#[derive(Debug, Clone)]
pub struct MiniSources {
    m: usize,
    rate_per_source: f64,
    /// P[off → on] per frame.
    p_on: f64,
    /// P[on → off] per frame.
    p_off: f64,
}

impl MiniSources {
    /// Creates the aggregate model. `p_on`/`p_off` are per-frame
    /// transition probabilities in `(0, 1)`.
    pub fn new(m: usize, rate_per_source: f64, p_on: f64, p_off: f64) -> Self {
        assert!(m >= 1);
        assert!(rate_per_source > 0.0);
        assert!(p_on > 0.0 && p_on < 1.0, "p_on must be in (0,1)");
        assert!(p_off > 0.0 && p_off < 1.0, "p_off must be in (0,1)");
        MiniSources { m, rate_per_source, p_on, p_off }
    }

    /// Fits the model to a target mean/std of the aggregate with a chosen
    /// number of mini-sources and ACF decay per frame
    /// (`acf_decay = 1 − p_on − p_off`, the classic parameterisation).
    pub fn from_moments(m: usize, mean: f64, std_dev: f64, acf_decay: f64) -> Self {
        assert!((0.0..1.0).contains(&acf_decay));
        // Aggregate of m Binomial(p) sources at rate a:
        // mean = m·p·a ; var = m·p(1−p)·a².
        // ⇒ p = 1 / (1 + m·σ²/μ²·(m/…)) — solve: var/mean² = (1−p)/(m p)
        let r = (std_dev * std_dev) / (mean * mean);
        let p = 1.0 / (1.0 + m as f64 * r);
        let a = mean / (m as f64 * p);
        // decay = 1 − p_on − p_off and stationarity p = p_on/(p_on+p_off).
        let s = 1.0 - acf_decay; // = p_on + p_off
        let p_on = (p * s).clamp(1e-6, 1.0 - 1e-6);
        let p_off = (s - p_on).clamp(1e-6, 1.0 - 1e-6);
        MiniSources::new(m, a, p_on, p_off)
    }

    /// Stationary probability of a mini-source being on.
    pub fn p_stationary(&self) -> f64 {
        self.p_on / (self.p_on + self.p_off)
    }

    /// Theoretical aggregate mean bytes/frame.
    pub fn mean(&self) -> f64 {
        self.m as f64 * self.p_stationary() * self.rate_per_source
    }

    /// Theoretical per-frame ACF decay factor `1 − p_on − p_off`.
    pub fn acf_decay(&self) -> f64 {
        1.0 - self.p_on - self.p_off
    }

    /// Generates `n` frame sizes.
    pub fn generate_frames(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let p_st = self.p_stationary();
        // Track only the on-count; transitions are binomial thinning.
        let mut on = (0..self.m).filter(|_| rng.open01() < p_st).count();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            // Each on source turns off with p_off; each off turns on with p_on.
            let mut next_on = 0usize;
            for _ in 0..on {
                if rng.open01() >= self.p_off {
                    next_on += 1;
                }
            }
            for _ in 0..(self.m - on) {
                if rng.open01() < self.p_on {
                    next_on += 1;
                }
            }
            on = next_on;
            out.push(on as f64 * self.rate_per_source);
        }
        out
    }

    /// Generates a [`Trace`] with even slice splitting.
    pub fn generate_trace(&self, n: usize, fps: f64, spf: usize, seed: u64) -> Trace {
        frames_to_trace(&self.generate_frames(n, seed), fps, spf)
    }
}

/// Splits frame sizes evenly into slices and packs a [`Trace`].
fn frames_to_trace(frames: &[f64], fps: f64, spf: usize) -> Trace {
    let mut slices = Vec::with_capacity(frames.len() * spf);
    for &fb in frames {
        let target = fb.round().max(0.0) as u64;
        let base = target / spf as u64;
        let rem = (target % spf as u64) as usize;
        for i in 0..spf {
            slices.push((base + u64::from(i < rem)) as u32);
        }
    }
    Trace::from_slices(slices, spf, fps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_stats::autocorrelation;
    use vbr_stats::dist::GammaPareto;

    fn marginal() -> GammaPareto {
        GammaPareto::from_params(27_791.0, 6_254.0, 9.0)
    }

    #[test]
    fn dar1_acf_is_geometric() {
        let d = Dar1::new(marginal(), 0.9);
        let xs = d.generate_frames(100_000, 1);
        let r = autocorrelation(&xs, 10);
        for (k, &rk) in r.iter().enumerate().skip(1) {
            assert!(
                (rk - 0.9f64.powi(k as i32)).abs() < 0.05,
                "lag {k}: {rk} vs {}",
                0.9f64.powi(k as i32)
            );
        }
    }

    #[test]
    fn dar1_preserves_marginal_mean() {
        let d = Dar1::new(marginal(), 0.8);
        let xs = d.generate_frames(100_000, 2);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 27_791.0).abs() / 27_791.0 < 0.05, "mean {mean}");
    }

    #[test]
    fn dar1_rho_zero_is_iid() {
        let d = Dar1::new(marginal(), 0.0);
        let xs = d.generate_frames(50_000, 3);
        let r = autocorrelation(&xs, 3);
        for (k, &rk) in r.iter().enumerate().skip(1) {
            assert!(rk.abs() < 0.02, "r({k}) = {rk}");
        }
    }

    #[test]
    fn dar1_is_srd_not_lrd() {
        let d = Dar1::new(marginal(), 0.95);
        let xs = d.generate_frames(100_000, 4);
        let vt = vbr_lrd::variance_time(
            &xs,
            &vbr_lrd::VtOptions { fit_min_m: 100, ..Default::default() },
        );
        // SRD: beta → 1 for m beyond the correlation length.
        assert!(vt.hurst < 0.65, "DAR(1) measured H = {}", vt.hurst);
    }

    #[test]
    fn minisources_moments_match_fit() {
        let m = MiniSources::from_moments(20, 27_791.0, 6_254.0, 0.95);
        assert!((m.mean() - 27_791.0).abs() / 27_791.0 < 1e-9);
        assert!((m.acf_decay() - 0.95).abs() < 1e-9);
        let xs = m.generate_frames(200_000, 5);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let sd = (xs.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt();
        assert!((mean - 27_791.0).abs() / 27_791.0 < 0.05, "mean {mean}");
        assert!((sd - 6_254.0).abs() / 6_254.0 < 0.15, "sd {sd}");
    }

    #[test]
    fn minisources_acf_decays_exponentially() {
        let m = MiniSources::from_moments(20, 1000.0, 300.0, 0.9);
        let xs = m.generate_frames(200_000, 6);
        let r = autocorrelation(&xs, 20);
        assert!((r[1] - 0.9).abs() < 0.03, "r(1) = {}", r[1]);
        assert!((r[10] - 0.9f64.powi(10)).abs() < 0.05, "r(10) = {}", r[10]);
    }

    #[test]
    fn minisources_levels_are_quantised() {
        let m = MiniSources::new(4, 250.0, 0.3, 0.3);
        let xs = m.generate_frames(1000, 7);
        for &x in &xs {
            let level = x / 250.0;
            assert!((level - level.round()).abs() < 1e-9, "level {level}");
            assert!((0.0..=4.0).contains(&level));
        }
    }

    #[test]
    fn trace_generation_has_right_geometry() {
        let d = Dar1::new(marginal(), 0.8);
        let t = d.generate_trace(100, 24.0, 30, 8);
        assert_eq!(t.frames(), 100);
        assert_eq!(t.slices_per_frame(), 30);
    }
}
