//! Synthetic imagery with controlled complexity and motion.
//!
//! Stands in for the digitised film (see DESIGN.md): each scene is a sum
//! of sinusoidal gratings plus noise whose spatial-frequency richness is
//! governed by a `complexity` knob, so the intraframe coder's output rate
//! responds to content exactly the way the paper describes (busy scenes →
//! more high-frequency DCT energy → more bits).

use crate::frame::Frame;
use vbr_stats::rng::Xoshiro256;

/// Parameters of one synthetic scene.
#[derive(Debug, Clone, Copy)]
pub struct SceneSpec {
    /// Spatial complexity in `[0, 1]`: drives grating count, frequency
    /// range, contrast and noise level.
    pub complexity: f64,
    /// Temporal activity: phase drift per frame (camera/object motion).
    pub motion: f64,
    /// Base luminance in `[0, 255]`.
    pub brightness: f64,
    /// Scene identity; fixes the random grating layout.
    pub seed: u64,
}

impl SceneSpec {
    /// A placid, low-complexity scene.
    pub fn placid(seed: u64) -> Self {
        SceneSpec { complexity: 0.15, motion: 0.2, brightness: 120.0, seed }
    }

    /// A busy action scene.
    pub fn action(seed: u64) -> Self {
        SceneSpec { complexity: 0.85, motion: 1.5, brightness: 128.0, seed }
    }
}

/// Generator for the frames of one scene.
#[derive(Debug, Clone)]
pub struct SceneSynthesizer {
    spec: SceneSpec,
    gratings: Vec<Grating>,
    noise_amp: f64,
}

#[derive(Debug, Clone, Copy)]
struct Grating {
    fx: f64,
    fy: f64,
    amp: f64,
    phase: f64,
    drift: f64,
}

impl SceneSynthesizer {
    /// Builds the grating layout for a scene.
    pub fn new(spec: SceneSpec) -> Self {
        assert!((0.0..=1.0).contains(&spec.complexity), "complexity must be in [0,1]");
        let mut rng = Xoshiro256::seed_from_u64(spec.seed);
        let count = 2 + (spec.complexity * 14.0) as usize;
        let max_freq = 0.02 + spec.complexity * 0.45; // cycles per pel
        let gratings = (0..count)
            .map(|_| Grating {
                fx: (rng.open01() * 2.0 - 1.0) * max_freq,
                fy: (rng.open01() * 2.0 - 1.0) * max_freq,
                amp: (8.0 + rng.open01() * 40.0) * (0.3 + spec.complexity),
                phase: rng.open01() * std::f64::consts::TAU,
                drift: (rng.open01() - 0.5) * spec.motion,
            })
            .collect();
        SceneSynthesizer { noise_amp: 2.0 + spec.complexity * 18.0, spec, gratings }
    }

    /// The scene parameters.
    pub fn spec(&self) -> &SceneSpec {
        &self.spec
    }

    /// Renders frame `t` of the scene.
    pub fn frame(&self, t: usize, width: usize, height: usize) -> Frame {
        let mut noise_rng = Xoshiro256::seed_from_u64(
            self.spec.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        Frame::from_fn(width, height, |x, y| {
            let mut v = self.spec.brightness;
            for g in &self.gratings {
                v += g.amp
                    * (std::f64::consts::TAU * (g.fx * x as f64 + g.fy * y as f64)
                        + g.phase
                        + g.drift * t as f64)
                        .sin();
            }
            v += (noise_rng.open01() - 0.5) * 2.0 * self.noise_amp;
            v.clamp(0.0, 255.0) as u8
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed_and_t() {
        let s = SceneSynthesizer::new(SceneSpec::action(7));
        assert_eq!(s.frame(3, 32, 32).data(), s.frame(3, 32, 32).data());
        assert_ne!(s.frame(3, 32, 32).data(), s.frame(4, 32, 32).data());
    }

    #[test]
    fn different_seeds_differ() {
        let a = SceneSynthesizer::new(SceneSpec::action(1)).frame(0, 32, 32);
        let b = SceneSynthesizer::new(SceneSpec::action(2)).frame(0, 32, 32);
        assert_ne!(a.data(), b.data());
    }

    #[test]
    fn complexity_raises_pixel_variance() {
        let placid = SceneSynthesizer::new(SceneSpec::placid(5)).frame(0, 64, 64);
        let action = SceneSynthesizer::new(SceneSpec::action(5)).frame(0, 64, 64);
        let var = |f: &Frame| {
            let m = f.mean();
            f.data().iter().map(|&v| (v as f64 - m).powi(2)).sum::<f64>() / f.data().len() as f64
        };
        assert!(
            var(&action) > 2.0 * var(&placid),
            "action {} vs placid {}",
            var(&action),
            var(&placid)
        );
    }

    #[test]
    fn motion_changes_frames_over_time() {
        let s = SceneSynthesizer::new(SceneSpec {
            complexity: 0.5,
            motion: 2.0,
            brightness: 128.0,
            seed: 3,
        });
        let f0 = s.frame(0, 32, 32);
        let f10 = s.frame(10, 32, 32);
        let diff: f64 = f0
            .data()
            .iter()
            .zip(f10.data())
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .sum::<f64>()
            / f0.data().len() as f64;
        assert!(diff > 5.0, "mean abs frame difference {diff}");
    }

    #[test]
    fn brightness_sets_mean_level() {
        let dark = SceneSynthesizer::new(SceneSpec {
            complexity: 0.1,
            motion: 0.0,
            brightness: 60.0,
            seed: 9,
        })
        .frame(0, 64, 64);
        let bright = SceneSynthesizer::new(SceneSpec {
            complexity: 0.1,
            motion: 0.0,
            brightness: 190.0,
            seed: 9,
        })
        .frame(0, 64, 64);
        assert!(bright.mean() - dark.mean() > 100.0);
    }
}
