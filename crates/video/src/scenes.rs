//! Scene-structure analysis — the paper's open question made measurable:
//! "It is also common for the camera to switch between two scenes …
//! We have not attempted to explicitly model such scene-dependent
//! structure, and it remains an open question whether this is necessary,
//! and if so, how to measure and represent the scenes" (§4.2).
//!
//! This module detects scene boundaries in a frame-size series (a jump
//! detector on the local level) and summarises the scene-length and
//! scene-level statistics, so scene structure can be *measured* from any
//! trace and compared against the generator's configuration.

/// A detected scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scene {
    /// First frame of the scene.
    pub start: usize,
    /// Length in frames.
    pub len: usize,
    /// Mean bytes/frame within the scene.
    pub level: f64,
}

/// Options for the scene detector.
#[derive(Debug, Clone, Copy)]
pub struct SceneDetectOptions {
    /// Half-width of the before/after windows compared at each candidate
    /// boundary.
    pub window: usize,
    /// Minimum relative jump `|mean_after − mean_before| / pooled std`
    /// to call a boundary.
    pub threshold_sigmas: f64,
    /// Minimum scene length in frames (suppresses chatter).
    pub min_scene_frames: usize,
}

impl Default for SceneDetectOptions {
    fn default() -> Self {
        SceneDetectOptions { window: 24, threshold_sigmas: 2.0, min_scene_frames: 24 }
    }
}

/// Detects scene boundaries by comparing the mean level in windows
/// before and after each frame (a two-sample jump statistic), keeping
/// local maxima of the statistic above the threshold.
pub fn detect_scenes(frame_series: &[f64], opts: &SceneDetectOptions) -> Vec<Scene> {
    let n = frame_series.len();
    let w = opts.window;
    assert!(w >= 2, "window too small");
    // Empty input → empty segmentation: there is no scene, not a
    // zero-length one (which would poison every downstream average).
    if n == 0 {
        return Vec::new();
    }
    if n < 4 * w {
        return vec![Scene {
            start: 0,
            len: n,
            level: frame_series.iter().sum::<f64>() / n as f64,
        }];
    }

    // Jump statistic per interior frame.
    let mut stat = vec![0.0f64; n];
    // Prefix sums for O(1) window means/vars.
    let mut ps = Vec::with_capacity(n + 1);
    let mut ps2 = Vec::with_capacity(n + 1);
    ps.push(0.0);
    ps2.push(0.0);
    let (mut a, mut b) = (0.0, 0.0);
    for &x in frame_series {
        a += x;
        b += x * x;
        ps.push(a);
        ps2.push(b);
    }
    let win_stats = |lo: usize, hi: usize| -> (f64, f64) {
        let k = (hi - lo) as f64;
        let mean = (ps[hi] - ps[lo]) / k;
        let var = ((ps2[hi] - ps2[lo]) / k - mean * mean).max(0.0);
        (mean, var)
    };
    for (t, s) in stat.iter_mut().enumerate().take(n - w).skip(w) {
        let (mb, vb) = win_stats(t - w, t);
        let (ma, va) = win_stats(t, t + w);
        let pooled = ((vb + va) / 2.0).sqrt().max(1e-9);
        *s = (ma - mb).abs() / pooled;
    }

    // Boundary = local max of the statistic above threshold, spaced by
    // at least min_scene_frames.
    let mut boundaries = vec![0usize];
    let mut t = w;
    while t < n - w {
        if stat[t] >= opts.threshold_sigmas
            && stat[t] >= stat[t - 1]
            && stat[t] >= stat[t + 1]
            && t - boundaries.last().unwrap() >= opts.min_scene_frames
        {
            boundaries.push(t);
            t += opts.min_scene_frames;
        } else {
            t += 1;
        }
    }
    boundaries.push(n);

    boundaries
        .windows(2)
        .map(|w2| {
            let (s, e) = (w2[0], w2[1]);
            Scene {
                start: s,
                len: e - s,
                level: frame_series[s..e].iter().sum::<f64>() / (e - s) as f64,
            }
        })
        .collect()
}

/// Summary statistics of a scene segmentation.
#[derive(Debug, Clone, Copy)]
pub struct SceneSummary {
    /// Number of scenes.
    pub count: usize,
    /// Mean scene length, frames.
    pub mean_len: f64,
    /// Median scene length, frames.
    pub median_len: f64,
    /// Coefficient of variation of scene *levels* (across scenes).
    pub level_cov: f64,
}

/// Summarises a segmentation.
///
/// Panics on an empty segmentation (there is nothing to summarise — and
/// since [`detect_scenes`] now returns `[]` only for an empty series,
/// callers should check emptiness first). A degenerate segmentation whose
/// mean level is zero gets `level_cov = 0` rather than NaN: with no mass
/// at all there is no level variation to speak of.
pub fn summarize_scenes(scenes: &[Scene]) -> SceneSummary {
    assert!(!scenes.is_empty(), "summarize_scenes: empty segmentation");
    let count = scenes.len();
    let mean_len = scenes.iter().map(|s| s.len as f64).sum::<f64>() / count as f64;
    let mut lens: Vec<f64> = scenes.iter().map(|s| s.len as f64).collect();
    lens.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_len = lens[count / 2];
    let lm = scenes.iter().map(|s| s.level).sum::<f64>() / count as f64;
    let lv = scenes.iter().map(|s| (s.level - lm).powi(2)).sum::<f64>() / count as f64;
    let level_cov = if lm != 0.0 { lv.sqrt() / lm } else { 0.0 };
    SceneSummary { count, mean_len, median_len, level_cov }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::screenplay::{generate, ScreenplayConfig};
    use vbr_stats::rng::Xoshiro256;

    #[test]
    fn piecewise_constant_levels_are_found_exactly() {
        // Three clean scenes with tiny noise.
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut xs = Vec::new();
        for (len, level) in [(200usize, 1000.0), (150, 3000.0), (250, 1500.0)] {
            for _ in 0..len {
                xs.push(level + rng.standard_normal() * 20.0);
            }
        }
        let scenes = detect_scenes(&xs, &SceneDetectOptions::default());
        assert_eq!(scenes.len(), 3, "{scenes:?}");
        assert!((scenes[0].level - 1000.0).abs() < 50.0);
        assert!((scenes[1].level - 3000.0).abs() < 80.0);
        assert!(scenes[1].start.abs_diff(200) <= 8, "boundary at {}", scenes[1].start);
        assert!(scenes[2].start.abs_diff(350) <= 8);
    }

    #[test]
    fn pure_noise_stays_one_or_few_scenes() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let xs: Vec<f64> = (0..5_000).map(|_| 1000.0 + rng.standard_normal() * 50.0).collect();
        let scenes = detect_scenes(&xs, &SceneDetectOptions::default());
        // At 2σ threshold false boundaries are rare.
        assert!(scenes.len() < 12, "{} spurious scenes", scenes.len());
    }

    #[test]
    fn scenes_tile_the_series() {
        let trace = generate(&ScreenplayConfig::short(8_000, 3));
        let xs = trace.frame_series();
        let scenes = detect_scenes(&xs, &SceneDetectOptions::default());
        assert_eq!(scenes[0].start, 0);
        let mut expect = 0usize;
        for s in &scenes {
            assert_eq!(s.start, expect);
            expect += s.len;
        }
        assert_eq!(expect, xs.len());
    }

    #[test]
    fn recovers_screenplay_scene_scale() {
        // The generator holds levels for ~240 frames on average, but its
        // alternating "two faces" scenes flip every ~72 frames and read as
        // boundaries too — the recovered mean length lands between the
        // alternation period and the scene mean, far from both the frame
        // scale (~1) and the story-arc scale (~10^4).
        let trace = generate(&ScreenplayConfig::short(40_000, 4));
        let scenes = detect_scenes(&trace.frame_series(), &SceneDetectOptions::default());
        let sum = summarize_scenes(&scenes);
        assert!(
            sum.mean_len > 40.0 && sum.mean_len < 900.0,
            "mean scene length {} frames",
            sum.mean_len
        );
        assert!(sum.count > 40, "only {} scenes found", sum.count);
    }

    #[test]
    fn short_series_is_one_scene() {
        let xs = vec![5.0; 50];
        let scenes = detect_scenes(&xs, &SceneDetectOptions::default());
        assert_eq!(scenes.len(), 1);
        assert_eq!(scenes[0].len, 50);
    }

    #[test]
    fn empty_series_is_empty_segmentation() {
        let scenes = detect_scenes(&[], &SceneDetectOptions::default());
        assert!(scenes.is_empty(), "{scenes:?}");
    }

    #[test]
    #[should_panic(expected = "empty segmentation")]
    fn summarize_rejects_empty_segmentation() {
        summarize_scenes(&[]);
    }

    #[test]
    fn zero_level_scenes_get_zero_cov_not_nan() {
        let scenes =
            vec![Scene { start: 0, len: 30, level: 0.0 }, Scene { start: 30, len: 40, level: 0.0 }];
        let s = summarize_scenes(&scenes);
        assert_eq!(s.level_cov, 0.0);
        assert!(!s.level_cov.is_nan());
    }

    #[test]
    fn summary_statistics() {
        let scenes = vec![
            Scene { start: 0, len: 100, level: 10.0 },
            Scene { start: 100, len: 300, level: 20.0 },
            Scene { start: 400, len: 200, level: 30.0 },
        ];
        let s = summarize_scenes(&scenes);
        assert_eq!(s.count, 3);
        assert!((s.mean_len - 200.0).abs() < 1e-12);
        assert_eq!(s.median_len, 200.0);
        assert!(s.level_cov > 0.3);
    }
}
