//! Confidence intervals for the mean — the Fig 9 demonstration.
//!
//! Under i.i.d./SRD assumptions, `Var(x̄_n) = σ²/n` and the usual 95 % CI
//! applies. Under LRD with Hurst parameter `H`, `Var(x̄_n) ≈ c σ² n^{2H−2}`
//! — the CI is wider and shrinks much more slowly, which is why the
//! conventional intervals in Fig 9 fail to cover the long-run mean.

use crate::special::norm_quantile;

/// A two-sided confidence interval for a mean estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (sample mean of the prefix).
    pub mean: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Half-width.
    pub half_width: f64,
    /// Number of observations.
    pub n: usize,
}

impl ConfidenceInterval {
    /// True when `value` lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        self.lo <= value && value <= self.hi
    }
}

/// Conventional CI assuming independent observations:
/// `x̄ ± z_{1−α/2} · s/√n`.
pub fn mean_ci_iid(xs: &[f64], confidence: f64) -> ConfidenceInterval {
    assert!(xs.len() >= 2, "CI needs at least 2 observations");
    assert!((0.0..1.0).contains(&confidence) && confidence > 0.0);
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let s2 = xs.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let z = norm_quantile(0.5 + confidence / 2.0);
    let hw = z * (s2 / n as f64).sqrt();
    ConfidenceInterval { mean, lo: mean - hw, hi: mean + hw, half_width: hw, n }
}

/// LRD-corrected CI: `Var(x̄_n) ≈ σ² n^{2H−2}` (the self-similar scaling
/// of Cox 1984; the constant is taken as 1, exact for fractional Gaussian
/// noise up to a factor that → 1 as H → ½).
pub fn mean_ci_lrd(xs: &[f64], confidence: f64, hurst: f64) -> ConfidenceInterval {
    assert!(xs.len() >= 2, "CI needs at least 2 observations");
    assert!((0.5..1.0).contains(&hurst), "LRD CI requires H in [0.5, 1), got {hurst}");
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let s2 = xs.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let z = norm_quantile(0.5 + confidence / 2.0);
    let var_mean = s2 * (n as f64).powf(2.0 * hurst - 2.0);
    let hw = z * var_mean.sqrt();
    ConfidenceInterval { mean, lo: mean - hw, hi: mean + hw, half_width: hw, n }
}

/// The Fig 9 experiment: CIs of the mean estimated from growing prefixes.
///
/// Returns `(n, iid CI, LRD CI)` for each prefix length in `ns`.
pub fn prefix_mean_cis(
    xs: &[f64],
    ns: &[usize],
    confidence: f64,
    hurst: f64,
) -> Vec<(usize, ConfidenceInterval, ConfidenceInterval)> {
    ns.iter()
        .filter(|&&n| n >= 2 && n <= xs.len())
        .map(|&n| (n, mean_ci_iid(&xs[..n], confidence), mean_ci_lrd(&xs[..n], confidence, hurst)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn iid_ci_covers_true_mean_for_white_noise() {
        // ~95 % coverage over repeated experiments.
        let mut covered = 0;
        let trials = 400;
        for t in 0..trials {
            let mut rng = Xoshiro256::seed_from_u64(t);
            let xs: Vec<f64> = (0..200).map(|_| rng.standard_normal() + 10.0).collect();
            if mean_ci_iid(&xs, 0.95).contains(10.0) {
                covered += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        assert!((rate - 0.95).abs() < 0.04, "coverage {rate}");
    }

    #[test]
    fn ci_shrinks_with_n_at_root_n_rate() {
        let mut rng = Xoshiro256::seed_from_u64(77);
        let xs: Vec<f64> = (0..40_000).map(|_| rng.standard_normal()).collect();
        let a = mean_ci_iid(&xs[..100], 0.95).half_width;
        let b = mean_ci_iid(&xs[..10_000], 0.95).half_width;
        // 100× more data → 10× narrower.
        assert!((a / b - 10.0).abs() < 1.5, "ratio {}", a / b);
    }

    #[test]
    fn lrd_ci_is_wider_and_shrinks_slower() {
        let mut rng = Xoshiro256::seed_from_u64(78);
        let xs: Vec<f64> = (0..10_000).map(|_| rng.standard_normal()).collect();
        let h = 0.8;
        let iid = mean_ci_iid(&xs, 0.95);
        let lrd = mean_ci_lrd(&xs, 0.95, h);
        assert!(lrd.half_width > iid.half_width);
        // Ratio should be n^{H − 1/2} = 10000^{0.3} ≈ 15.8.
        let want = (xs.len() as f64).powf(h - 0.5);
        assert!((lrd.half_width / iid.half_width / want - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lrd_ci_reduces_to_iid_at_h_half() {
        let xs: Vec<f64> = (0..100).map(|i| (i % 7) as f64).collect();
        let a = mean_ci_iid(&xs, 0.95);
        let b = mean_ci_lrd(&xs, 0.95, 0.5);
        assert!((a.half_width - b.half_width).abs() < 1e-12);
    }

    #[test]
    fn prefix_cis_filters_invalid_ns() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let out = prefix_mean_cis(&xs, &[1, 10, 50, 1000], 0.95, 0.8);
        let ns: Vec<usize> = out.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(ns, vec![10, 50]);
    }

    #[test]
    fn contains_is_inclusive() {
        let ci = ConfidenceInterval { mean: 0.0, lo: -1.0, hi: 1.0, half_width: 1.0, n: 10 };
        assert!(ci.contains(1.0) && ci.contains(-1.0) && ci.contains(0.0));
        assert!(!ci.contains(1.000001));
    }
}
