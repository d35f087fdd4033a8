//! N-fold convolution of a distribution — the paper's §4.2 device:
//! "To simulate the aggregation of multiple sources, we implemented a
//! convolution of the Gamma/Pareto distribution using a table of 10,000
//! points to describe the distributions."
//!
//! The density is tabulated on a uniform grid and convolved with itself
//! via FFT; the result describes the *marginal* of the instantaneous
//! aggregate of N independent sources, from which bufferless capacity
//! allocations (quantiles) can be read directly.

use super::ContinuousDist;
use vbr_fft::{fft_pow2_in_place, next_pow2, Complex, Direction};

/// A tabulated density on a uniform grid, supporting self-convolution.
#[derive(Debug, Clone)]
pub struct DensityTable {
    /// Left edge of the support grid.
    x0: f64,
    /// Grid step.
    dx: f64,
    /// Probability mass per cell (sums to ≈ 1).
    mass: Vec<f64>,
}

impl DensityTable {
    /// Tabulates a distribution between its `p_lo` and `p_hi` quantiles
    /// with `points` cells (the paper used 10 000 points).
    pub fn from_dist<D: ContinuousDist + ?Sized>(
        dist: &D,
        points: usize,
        p_lo: f64,
        p_hi: f64,
    ) -> Self {
        assert!(points >= 16, "need a reasonable table size");
        assert!(0.0 < p_lo && p_lo < p_hi && p_hi < 1.0);
        let x0 = dist.quantile(p_lo);
        let x1 = dist.quantile(p_hi);
        assert!(x1 > x0);
        let dx = (x1 - x0) / points as f64;
        // Cell mass from CDF differences (exact for the tabulated law).
        let mut mass = Vec::with_capacity(points);
        let mut prev = dist.cdf(x0);
        for i in 1..=points {
            let c = dist.cdf(x0 + i as f64 * dx);
            mass.push((c - prev).max(0.0));
            prev = c;
        }
        // Fold the clipped tails into the end cells so the table is a
        // proper distribution.
        mass[0] += dist.cdf(x0);
        let last = mass.len() - 1;
        mass[last] += 1.0 - prev;
        DensityTable { x0, dx, mass }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.mass.len()
    }

    /// True when the table is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.mass.is_empty()
    }

    /// Mean of the tabulated distribution.
    pub fn mean(&self) -> f64 {
        self.mass.iter().enumerate().map(|(i, &m)| m * (self.x0 + (i as f64 + 0.5) * self.dx)).sum()
    }

    /// Variance of the tabulated distribution.
    pub fn variance(&self) -> f64 {
        let mu = self.mean();
        self.mass
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let x = self.x0 + (i as f64 + 0.5) * self.dx;
                m * (x - mu) * (x - mu)
            })
            .sum()
    }

    /// CDF at `x` (piecewise-constant-density interpolation).
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= self.x0 {
            return 0.0;
        }
        let pos = (x - self.x0) / self.dx;
        let idx = pos as usize;
        if idx >= self.mass.len() {
            return 1.0;
        }
        let below: f64 = self.mass[..idx].iter().sum();
        (below + self.mass[idx] * (pos - idx as f64)).min(1.0)
    }

    /// Quantile: smallest grid point with `CDF ≥ p`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p));
        let mut acc = 0.0;
        for (i, &m) in self.mass.iter().enumerate() {
            acc += m;
            if acc >= p {
                // Linear interpolation within the cell.
                let excess = acc - p;
                let frac = if m > 0.0 { 1.0 - excess / m } else { 1.0 };
                return self.x0 + (i as f64 + frac) * self.dx;
            }
        }
        self.x0 + self.mass.len() as f64 * self.dx
    }

    /// The N-fold convolution: the distribution of the sum of `n`
    /// independent copies. FFT-based, `O(L log L)` with
    /// `L = n·points`.
    pub fn convolve_n(&self, n: usize) -> DensityTable {
        assert!(n >= 1);
        if n == 1 {
            return self.clone();
        }
        let out_len = self.mass.len() * n;
        let m = next_pow2(out_len + 1);
        let mut buf: Vec<Complex> = Vec::with_capacity(m);
        buf.extend(self.mass.iter().map(|&v| Complex::from_re(v)));
        buf.resize(m, Complex::ZERO);
        fft_pow2_in_place(&mut buf, Direction::Forward);
        // Pointwise n-th power of the characteristic vector.
        for z in buf.iter_mut() {
            let mut acc = Complex::ONE;
            let mut base = *z;
            let mut e = n;
            while e > 0 {
                if e & 1 == 1 {
                    acc *= base;
                }
                base *= base;
                e >>= 1;
            }
            *z = acc;
        }
        fft_pow2_in_place(&mut buf, Direction::Inverse);
        let scale = 1.0 / m as f64;
        let mass: Vec<f64> = buf[..out_len].iter().map(|z| (z.re * scale).max(0.0)).collect();
        // Cell masses sit at cell *centres* `x0 + (i+½)dx`; the sum of n
        // centres is `n·x0 + n·dx/2 + (Σi)dx`, so the output origin must
        // carry the (n−1) extra half-cells.
        let x0 = self.x0 * n as f64 + (n as f64 - 1.0) * 0.5 * self.dx;
        DensityTable { x0, dx: self.dx, mass }
    }
}

/// Convenience: the aggregate marginal of `n` independent sources with
/// the given per-source distribution, tabulated at `points` cells.
pub fn aggregate_marginal<D: ContinuousDist + ?Sized>(
    dist: &D,
    n: usize,
    points: usize,
) -> DensityTable {
    DensityTable::from_dist(dist, points, 1e-6, 1.0 - 1e-6).convolve_n(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{GammaPareto, Normal};

    #[test]
    fn table_reproduces_the_source_distribution() {
        let d = Normal::new(10.0, 2.0);
        let t = DensityTable::from_dist(&d, 4_096, 1e-6, 1.0 - 1e-6);
        assert!((t.mean() - 10.0).abs() < 0.01, "mean {}", t.mean());
        assert!((t.variance() - 4.0).abs() < 0.05, "var {}", t.variance());
        for p in [0.1, 0.5, 0.9] {
            assert!(
                (t.quantile(p) - d.quantile(p)).abs() < 0.02,
                "q({p}): {} vs {}",
                t.quantile(p),
                d.quantile(p)
            );
        }
    }

    #[test]
    fn convolution_of_normals_is_normal() {
        // Sum of 4 × N(10, 4) = N(40, 16): check mean, variance and a
        // tail quantile against the closed form.
        let d = Normal::new(10.0, 2.0);
        let agg = aggregate_marginal(&d, 4, 4_096);
        assert!((agg.mean() - 40.0).abs() < 0.05, "mean {}", agg.mean());
        assert!((agg.variance() - 16.0).abs() < 0.2, "var {}", agg.variance());
        let want = Normal::new(40.0, 4.0);
        for p in [0.01, 0.5, 0.99] {
            assert!(
                (agg.quantile(p) - want.quantile(p)).abs() < 0.1,
                "q({p}): {} vs {}",
                agg.quantile(p),
                want.quantile(p)
            );
        }
    }

    #[test]
    fn convolution_moments_scale_linearly() {
        let d = GammaPareto::from_params(27_791.0, 6_254.0, 9.0);
        let base = DensityTable::from_dist(&d, 8_192, 1e-6, 1.0 - 1e-6);
        let agg = base.convolve_n(5);
        assert!(
            (agg.mean() - 5.0 * base.mean()).abs() < 1e-6 * agg.mean(),
            "mean {} vs {}",
            agg.mean(),
            5.0 * base.mean()
        );
        assert!(
            (agg.variance() - 5.0 * base.variance()).abs() < 1e-4 * agg.variance(),
            "var {} vs {}",
            agg.variance(),
            5.0 * base.variance()
        );
    }

    #[test]
    fn aggregate_peak_to_mean_shrinks_with_n() {
        // The §3 observation that multiplexing compresses the marginal:
        // the 1e-6-quantile-to-mean ratio falls as N grows.
        let d = GammaPareto::from_params(27_791.0, 6_254.0, 9.0);
        let ratios: Vec<f64> = [1usize, 5, 20]
            .iter()
            .map(|&n| {
                let agg = aggregate_marginal(&d, n, 4_096);
                agg.quantile(1.0 - 1e-6) / agg.mean()
            })
            .collect();
        assert!(ratios[0] > ratios[1] && ratios[1] > ratios[2], "{ratios:?}");
        // N = 20 should be within ~25% of the mean at the 1−1e-6 quantile.
        assert!(ratios[2] < 1.35, "N=20 quantile/mean {}", ratios[2]);
    }

    #[test]
    fn convolution_quantile_matches_bufferless_simulation() {
        // The convolution's tail quantile predicts the capacity a
        // bufferless multiplexer needs for the same loss target on
        // *uncorrelated* traffic — LRD does not matter with no buffer.
        let d = GammaPareto::from_params(27_791.0, 6_254.0, 9.0);
        let n = 5usize;
        let agg = aggregate_marginal(&d, n, 8_192);
        let predicted = agg.quantile(1.0 - 1e-3); // bytes/frame aggregate

        // Simulate: iid draws, count the fraction exceeding the level.
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(11);
        let mut over = 0usize;
        let trials = 200_000;
        for _ in 0..trials {
            let sum: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
            if sum > predicted {
                over += 1;
            }
        }
        let rate = over as f64 / trials as f64;
        assert!(rate < 3e-3 && rate > 1e-4, "exceedance rate {rate} should straddle 1e-3");
    }

    #[test]
    fn cdf_and_quantile_are_inverse() {
        let d = Normal::new(0.0, 1.0);
        let t = DensityTable::from_dist(&d, 2_048, 1e-5, 1.0 - 1e-5);
        for p in [0.05, 0.3, 0.7, 0.95] {
            let x = t.quantile(p);
            assert!((t.cdf(x) - p).abs() < 1e-3, "p={p}: cdf back {}", t.cdf(x));
        }
    }
}
