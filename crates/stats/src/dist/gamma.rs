//! Gamma distribution, parameterised exactly as the paper's Eq (14):
//! `f_Γ(x) = e^{−λx} λ(λx)^{s−1} / Γ(s)` with *shape* `s` and *scale*
//! (rate) `λ`.

use super::ContinuousDist;
use crate::special::{gamma_p, gamma_q, ln_gamma, norm_quantile};

/// Gamma distribution with shape `s` and rate `λ` (mean `s/λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    rate: f64,
}

impl Gamma {
    /// Creates a Gamma distribution. Panics unless both parameters are
    /// positive.
    pub fn new(shape: f64, rate: f64) -> Self {
        assert!(shape > 0.0, "Gamma requires shape > 0, got {shape}");
        assert!(rate > 0.0, "Gamma requires rate > 0, got {rate}");
        Gamma { shape, rate }
    }

    /// Moment fit, "determined conveniently from the mean and variance"
    /// (paper §4.2): `s = μ²/σ²`, `λ = μ/σ²`.
    pub fn from_moments(mean: f64, std_dev: f64) -> Self {
        assert!(mean > 0.0 && std_dev > 0.0, "Gamma moments must be positive");
        let var = std_dev * std_dev;
        Gamma::new(mean * mean / var, mean / var)
    }

    /// Maximum-likelihood fit. Solves `ln s − ψ(s) = ln x̄ − ln‾x` by
    /// Newton iteration from the Minka starting point, then sets
    /// `λ = s/x̄`. Requires strictly positive data.
    pub fn fit_mle(xs: &[f64]) -> Self {
        assert!(xs.len() >= 2, "MLE fit needs at least 2 observations");
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let mean_log = xs
            .iter()
            .map(|&x| {
                assert!(x > 0.0, "Gamma MLE requires positive data, got {x}");
                x.ln()
            })
            .sum::<f64>()
            / n;
        let c = mean.ln() - mean_log; // always ≥ 0 by Jensen
        assert!(c > 0.0, "degenerate sample (all values equal)");
        // Minka's initialisation.
        let mut s = (3.0 - c + ((c - 3.0).powi(2) + 24.0 * c).sqrt()) / (12.0 * c);
        for _ in 0..50 {
            let f = s.ln() - crate::special::digamma(s) - c;
            // f'(s) = 1/s − ψ'(s); use the approximation ψ'(s) ≈ 1/s + 1/(2s²).
            let fp = 1.0 / s - (1.0 / s + 1.0 / (2.0 * s * s));
            let next = (s - f / fp).max(1e-9);
            if (next - s).abs() < 1e-12 * s {
                s = next;
                break;
            }
            s = next;
        }
        Gamma::new(s, s / mean)
    }

    /// Shape parameter `s`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Rate parameter `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Log-density, exposed for the Gamma/Pareto threshold matching.
    pub fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        -self.rate * x + self.rate.ln() + (self.shape - 1.0) * (self.rate * x).ln()
            - ln_gamma(self.shape)
    }
}

impl ContinuousDist for Gamma {
    fn name(&self) -> &'static str {
        "Gamma"
    }

    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            self.ln_pdf(x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            gamma_p(self.shape, self.rate * x)
        }
    }

    fn ccdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            gamma_q(self.shape, self.rate * x)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile p out of range: {p}");
        if p == 0.0 {
            return 0.0;
        }
        if p == 1.0 {
            return f64::INFINITY;
        }
        // Starting point: Wilson–Hilferty normal approximation, replaced by
        // the small-x asymptotic F(x) ≈ (λx)^s / (s Γ(s)) when it degrades
        // (small shape and/or deep left tail). Then bracketed Newton on the
        // CDF with bisection fallback.
        let s = self.shape;
        let z = norm_quantile(p);
        let c = 1.0 - 1.0 / (9.0 * s) + z / (3.0 * s.sqrt());
        let mut x = if c > 0.2 {
            s * c * c * c / self.rate
        } else {
            // Invert the leading term of the lower-tail series.
            ((p.ln() + ln_gamma(s + 1.0)) / s).exp() / self.rate
        };
        if !x.is_finite() || x <= 0.0 {
            x = s / self.rate;
        }

        let mut lo = 0.0f64;
        let mut hi = f64::INFINITY;
        for _ in 0..128 {
            let f = self.cdf(x) - p;
            if f > 0.0 {
                hi = hi.min(x);
            } else {
                lo = lo.max(x);
            }
            let d = self.pdf(x);
            let mut nx = if d > 0.0 { x - f / d } else { f64::NAN };
            if !nx.is_finite() || nx <= lo || nx >= hi {
                // Newton left the bracket: bisect (geometric mean when the
                // upper bound is still unbounded).
                nx = if hi.is_finite() { 0.5 * (lo + hi) } else { x * 2.0 };
            }
            if (nx - x).abs() <= 1e-14 * x.max(1e-300) {
                return nx;
            }
            x = nx;
        }
        x
    }

    fn mean(&self) -> f64 {
        self.shape / self.rate
    }

    fn variance(&self) -> f64 {
        self.shape / (self.rate * self.rate)
    }

    /// Marsaglia–Tsang squeeze sampling — much faster than quantile
    /// inversion for the millions of slice-weight draws the trace
    /// generator makes.
    fn sample(&self, rng: &mut dyn rand::Rng) -> f64 {
        use crate::rng::open01;
        use crate::special::norm_quantile;
        // Shape boost for s < 1: Gamma(s) = Gamma(s+1) · U^{1/s}.
        let (shape, boost) = if self.shape < 1.0 {
            let u = open01(rng);
            (self.shape + 1.0, u.powf(1.0 / self.shape))
        } else {
            (self.shape, 1.0)
        };
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = norm_quantile(open01(rng));
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = open01(rng);
            let x2 = x * x;
            if u < 1.0 - 0.0331 * x2 * x2 || u.ln() < 0.5 * x2 + d * (1.0 - v3 + v3.ln()) {
                return d * v3 * boost / self.rate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::testutil;

    #[test]
    fn exponential_special_case() {
        // Gamma(1, λ) is Exponential(λ).
        let d = Gamma::new(1.0, 2.0);
        assert!((d.pdf(0.5) - 2.0 * (-1.0f64).exp()).abs() < 1e-12);
        assert!((d.cdf(1.0) - (1.0 - (-2.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn moment_fit_round_trips() {
        let d = Gamma::from_moments(27_791.0, 6_254.0);
        assert!((d.mean() - 27_791.0).abs() < 1e-6);
        assert!((d.variance().sqrt() - 6_254.0).abs() < 1e-6);
        // Paper-scale parameters: s ≈ 19.7.
        assert!((d.shape() - 19.747).abs() < 0.01, "shape {}", d.shape());
    }

    #[test]
    fn quantile_roundtrip_various_shapes() {
        for &(s, r) in &[(0.5, 1.0), (1.0, 0.3), (4.5, 2.0), (19.7, 0.0005)] {
            testutil::check_quantile_roundtrip(&Gamma::new(s, r), 1e-9);
        }
    }

    #[test]
    fn pdf_integrates() {
        testutil::check_pdf_integrates(&Gamma::new(3.0, 1.5), 1e-4);
    }

    #[test]
    fn sampling_moments() {
        testutil::check_sample_moments(&Gamma::new(2.5, 0.5), 100_000, 0.02);
    }

    #[test]
    fn median_of_shape_one() {
        // Exponential median = ln 2 / λ.
        let d = Gamma::new(1.0, 3.0);
        assert!((d.quantile(0.5) - 2.0f64.ln() / 3.0).abs() < 1e-10);
    }

    #[test]
    fn zero_below_support() {
        let d = Gamma::new(2.0, 1.0);
        assert_eq!(d.pdf(-1.0), 0.0);
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.ccdf(-5.0), 1.0);
    }

    #[test]
    fn mle_recovers_parameters() {
        let truth = Gamma::new(3.5, 0.8);
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(31);
        let xs = crate::dist::sample_n(&truth, 100_000, &mut rng);
        let fit = Gamma::fit_mle(&xs);
        assert!((fit.shape() - 3.5).abs() < 0.08, "shape {}", fit.shape());
        assert!((fit.rate() - 0.8).abs() < 0.02, "rate {}", fit.rate());
    }

    #[test]
    fn mle_beats_moments_on_shape_for_skewed_samples() {
        // For small shapes the MLE is markedly more efficient.
        let truth = Gamma::new(0.7, 1.0);
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(32);
        let mut mle_err = 0.0;
        let mut mom_err = 0.0;
        for _ in 0..20 {
            let xs = crate::dist::sample_n(&truth, 2_000, &mut rng);
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let sd = (xs.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt();
            mle_err += (Gamma::fit_mle(&xs).shape() - 0.7).abs();
            mom_err += (Gamma::from_moments(mean, sd).shape() - 0.7).abs();
        }
        assert!(mle_err < mom_err, "MLE {mle_err} vs moments {mom_err}");
    }

    #[test]
    #[should_panic(expected = "positive data")]
    fn mle_rejects_nonpositive() {
        Gamma::fit_mle(&[1.0, -2.0, 3.0]);
    }

    #[test]
    fn extreme_probabilities() {
        let d = Gamma::new(19.7, 0.0005);
        let lo = d.quantile(1e-6);
        let hi = d.quantile(1.0 - 1e-6);
        assert!(lo > 0.0 && hi > lo);
        assert!((d.cdf(lo) - 1e-6).abs() < 1e-9);
        assert!((d.ccdf(hi) - 1e-6).abs() < 1e-9);
    }
}
