//! The hybrid Gamma/Pareto marginal distribution `F_{Γ/P}` of §4.2.
//!
//! A Gamma body (fitted from `μ_Γ`, `σ_Γ`) is spliced to a Pareto tail of
//! log-log slope `−m_T`. The splice point `x_th` is where the two
//! log-densities have equal slope; density continuity there eliminates the
//! Pareto `k` parameter ("matching the slope and position of the two
//! functions"), and the piecewise density is renormalised to integrate
//! to one.

use super::{ContinuousDist, Gamma, Pareto};

/// Hybrid Gamma/Pareto distribution, fully determined by the three paper
/// parameters `μ_Γ`, `σ_Γ` and tail slope `m_T`.
#[derive(Debug, Clone, Copy)]
pub struct GammaPareto {
    gamma: Gamma,
    /// Pareto tail index `a = m_T`.
    tail_slope: f64,
    /// Splice threshold.
    x_th: f64,
    /// Unnormalised Gamma mass below `x_th`, i.e. `F_Γ(x_th)`.
    body_mass: f64,
    /// Unnormalised Pareto mass above `x_th` (`f_Γ(x_th)·x_th / a`).
    tail_mass: f64,
    /// Normalising constant `Z = body_mass + tail_mass`.
    norm: f64,
    /// Gamma density at the threshold (cached).
    pdf_th: f64,
}

impl GammaPareto {
    /// Builds the hybrid from the three paper parameters.
    ///
    /// `mu_gamma`/`sigma_gamma` are the equivalent mean and standard
    /// deviation of the Gamma portion; `tail_slope` (`m_T`) is the Pareto
    /// tail index read off the log-log CCDF.
    pub fn from_params(mu_gamma: f64, sigma_gamma: f64, tail_slope: f64) -> Self {
        assert!(tail_slope > 0.0, "tail slope must be positive, got {tail_slope}");
        let gamma = Gamma::from_moments(mu_gamma, sigma_gamma);
        Self::from_gamma(gamma, tail_slope)
    }

    /// Builds the hybrid from an explicit Gamma body and tail slope.
    pub fn from_gamma(gamma: Gamma, tail_slope: f64) -> Self {
        assert!(tail_slope > 0.0, "tail slope must be positive, got {tail_slope}");
        // Log-density slopes match where (s−1)/x − λ = −(a+1)/x, i.e.
        // x_th = (s + a) / λ.
        let x_th = (gamma.shape() + tail_slope) / gamma.rate();
        let pdf_th = gamma.pdf(x_th);
        let body_mass = gamma.cdf(x_th);
        let tail_mass = pdf_th * x_th / tail_slope;
        let norm = body_mass + tail_mass;
        GammaPareto { gamma, tail_slope, x_th, body_mass, tail_mass, norm, pdf_th }
    }

    /// The Gamma body.
    pub fn gamma(&self) -> &Gamma {
        &self.gamma
    }

    /// Pareto tail index `m_T`.
    pub fn tail_slope(&self) -> f64 {
        self.tail_slope
    }

    /// The splice threshold `x_th`.
    pub fn threshold(&self) -> f64 {
        self.x_th
    }

    /// Fraction of probability mass in the Pareto tail
    /// (≈ 3 % for the paper's trace).
    pub fn tail_fraction(&self) -> f64 {
        self.tail_mass / self.norm
    }

    /// Equivalent Pareto distribution of the tail piece (for plotting the
    /// straight reference line in Fig 4).
    pub fn tail_pareto(&self) -> Pareto {
        // k chosen so that a·k^a / x^{a+1} equals our tail density:
        // k = x_th · (tail density scale / a)^{1/a}; with density
        // continuity this is k = x_th (f_Γ(x_th) x_th / a)^{1/a} / Z^{1/a}.
        let a = self.tail_slope;
        let ka = self.pdf_th * self.x_th.powf(a + 1.0) / (a * self.norm);
        Pareto::new(ka.powf(1.0 / a), a)
    }
}

impl ContinuousDist for GammaPareto {
    fn name(&self) -> &'static str {
        "Gamma/Pareto"
    }

    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x <= self.x_th {
            self.gamma.pdf(x) / self.norm
        } else {
            self.pdf_th * (self.x_th / x).powf(self.tail_slope + 1.0) / self.norm
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x <= self.x_th {
            self.gamma.cdf(x) / self.norm
        } else {
            let tail_done = self.tail_mass * (1.0 - (self.x_th / x).powf(self.tail_slope));
            (self.body_mass + tail_done) / self.norm
        }
    }

    fn ccdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else if x <= self.x_th {
            // Accurate complementary form: Q_Γ(x) + tail mass, normalised.
            (self.gamma.ccdf(x) - (1.0 - self.body_mass) + self.tail_mass) / self.norm
        } else {
            self.tail_mass * (self.x_th / x).powf(self.tail_slope) / self.norm
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile p out of range: {p}");
        if p == 1.0 {
            return f64::INFINITY;
        }
        let p_th = self.body_mass / self.norm;
        if p <= p_th {
            self.gamma.quantile((p * self.norm).min(1.0))
        } else {
            // Invert the tail piece: 1 − p = tail_mass (x_th/x)^a / Z.
            let frac = self.norm * (1.0 - p) / self.tail_mass;
            self.x_th / frac.powf(1.0 / self.tail_slope)
        }
    }

    fn mean(&self) -> f64 {
        // Body: ∫₀^{x_th} x f_Γ = μ_Γ P(s+1, λ x_th) (Gamma identity);
        // tail: ∫_{x_th}^∞ x · c (x_th/x)^{a+1} dx = c x_th² / (a−1),
        // where c = f_Γ(x_th) (a > 1 for a finite mean).
        let s = self.gamma.shape();
        let l = self.gamma.rate();
        let body = self.gamma.mean() * crate::special::gamma_p(s + 1.0, l * self.x_th);
        let tail = if self.tail_slope > 1.0 {
            self.pdf_th * self.x_th * self.x_th / (self.tail_slope - 1.0)
        } else {
            f64::INFINITY
        };
        (body + tail) / self.norm
    }

    fn variance(&self) -> f64 {
        if self.tail_slope <= 2.0 {
            return f64::INFINITY;
        }
        // E[X²]: body via P(s+2, ·); tail: c x_th³ / (a−2).
        let s = self.gamma.shape();
        let l = self.gamma.rate();
        let ex2_body = (s * (s + 1.0) / (l * l)) * crate::special::gamma_p(s + 2.0, l * self.x_th);
        let ex2_tail = self.pdf_th * self.x_th.powi(3) / (self.tail_slope - 2.0);
        let ex2 = (ex2_body + ex2_tail) / self.norm;
        let m = self.mean();
        ex2 - m * m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::testutil;

    fn paper_like() -> GammaPareto {
        // Paper-scale frame marginal: μ = 27 791, σ = 6 254, m_T ≈ 9.
        GammaPareto::from_params(27_791.0, 6_254.0, 9.0)
    }

    #[test]
    fn density_is_continuous_at_threshold() {
        let d = paper_like();
        let x = d.threshold();
        let below = d.pdf(x * (1.0 - 1e-9));
        let above = d.pdf(x * (1.0 + 1e-9));
        assert!((below - above).abs() / below < 1e-6, "{below} vs {above}");
    }

    #[test]
    fn log_density_slope_matches_at_threshold() {
        let d = paper_like();
        let x = d.threshold();
        let h = x * 1e-6;
        let slope_below = (d.pdf(x - h).ln() - d.pdf(x - 3.0 * h).ln()) / (2.0 * h);
        let slope_above = (d.pdf(x + 3.0 * h).ln() - d.pdf(x + h).ln()) / (2.0 * h);
        assert!(
            (slope_below - slope_above).abs() < 1e-3 * slope_below.abs(),
            "{slope_below} vs {slope_above}"
        );
    }

    #[test]
    fn integrates_to_one() {
        testutil::check_pdf_integrates(&paper_like(), 1e-3);
    }

    #[test]
    fn cdf_monotone_and_normalised() {
        let d = paper_like();
        let mut prev = 0.0;
        for i in 1..=200 {
            let x = i as f64 * 500.0;
            let c = d.cdf(x);
            assert!(c >= prev - 1e-15, "cdf not monotone at {x}");
            assert!((0.0..=1.0).contains(&c));
            prev = c;
        }
        assert!(d.cdf(1e9) > 1.0 - 1e-6);
    }

    #[test]
    fn ccdf_complementarity() {
        let d = paper_like();
        for &x in &[5_000.0, 20_000.0, 40_000.0, 60_000.0, 120_000.0] {
            assert!((d.cdf(x) + d.ccdf(x) - 1.0).abs() < 1e-10, "x={x}");
        }
    }

    #[test]
    fn quantile_roundtrip_both_pieces() {
        let d = paper_like();
        testutil::check_quantile_roundtrip(&d, 1e-8);
        // Deep in the Pareto tail specifically:
        for &p in &[0.995, 0.9999, 1.0 - 1e-7] {
            let x = d.quantile(p);
            assert!(x > d.threshold());
            assert!((d.cdf(x) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn tail_fraction_is_small_for_paper_params() {
        // The paper notes the heavy tail holds ≈ 3 % of the data.
        let d = paper_like();
        let f = d.tail_fraction();
        assert!(f > 0.005 && f < 0.10, "tail fraction {f}");
    }

    #[test]
    fn tail_is_pure_power_law() {
        let d = paper_like();
        let x1 = d.threshold() * 2.0;
        let x2 = d.threshold() * 20.0;
        let slope = (d.ccdf(x2).ln() - d.ccdf(x1).ln()) / (x2.ln() - x1.ln());
        assert!((slope + d.tail_slope()).abs() < 1e-9, "slope {slope}");
    }

    #[test]
    fn mean_close_to_gamma_mean() {
        // With only ~3 % tail mass the hybrid mean stays near μ_Γ.
        let d = paper_like();
        let rel = (d.mean() - 27_791.0).abs() / 27_791.0;
        assert!(rel < 0.05, "mean {} rel err {rel}", d.mean());
    }

    #[test]
    fn mean_matches_numerical_integral() {
        let d = GammaPareto::from_params(100.0, 30.0, 5.0);
        // Integrate x f(x) numerically out to the 1−1e-9 quantile.
        let hi = d.quantile(1.0 - 1e-9);
        let steps = 400_000;
        let h = hi / steps as f64;
        let mut m = 0.0;
        for i in 0..steps {
            let x = (i as f64 + 0.5) * h;
            m += x * d.pdf(x) * h;
        }
        assert!((m - d.mean()).abs() / d.mean() < 1e-3, "{m} vs {}", d.mean());
    }

    #[test]
    fn variance_matches_numerical_integral() {
        let d = GammaPareto::from_params(100.0, 30.0, 6.0);
        let hi = d.quantile(1.0 - 1e-10);
        let steps = 400_000;
        let h = hi / steps as f64;
        let mut ex2 = 0.0;
        for i in 0..steps {
            let x = (i as f64 + 0.5) * h;
            ex2 += x * x * d.pdf(x) * h;
        }
        let var = ex2 - d.mean() * d.mean();
        assert!((var - d.variance()).abs() / d.variance() < 5e-3, "{var} vs {}", d.variance());
    }

    #[test]
    fn infinite_moments_for_small_tail_index() {
        let d = GammaPareto::from_params(100.0, 30.0, 0.9);
        assert_eq!(d.mean(), f64::INFINITY);
        assert_eq!(d.variance(), f64::INFINITY);
        let d2 = GammaPareto::from_params(100.0, 30.0, 1.5);
        assert!(d2.mean().is_finite());
        assert_eq!(d2.variance(), f64::INFINITY);
    }

    #[test]
    fn sampling_matches_quantiles() {
        let d = paper_like();
        let mut rng = crate::rng::Xoshiro256::seed_from_u64(99);
        let mut xs = crate::dist::sample_n(&d, 100_000, &mut rng);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Empirical median and 99th percentile should match quantiles.
        let med = xs[xs.len() / 2];
        assert!((med - d.quantile(0.5)).abs() / med < 0.01);
        let p99 = xs[(xs.len() as f64 * 0.99) as usize];
        assert!((p99 - d.quantile(0.99)).abs() / p99 < 0.03);
    }
}
