//! The model's four parameters (§4.2): "We have designed and implemented
//! a model for variable rate video with only four parameters (μ_Γ, σ_Γ,
//! and m_T for the marginal distribution, and H for the time
//! correlation)."

use vbr_stats::dist::GammaPareto;
use vbr_stats::error::{check_in_range, check_positive_param, NumericError};

/// The complete parameter set of the VBR video source model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Equivalent mean of the Gamma portion of the marginal (bytes per
    /// frame interval).
    pub mu_gamma: f64,
    /// Equivalent standard deviation of the Gamma portion.
    pub sigma_gamma: f64,
    /// Pareto tail slope `m_T` of the marginal's log-log CCDF.
    pub tail_slope: f64,
    /// Hurst parameter of the long-range-dependent correlation structure.
    pub hurst: f64,
}

impl ModelParams {
    /// Creates a parameter set, validating every range. Panics on invalid
    /// input; [`try_new`](Self::try_new) is the fallible equivalent.
    pub fn new(mu_gamma: f64, sigma_gamma: f64, tail_slope: f64, hurst: f64) -> Self {
        Self::try_new(mu_gamma, sigma_gamma, tail_slope, hurst).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`new`](Self::new): rejects non-positive or non-finite
    /// marginal parameters and `H ∉ [0.5, 1)` with typed errors.
    pub fn try_new(
        mu_gamma: f64,
        sigma_gamma: f64,
        tail_slope: f64,
        hurst: f64,
    ) -> Result<Self, NumericError> {
        let params = ModelParams { mu_gamma, sigma_gamma, tail_slope, hurst };
        params.validate()?;
        Ok(params)
    }

    /// Checks every parameter range, returning the first violation.
    pub fn validate(&self) -> Result<(), NumericError> {
        check_positive_param("mu_gamma", self.mu_gamma)?;
        check_positive_param("sigma_gamma", self.sigma_gamma)?;
        check_positive_param("tail_slope", self.tail_slope)?;
        check_in_range("hurst", self.hurst, 0.5, 1.0)?;
        Ok(())
    }

    /// The parameters the paper reports for the Star Wars trace:
    /// μ = 27 791 B/frame, σ = 6 254, H ≈ 0.8 (m_T is read off Fig 4; we
    /// use the value our synthetic trace is calibrated to).
    pub fn paper_frame_defaults() -> Self {
        ModelParams::new(27_791.0, 6_254.0, 9.0, 0.8)
    }

    /// The marginal distribution implied by the parameters.
    pub fn marginal(&self) -> GammaPareto {
        GammaPareto::from_params(self.mu_gamma, self.sigma_gamma, self.tail_slope)
    }

    /// Coefficient of variation σ_Γ/μ_Γ.
    pub fn coef_variation(&self) -> f64 {
        self.sigma_gamma / self.mu_gamma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_stats::dist::ContinuousDist;

    #[test]
    fn paper_defaults_are_valid() {
        let p = ModelParams::paper_frame_defaults();
        assert!((p.coef_variation() - 0.225).abs() < 0.01);
        let m = p.marginal();
        assert!((m.mean() - 27_791.0).abs() / 27_791.0 < 0.05);
    }

    #[test]
    fn marginal_tail_has_requested_slope() {
        let p = ModelParams::new(100.0, 25.0, 4.0, 0.75);
        let m = p.marginal();
        let x1 = m.threshold() * 2.0;
        let x2 = m.threshold() * 8.0;
        let slope = (m.ccdf(x2).ln() - m.ccdf(x1).ln()) / (x2.ln() - x1.ln());
        assert!((slope + 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "hurst must be in")]
    fn rejects_srd_hurst_below_half() {
        ModelParams::new(100.0, 10.0, 5.0, 0.4);
    }

    #[test]
    #[should_panic(expected = "mu_gamma must be positive")]
    fn rejects_nonpositive_mean() {
        ModelParams::new(0.0, 10.0, 5.0, 0.8);
    }
}
