//! Round-trip validation: generate from known parameters, re-estimate,
//! compare. "The realizations were tested and found to agree with the
//! model parameters, both in marginal distribution and the value of H"
//! (§4.2).

use crate::estimate::{estimate_series, EstimateOptions, HurstMethod};
use crate::generate::SourceModel;
use crate::params::ModelParams;

/// Result of a round-trip validation run.
#[derive(Debug, Clone)]
pub struct Validation {
    /// The parameters the traffic was generated from.
    pub truth: ModelParams,
    /// The parameters re-estimated from the realisation.
    pub recovered: ModelParams,
    /// Relative error of the mean.
    pub mean_rel_err: f64,
    /// Relative error of the standard deviation.
    pub sigma_rel_err: f64,
    /// Absolute error of H.
    pub hurst_abs_err: f64,
    /// Relative error of the tail slope.
    pub tail_rel_err: f64,
}

impl Validation {
    /// True when every recovered parameter is within the given tolerances.
    pub fn within(&self, rel_tol: f64, hurst_tol: f64, tail_rel_tol: f64) -> bool {
        self.mean_rel_err < rel_tol
            && self.sigma_rel_err < rel_tol * 2.0
            && self.hurst_abs_err < hurst_tol
            && self.tail_rel_err < tail_rel_tol
    }
}

/// Generates `n` frames from the model and re-estimates its parameters.
pub fn round_trip(model: &SourceModel, n: usize, seed: u64) -> Validation {
    let series = model.generate_frames(n, seed);
    let est = estimate_series(
        &series,
        &EstimateOptions { hurst_method: HurstMethod::VarianceTime, ..Default::default() },
    );
    let truth = model.params;
    let rec = est.params;
    Validation {
        mean_rel_err: (rec.mu_gamma - truth.mu_gamma).abs() / truth.mu_gamma,
        sigma_rel_err: (rec.sigma_gamma - truth.sigma_gamma).abs() / truth.sigma_gamma,
        hurst_abs_err: (rec.hurst - truth.hurst).abs(),
        tail_rel_err: (rec.tail_slope - truth.tail_slope).abs() / truth.tail_slope,
        truth,
        recovered: rec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_model_round_trips() {
        let model = SourceModel::full(ModelParams::paper_frame_defaults());
        let v = round_trip(&model, 120_000, 42);
        // LRD sample means converge slowly (the Fig 9 phenomenon), so
        // the tolerance is wider than an i.i.d. CI would suggest.
        assert!(v.mean_rel_err < 0.06, "mean err {}", v.mean_rel_err);
        assert!(v.sigma_rel_err < 0.15, "sigma err {}", v.sigma_rel_err);
        assert!(v.hurst_abs_err < 0.08, "H err {}", v.hurst_abs_err);
        // Tail slope estimation from 120k points of a 3 %-mass tail is
        // noisy but should land in the right regime.
        assert!(v.tail_rel_err < 0.8, "tail err {}", v.tail_rel_err);
    }

    #[test]
    fn iid_variant_recovers_h_half_clamped() {
        let model = SourceModel::iid_gamma_pareto(ModelParams::paper_frame_defaults());
        let v = round_trip(&model, 60_000, 7);
        // White input → estimated H near 0.5 (clamped at the boundary).
        assert!(v.recovered.hurst < 0.6, "H {}", v.recovered.hurst);
    }

    #[test]
    fn within_predicate() {
        let model = SourceModel::full(ModelParams::paper_frame_defaults());
        let v = round_trip(&model, 60_000, 8);
        assert!(v.within(0.1, 0.12, 1.0));
        assert!(!v.within(1e-9, 1e-9, 1e-9));
    }
}
