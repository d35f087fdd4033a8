//! Robust LRD generation: Davies–Harte with an exact Hosking fallback.
//!
//! Davies–Harte is `O(n log n)` but requires the circulant embedding of
//! the target autocovariance to be positive semi-definite. For true fGn
//! that holds by theorem; for perturbed or empirically-derived
//! covariances (and, in principle, for pathological round-off) it can
//! fail. [`RobustFgn`] detects the typed
//! [`FgnError::NonPsdEmbedding`] failure and degrades gracefully to
//! Hosking's exact `O(n²)` Durbin–Levinson recursion, recording which
//! engine produced the path and why the fallback fired.

use crate::davies_harte::DaviesHarte;
use crate::error::FgnError;
use crate::hosking::Hosking;
use vbr_stats::obs::{self, Counter};
use vbr_stats::rng::Xoshiro256;

/// Which generator produced a sample path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FgnEngine {
    /// Davies–Harte circulant embedding (`O(n log n)`).
    DaviesHarte,
    /// Hosking Durbin–Levinson fallback (`O(n²)`).
    HoskingFallback,
}

/// A generated path plus provenance.
#[derive(Debug, Clone)]
pub struct RobustFgnResult {
    /// The sample path.
    pub series: Vec<f64>,
    /// Which engine produced it.
    pub engine: FgnEngine,
    /// The Davies–Harte failure that triggered the fallback, if any.
    pub fallback_reason: Option<FgnError>,
}

/// An LRD generator that prefers Davies–Harte and falls back to Hosking.
#[derive(Debug, Clone)]
pub struct RobustFgn {
    hurst: f64,
    variance: f64,
}

impl RobustFgn {
    /// Creates the generator; `H ∈ [0.5, 1)` (so the Hosking fallback is
    /// always available) and `variance > 0`.
    pub fn try_new(hurst: f64, variance: f64) -> Result<Self, FgnError> {
        if !(0.5..1.0).contains(&hurst) {
            return Err(FgnError::InvalidHurst { hurst, lo: 0.5, hi: 1.0 });
        }
        if !(variance > 0.0 && variance.is_finite()) {
            return Err(FgnError::InvalidVariance { variance });
        }
        Ok(RobustFgn { hurst, variance })
    }

    /// The Hurst parameter.
    pub fn hurst(&self) -> f64 {
        self.hurst
    }

    /// Generates `n` points, falling back to Hosking if the circulant
    /// spectrum is not PSD.
    pub fn generate(&self, n: usize, seed: u64) -> RobustFgnResult {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        match DaviesHarte::new(self.hurst, self.variance).try_generate_with(n, &mut rng) {
            Ok(series) => {
                RobustFgnResult { series, engine: FgnEngine::DaviesHarte, fallback_reason: None }
            }
            Err(reason) => {
                obs::counter_add(Counter::HoskingFallback, 1);
                obs::event_with("fgn.hosking_fallback", || format!("n={n}, reason: {reason}"));
                RobustFgnResult {
                    series: Hosking::new(self.hurst, self.variance).generate(n, seed),
                    engine: FgnEngine::HoskingFallback,
                    fallback_reason: Some(reason),
                }
            }
        }
    }

    /// Generates `n` points with the arbitrary stationary autocovariance
    /// `gamma[0..=half]` (unit overall scale). Davies–Harte is attempted
    /// first; when the embedding is not PSD — the realistic trigger, e.g.
    /// a truncated or empirically-estimated covariance — the generator
    /// degrades to the exact parametric fGn path with this generator's
    /// own `H` and variance, reporting why.
    pub fn generate_from_acvf(&self, gamma: &[f64], n: usize, seed: u64) -> RobustFgnResult {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        match DaviesHarte::try_generate_from_acvf(gamma, n, &mut rng) {
            Ok(series) => {
                RobustFgnResult { series, engine: FgnEngine::DaviesHarte, fallback_reason: None }
            }
            Err(reason) => {
                obs::counter_add(Counter::HoskingFallback, 1);
                obs::event_with("fgn.hosking_fallback", || format!("n={n}, reason: {reason}"));
                RobustFgnResult {
                    series: Hosking::new(self.hurst, self.variance).generate(n, seed),
                    engine: FgnEngine::HoskingFallback,
                    fallback_reason: Some(reason),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_params_use_davies_harte() {
        let g = RobustFgn::try_new(0.8, 1.0).unwrap();
        let r = g.generate(4_096, 1);
        assert_eq!(r.engine, FgnEngine::DaviesHarte);
        assert!(r.fallback_reason.is_none());
        assert_eq!(r.series.len(), 4_096);
        assert!(r.series.iter().all(|v| v.is_finite()));
        // Identical to the raw Davies-Harte path: the robust wrapper must
        // not perturb the healthy case.
        assert_eq!(r.series, DaviesHarte::new(0.8, 1.0).generate(4_096, 1));
    }

    #[test]
    fn invalid_params_rejected_with_typed_errors() {
        assert!(matches!(RobustFgn::try_new(0.4, 1.0), Err(FgnError::InvalidHurst { .. })));
        assert!(matches!(RobustFgn::try_new(f64::NAN, 1.0), Err(FgnError::InvalidHurst { .. })));
        assert!(matches!(RobustFgn::try_new(0.8, 0.0), Err(FgnError::InvalidVariance { .. })));
        assert!(matches!(
            RobustFgn::try_new(0.8, f64::INFINITY),
            Err(FgnError::InvalidVariance { .. })
        ));
    }

    #[test]
    fn non_psd_embedding_detected_and_fallback_fires() {
        // γ = [1, 0.8, 0, …]: the circulant eigenvalues are
        // 1 + 1.6 cos(2πj/m), dipping to −0.6 — decisively non-PSD.
        let mut gamma = vec![0.0; 129];
        gamma[0] = 1.0;
        gamma[1] = 0.8;

        let mut rng = Xoshiro256::seed_from_u64(5);
        match DaviesHarte::try_generate_from_acvf(&gamma, 100, &mut rng) {
            Err(FgnError::NonPsdEmbedding { min_eigenvalue, .. }) => {
                assert!(min_eigenvalue < -0.5, "min eigenvalue {min_eigenvalue}")
            }
            other => panic!("expected NonPsdEmbedding, got {other:?}"),
        }

        let g = RobustFgn::try_new(0.8, 1.0).unwrap();
        let r = g.generate_from_acvf(&gamma, 100, 5);
        assert_eq!(r.engine, FgnEngine::HoskingFallback);
        assert!(matches!(r.fallback_reason, Some(FgnError::NonPsdEmbedding { .. })));
        assert_eq!(r.series.len(), 100);
        assert!(r.series.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn valid_custom_acvf_is_embeddable() {
        // MA(1) with ρ₁ = 0.4 < ½: eigenvalues 1 + 0.8 cos θ > 0.
        let mut gamma = vec![0.0; 129];
        gamma[0] = 1.0;
        gamma[1] = 0.4;
        let g = RobustFgn::try_new(0.8, 1.0).unwrap();
        let r = g.generate_from_acvf(&gamma, 128, 7);
        assert_eq!(r.engine, FgnEngine::DaviesHarte);
        assert_eq!(r.series.len(), 128);
    }
}
