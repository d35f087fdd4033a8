//! Property-based tests for the source model, including adversarial
//! inputs: corrupt series must come back as typed errors, never panics.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use vbr_model::{try_estimate_series, Dar1, EstimateOptions, ModelError, ModelParams, SourceModel};
use vbr_stats::error::DataError;

fn params_strategy() -> impl Strategy<Value = ModelParams> {
    (
        1e2f64..1e6,   // mu
        0.05f64..0.6,  // CoV
        1.5f64..15.0,  // tail slope
        0.55f64..0.95, // H
    )
        .prop_map(|(mu, cv, a, h)| ModelParams::new(mu, mu * cv, a, h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_frames_positive_and_finite(p in params_strategy(), seed in 0u64..1000) {
        let m = SourceModel::full(p);
        let xs = m.generate_frames(512, seed);
        prop_assert_eq!(xs.len(), 512);
        for &x in &xs {
            prop_assert!(x > 0.0 && x.is_finite());
        }
    }

    #[test]
    fn generation_is_deterministic(p in params_strategy(), seed in 0u64..1000) {
        let m = SourceModel::full(p);
        prop_assert_eq!(m.generate_frames(128, seed), m.generate_frames(128, seed));
    }

    #[test]
    fn trace_conserves_frame_bytes(p in params_strategy(), spf in 1usize..40) {
        let m = SourceModel::full(p);
        let t = m.generate_trace(64, 24.0, spf, 9);
        let frames = m.generate_frames(64, 9);
        for (i, &fb) in frames.iter().enumerate() {
            prop_assert_eq!(t.frame_bytes(i) as u64, fb.round() as u64);
        }
    }

    #[test]
    fn sample_mean_tracks_marginal_mean(p in params_strategy()) {
        use vbr_stats::dist::ContinuousDist;
        let m = SourceModel::iid_gamma_pareto(p); // iid: fast convergence
        let xs = m.generate_frames(20_000, 3);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let want = p.marginal().mean();
        prop_assert!(
            (mean - want).abs() / want < 0.08,
            "sample mean {mean} vs marginal mean {want}"
        );
    }

    #[test]
    fn dar1_holds_values_with_probability_rho(
        p in params_strategy(),
        rho in 0.0f64..0.98,
    ) {
        let d = Dar1::new(p.marginal(), rho);
        let xs = d.generate_frames(8_000, 5);
        // Fraction of repeats ≈ rho (continuous marginal ⇒ redraws differ).
        let repeats = xs.windows(2).filter(|w| w[0] == w[1]).count() as f64
            / (xs.len() - 1) as f64;
        prop_assert!(
            (repeats - rho).abs() < 0.05,
            "repeat fraction {repeats} vs rho {rho}"
        );
    }

    #[test]
    fn gaussian_variant_matches_requested_moments(p in params_strategy()) {
        let m = SourceModel::gaussian_marginal(p);
        let n = 20_000usize;
        let xs = m.generate_frames(n, 7);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        // The Fig 9 lesson applies to this very test: under LRD the sample
        // mean has std dev ~ sigma·n^{H-1}, so the band must widen with H.
        let band = 5.0 * (p.sigma_gamma / p.mu_gamma) * (n as f64).powf(p.hurst - 1.0);
        prop_assert!(
            (mean - p.mu_gamma).abs() / p.mu_gamma < band.max(0.05),
            "mean {mean} vs mu {} (band {band:.3})",
            p.mu_gamma
        );
        prop_assert!(xs.iter().all(|&x| x >= 0.0));
    }

    // --- Adversarial inputs: typed Err, never a panic -------------------

    #[test]
    fn short_series_is_typed_error_not_panic(
        xs in prop::collection::vec(0.1f64..1e6, 1..999),
    ) {
        let out = catch_unwind(AssertUnwindSafe(|| {
            try_estimate_series(&xs, &EstimateOptions::default())
        }));
        prop_assert!(out.is_ok(), "try_estimate_series panicked on a short series");
        let too_short =
            matches!(out.unwrap(), Err(ModelError::Data(DataError::TooShort { .. })));
        prop_assert!(too_short, "expected a TooShort error");
    }

    #[test]
    fn constant_series_is_typed_error_not_panic(
        v in 0.1f64..1e6,
        n in 1_000usize..3_000,
    ) {
        let xs = vec![v; n];
        prop_assert!(matches!(
            try_estimate_series(&xs, &EstimateOptions::default()),
            Err(ModelError::Data(DataError::ZeroVariance))
        ));
    }

    #[test]
    fn nan_spiked_series_is_typed_error_not_panic(
        seed in 0u64..1000,
        frac in 0.0f64..1.0,
        spike_inf in 0usize..2,
    ) {
        let mut xs = SourceModel::full(ModelParams::paper_frame_defaults())
            .generate_frames(2_000, seed);
        let idx = ((xs.len() - 1) as f64 * frac) as usize;
        xs[idx] = if spike_inf == 1 { f64::INFINITY } else { f64::NAN };
        match try_estimate_series(&xs, &EstimateOptions::default()) {
            Err(ModelError::Data(DataError::NonFiniteSample { index, .. })) => {
                prop_assert_eq!(index, idx);
            }
            other => prop_assert!(false, "expected NonFiniteSample, got {:?}", other),
        }
    }

    #[test]
    fn try_new_agrees_with_domain_predicate(
        mu in -1e3f64..1e6,
        sigma in -1e3f64..1e6,
        slope in -5.0f64..20.0,
        h in -0.5f64..1.5,
    ) {
        let valid = mu > 0.0 && sigma > 0.0 && slope > 0.0 && (0.5..1.0).contains(&h);
        prop_assert_eq!(ModelParams::try_new(mu, sigma, slope, h).is_ok(), valid);
    }
}
