//! Cross-crate integration tests: the full analyse → model → generate →
//! simulate loop, exercised through the meta-crate's public API.

use vbr::prelude::*;

/// The §4 pipeline: a trace's parameters survive a full
/// estimate → generate → re-estimate round trip.
#[test]
fn estimate_generate_reestimate_round_trip() {
    let trace = generate_screenplay(&ScreenplayConfig::short(40_000, 101));
    let opts = EstimateOptions { hurst_method: HurstMethod::VarianceTime, ..Default::default() };
    let est1 = estimate_trace(&trace, &opts);

    let model = SourceModel::full(est1.params);
    let synthetic = model.generate_trace(40_000, 24.0, 30, 202);
    let est2 = estimate_trace(&synthetic, &opts);

    let p1 = est1.params;
    let p2 = est2.params;
    assert!(
        (p1.mu_gamma - p2.mu_gamma).abs() / p1.mu_gamma < 0.05,
        "mean drifted: {} vs {}",
        p1.mu_gamma,
        p2.mu_gamma
    );
    assert!(
        (p1.sigma_gamma - p2.sigma_gamma).abs() / p1.sigma_gamma < 0.25,
        "sigma drifted: {} vs {}",
        p1.sigma_gamma,
        p2.sigma_gamma
    );
    assert!((p1.hurst - p2.hurst).abs() < 0.15, "H drifted: {} vs {}", p1.hurst, p2.hurst);
}

/// The Table 3 consistency claim: on a pure LRD input every estimator in
/// the suite lands near the truth.
#[test]
fn hurst_estimator_suite_is_consistent() {
    let h = 0.8;
    let series: Vec<f64> =
        DaviesHarte::new(h, 1.0).generate(100_000, 31).into_iter().map(|v| v + 20.0).collect();
    let rep = hurst_report(&series, &ReportOptions::default());
    for (name, est) in rep.estimates() {
        assert!((est - h).abs() < 0.13, "{name}: {est} vs truth {h}");
    }
}

/// The §5 headline: multiplexing N sources cuts per-source capacity from
/// near peak towards the mean, and most of the gain arrives early.
#[test]
fn multiplexing_gain_shape() {
    let trace = generate_screenplay(&ScreenplayConfig::short(6_000, 303));
    let pts =
        smg_curve(&trace, &[1, 5, 15], 0.002, LossTarget::Rate(1e-3), LossMetric::Overall, 18, 7);
    assert!(pts[0].capacity_per_source > pts[1].capacity_per_source);
    assert!(pts[1].capacity_per_source >= pts[2].capacity_per_source * 0.98);
    // Most of the achievable gain is realised by N = 5.
    assert!(
        pts[1].gain_realized > 0.5 * pts[2].gain_realized,
        "gain at 5: {}, at 15: {}",
        pts[1].gain_realized,
        pts[2].gain_realized
    );
}

/// The Fig 16 ordering on a positive loss target with a large buffer:
/// ignoring LRD (i.i.d.) or the heavy tail (Gaussian) underestimates the
/// required capacity relative to the LRD + heavy-tail trace.
#[test]
fn srd_models_are_optimistic() {
    let trace = generate_screenplay(&ScreenplayConfig::short(20_000, 404));
    let est = estimate_trace(
        &trace,
        &EstimateOptions { hurst_method: HurstMethod::VarianceTime, ..Default::default() },
    );
    let t_max = 0.05; // large buffer: correlation structure matters most
    let target = LossTarget::Rate(1e-4);
    let cap =
        |t: &Trace| MuxSim::new(t, 1, 9).required_capacity(t_max, target, LossMetric::Overall, 20);
    let c_trace = cap(&trace);
    let c_gauss =
        cap(&SourceModel::gaussian_marginal(est.params).generate_trace(20_000, 24.0, 30, 505));
    let c_iid =
        cap(&SourceModel::iid_gamma_pareto(est.params).generate_trace(20_000, 24.0, 30, 505));
    assert!(
        c_gauss < c_trace,
        "Gaussian-marginal model should be optimistic: {c_gauss} vs {c_trace}"
    );
    assert!(c_iid < c_trace, "i.i.d. model should be optimistic: {c_iid} vs {c_trace}");
}

/// Trace persistence round-trips through the binary format.
#[test]
fn trace_save_load_round_trip() {
    let trace = generate_screenplay(&ScreenplayConfig::short(500, 606));
    let path = std::env::temp_dir().join("vbr_it_trace.bin");
    trace.save(&path).unwrap();
    let back = Trace::load(&path).unwrap();
    assert_eq!(back, trace);
    std::fs::remove_file(&path).ok();
}

/// The codec chain produces a decodable bitstream whose per-slice sizes
/// form a valid trace.
#[test]
fn codec_to_trace_pipeline() {
    let scene = SceneSynthesizer::new(SceneSpec::action(7));
    let (w, h) = (64, 64);
    let training: Vec<Frame> = (0..3).map(|t| scene.frame(t, w, h)).collect();
    let coder =
        IntraframeCoder::train(CoderConfig { quant_step: 16.0, slices_per_frame: 4 }, &training);
    let mut slice_bytes = Vec::new();
    for t in 0..24 {
        let frame = scene.frame(t, w, h);
        let coded = coder.code_frame(&frame);
        // Decodable:
        let recon = coder.decode_frame(&coded, w, h);
        assert!(vbr::video::psnr(&frame, &recon) > 25.0);
        slice_bytes.extend(coded.slice_bytes());
    }
    let trace = Trace::from_slices(slice_bytes, 4, 24.0);
    assert_eq!(trace.frames(), 24);
    assert!(trace.summary_frame().mean > 0.0);
}

/// Determinism across the whole stack: same seeds, same trace, same
/// capacity answer.
#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let trace = generate_screenplay(&ScreenplayConfig::short(3_000, 42));
        let sim = MuxSim::new(&trace, 2, 7);
        sim.required_capacity(0.002, LossTarget::Rate(1e-3), LossMetric::Overall, 16)
    };
    assert_eq!(run(), run());
}
