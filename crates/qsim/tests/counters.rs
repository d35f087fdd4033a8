//! What the capacity searches write to the process-global counters,
//! pinned exactly. This file holds a single test so that nothing else in
//! its process moves a counter while it measures.

use vbr_fgn::MwmModel;
use vbr_qsim::{try_required_capacity_model, LossMetric, LossTarget, MuxSim};
use vbr_stats::obs::{counter_value, Counter};
use vbr_video::{generate_screenplay, ScreenplayConfig};

/// Bisection levels one replay pass settles (DESIGN.md §10).
const LEVELS_PER_PASS: usize = 4;

/// Counter deltas over `f`: (qc probes, mux runs, overflow slots).
fn deltas(f: impl FnOnce()) -> (u64, u64, u64) {
    let read =
        || [Counter::QcProbes, Counter::MuxRuns, Counter::QueueOverflowSlots].map(counter_value);
    let before = read();
    f();
    let after = read();
    (after[0] - before[0], after[1] - before[1], after[2] - before[2])
}

#[test]
fn searches_count_decisions_passes_and_no_overflow() {
    let trace = generate_screenplay(&ScreenplayConfig::short(500, 3));
    let sim = MuxSim::new(&trace, 3, 9);

    // A one-capacity run is one replay pass and feeds exactly the
    // overflow slots it reports.
    let mut reported = 0;
    let d = deltas(|| reported = sim.run(sim.mean_rate() * 1.02, 200.0).overflow_slots);
    assert!(reported > 0);
    assert_eq!(d, (0, 1, reported));

    for iterations in [0usize, 1, 4, 5, 8, 13] {
        let passes = iterations.div_ceil(LEVELS_PER_PASS) as u64;
        // Trace-driven: one probe per bisection decision, one mux run per
        // pass (all lag combinations together), and the search lanes
        // carry no overflow tally.
        let d = deltas(|| {
            sim.required_capacity(0.002, LossTarget::Rate(1e-3), LossMetric::Overall, iterations);
        });
        assert_eq!(d, (iterations as u64, passes, 0), "trace search, {iterations} iterations");

        // Model-driven: the calibration replay plus one replay per pass.
        let mut model = MwmModel::new(
            vbr_fgn::MwmConfig {
                root_mean: 8_000.0,
                root_sd: 500.0,
                shapes: vec![3.0, 2.5, 2.0, 1.5, 1.2, 1.0],
                nominal_hurst: Some(0.8),
                nominal_mean: 1000.0,
                nominal_variance: 120_000.0,
            },
            11,
        );
        let d = deltas(|| {
            try_required_capacity_model(
                &mut model,
                2_000,
                1.0 / 24.0,
                0.05,
                LossTarget::Zero,
                LossMetric::WorstSecond,
                iterations,
            )
            .unwrap();
        });
        assert_eq!(d, (iterations as u64, 1 + passes, 0), "model search, {iterations} iterations");
    }
}
