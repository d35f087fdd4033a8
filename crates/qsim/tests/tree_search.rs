//! The capacity searches run as a tree (several bisection levels per
//! replay pass). They must return exactly what the plain serial
//! bisection returns: one `MuxSim::run` per level for a stored trace, one
//! `restore` + `run_source_queue` per level for a traffic model. The
//! references below are written against the public API only.

use proptest::prelude::*;
use vbr_fgn::stream::BlockSource;
use vbr_fgn::traffic::TrafficModel;
use vbr_fgn::{MwmConfig, MwmModel, TraceReplay};
use vbr_qsim::{run_source_queue, try_required_capacity_model, LossMetric, LossTarget, MuxSim};
use vbr_video::{generate_screenplay, ScreenplayConfig};

fn met(v: f64, target: LossTarget) -> bool {
    match target {
        LossTarget::Zero => v == 0.0,
        LossTarget::Rate(r) => v <= r,
    }
}

/// Serial trace-driven bisection: one full multiplexer run per level.
fn serial_trace(
    sim: &MuxSim,
    t_max: f64,
    target: LossTarget,
    metric: LossMetric,
    iterations: usize,
) -> f64 {
    *serial_trace_path(sim, t_max, target, metric, iterations).last().unwrap()
}

/// The serial bisection's answer after 0, 1, …, `iterations` levels.
fn serial_trace_path(
    sim: &MuxSim,
    t_max: f64,
    target: LossTarget,
    metric: LossMetric,
    iterations: usize,
) -> Vec<f64> {
    let mut lo = sim.mean_rate();
    let mut hi = sim.peak_slot_rate().max(lo * 1.001);
    let mut path = vec![hi];
    for _ in 0..iterations {
        let mid = 0.5 * (lo + hi);
        let loss = sim.run(mid, t_max * mid);
        let v = match metric {
            LossMetric::Overall => loss.p_l,
            LossMetric::WorstSecond => loss.p_wes,
        };
        if met(v, target) {
            hi = mid;
        } else {
            lo = mid;
        }
        path.push(hi);
    }
    path
}

/// Serial model-driven bisection: a calibration run for the bracket,
/// then one `restore` + `run_source_queue` per level.
#[allow(clippy::too_many_arguments)]
fn serial_model(
    model: &mut dyn TrafficModel,
    slots: usize,
    dt: f64,
    t_max: f64,
    target: LossTarget,
    metric: LossMetric,
    iterations: usize,
) -> f64 {
    let entry = model.snapshot(0);
    let probe = run_source_queue(model, slots, dt, f64::MAX / 4.0, 0.0);
    let mut lo = probe.mean_rate;
    let mut hi = probe.peak_slot_rate.max(lo * 1.001);
    for _ in 0..iterations {
        let mid = 0.5 * (lo + hi);
        model.restore(&entry).expect("restore");
        let stats = run_source_queue(model, slots, dt, mid, t_max * mid);
        let v = match metric {
            LossMetric::Overall => stats.loss_rate,
            LossMetric::WorstSecond => stats.worst_second_loss,
        };
        if met(v, target) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

fn pick_target(code: usize) -> LossTarget {
    [LossTarget::Zero, LossTarget::Rate(1e-4), LossTarget::Rate(1e-2)][code % 3]
}

fn pick_metric(code: usize) -> LossMetric {
    [LossMetric::Overall, LossMetric::WorstSecond][code % 2]
}

fn mwm_cfg() -> MwmConfig {
    MwmConfig {
        root_mean: 1000.0 * 2.0f64.powi(3),
        root_sd: 500.0,
        shapes: vec![3.0, 2.5, 2.0, 1.5, 1.2, 1.0],
        nominal_hurst: Some(0.8),
        nominal_mean: 1000.0,
        nominal_variance: 120_000.0,
    }
}

/// Every level count from 0 to 30 (multiples of the levels per pass and
/// not), N = 1..3, `t_max` = 0, both targets and both metrics.
#[test]
fn trace_search_matches_serial_bisection_exhaustively() {
    let trace = generate_screenplay(&ScreenplayConfig::short(400, 5));
    for n in 1..=3 {
        let sim = MuxSim::new(&trace, n, 40 + n as u64);
        for t_max in [0.0, 0.003] {
            for target in [LossTarget::Zero, LossTarget::Rate(1e-3)] {
                for metric in [LossMetric::Overall, LossMetric::WorstSecond] {
                    let path = serial_trace_path(&sim, t_max, target, metric, 30);
                    for (iterations, &want) in path.iter().enumerate() {
                        let got = sim.required_capacity(t_max, target, metric, iterations);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "N={n} t_max={t_max} {target:?} {metric:?} iterations={iterations}: \
                             tree {got} vs serial {want}"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn trace_search_is_bit_identical_to_serial(
        seed in 0u64..1_000,
        n in 1usize..4,
        iterations in 0usize..31,
        t_max in 0.0f64..0.05,
        zero_t_max in 0usize..4,
        target_code in 0usize..3,
        metric_code in 0usize..2,
    ) {
        let trace = generate_screenplay(&ScreenplayConfig::short(400, seed));
        let sim = MuxSim::new(&trace, n, seed ^ 0x5eed);
        let t_max = if zero_t_max == 0 { 0.0 } else { t_max };
        let (target, metric) = (pick_target(target_code), pick_metric(metric_code));
        let want = serial_trace(&sim, t_max, target, metric, iterations);
        let got = sim.required_capacity(t_max, target, metric, iterations);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "tree {} vs serial {}", got, want);
    }

    #[test]
    fn trace_replay_model_search_is_bit_identical_to_serial(
        arrivals in prop::collection::vec(0.0f64..5_000.0, 50..3_000),
        fps in 10usize..60,
        iterations in 0usize..31,
        t_max in 0.0f64..0.5,
        zero_t_max in 0usize..4,
        target_code in 0usize..3,
        metric_code in 0usize..2,
    ) {
        let slots = arrivals.len();
        let dt = 1.0 / fps as f64;
        let t_max = if zero_t_max == 0 { 0.0 } else { t_max };
        let (target, metric) = (pick_target(target_code), pick_metric(metric_code));
        let mut reference = TraceReplay::new(arrivals.clone());
        let want = serial_model(&mut reference, slots, dt, t_max, target, metric, iterations);
        let mut model = TraceReplay::new(arrivals);
        let got = try_required_capacity_model(
            &mut model, slots, dt, t_max, target, metric, iterations,
        ).unwrap();
        prop_assert_eq!(got.to_bits(), want.to_bits(), "tree {} vs serial {}", got, want);
    }

    #[test]
    fn mwm_model_search_is_bit_identical_to_serial(
        seed in 0u64..1_000,
        warmup in 0usize..500,
        slots in 100usize..5_000,
        iterations in 0usize..31,
        t_max in 0.0f64..0.2,
        zero_t_max in 0usize..4,
        target_code in 0usize..3,
        metric_code in 0usize..2,
    ) {
        let dt = 1.0 / 24.0;
        let t_max = if zero_t_max == 0 { 0.0 } else { t_max };
        let (target, metric) = (pick_target(target_code), pick_metric(metric_code));
        // Both searches start mid-stream, from the same state.
        let mut scratch = vec![0.0; warmup];
        let mut reference = MwmModel::new(mwm_cfg(), seed);
        reference.next_block(&mut scratch);
        let want = serial_model(&mut reference, slots, dt, t_max, target, metric, iterations);
        let mut model = MwmModel::new(mwm_cfg(), seed);
        model.next_block(&mut scratch);
        let got = try_required_capacity_model(
            &mut model, slots, dt, t_max, target, metric, iterations,
        ).unwrap();
        prop_assert_eq!(got.to_bits(), want.to_bits(), "tree {} vs serial {}", got, want);
        // And both leave the model at the same stream position.
        let (mut a, mut b) = (vec![0.0; 64], vec![0.0; 64]);
        reference.next_block(&mut a);
        model.next_block(&mut b);
        prop_assert_eq!(a, b);
    }
}
