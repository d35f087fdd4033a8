//! Model-driven queueing: the queueing side of the model-zoo seam.
//!
//! [`crate::MuxSim`] replays a *stored* trace; this module feeds the
//! fluid queue straight from any live [`BlockSource`] — and, for a full
//! [`TrafficModel`], runs the Q-C capacity search by replaying the
//! *same* sample path for every pass through the model's
//! snapshot/restore contract. That keeps the search deterministic (every
//! pass sees an identical arrival process, exactly like the stored-trace
//! search) without ever materialising the series.
//!
//! Both entry points run the crate's one lane replay: [`run_source_queue`]
//! at one capacity, the search at fifteen capacities per pass (the
//! midpoints of the next four bisection levels), so one model replay
//! settles four levels. Every capacity the search returns is
//! bit-identical to a serial bisection over `restore` +
//! [`run_source_queue`].

use vbr_fgn::stream::BlockSource;
use vbr_fgn::traffic::TrafficModel;
use vbr_stats::obs::{self, Counter};

use crate::error::QsimError;
use crate::lanes::{self, Replay, STREAM_CHUNK};
use crate::qc::{LossMetric, LossTarget};

/// Streaming statistics of one model-driven queue run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceRunStats {
    /// Overall loss rate `P_l` (lost bytes / offered bytes).
    pub loss_rate: f64,
    /// Worst-errored-second loss rate `P_l-WES`.
    pub worst_second_loss: f64,
    /// Mean arrival rate observed, bytes/second.
    pub mean_rate: f64,
    /// Peak single-slot arrival rate observed, bytes/second.
    pub peak_slot_rate: f64,
}

/// Feeds `slots` samples from `src` (each a byte count for one `dt`-long
/// slot) through a fluid queue, streaming in cache-sized chunks —
/// `O(chunk)` memory however long the run. Panics on a non-positive `dt`
/// or zero `slots`.
pub fn run_source_queue(
    src: &mut dyn BlockSource,
    slots: usize,
    dt: f64,
    capacity_bps: f64,
    buffer_bytes: f64,
) -> SourceRunStats {
    let (r, peak_slot) = replay_source(src, slots, dt, &[capacity_bps], &[buffer_bytes], None);
    SourceRunStats {
        loss_rate: r.lanes[0].p_l,
        worst_second_loss: r.lanes[0].p_wes,
        mean_rate: r.arrived / (slots as f64 * dt),
        peak_slot_rate: peak_slot / dt,
    }
}

/// One replay pass of `slots` samples from `src` through `L` queues;
/// also returns the peak slot.
fn replay_source<const L: usize>(
    src: &mut dyn BlockSource,
    slots: usize,
    dt: f64,
    capacity_bps: &[f64; L],
    buffer_bytes: &[f64; L],
    only: Option<LossMetric>,
) -> (Replay<L>, f64) {
    assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
    assert!(slots > 0, "need at least one slot");
    let _span = obs::span("qsim.source_run");
    obs::counter_add(Counter::MuxRuns, 1);
    let mut done = 0usize;
    let mut peak_slot = 0.0f64;
    let fill = |buf: &mut [f64]| {
        let k = (slots - done).min(STREAM_CHUNK);
        src.next_block(&mut buf[..k]);
        for &a in &buf[..k] {
            peak_slot = peak_slot.max(a);
        }
        done += k;
        k
    };
    let r = lanes::replay(fill, slots, dt, capacity_bps, buffer_bytes, only);
    (r, peak_slot)
}

/// Smallest capacity (bytes/s) achieving `target` under `metric` for a
/// [`TrafficModel`]-generated arrival process of `slots` slots, with the
/// buffer tied to the capacity through `Q = t_max × C` — one point of a
/// model-driven Q-C curve.
///
/// The model is snapshotted on entry. A calibration replay measures the
/// mean and peak rates that bracket the bisection; then every pass
/// restores the snapshot and replays the path once at the capacities of
/// the next four bisection levels, so each candidate capacity faces the
/// identical sample path and the search is exactly as deterministic as
/// the stored-trace search. On return the model is restored to its entry
/// state, then advanced by one run (`slots` samples), leaving its stream
/// position well-defined.
pub fn try_required_capacity_model(
    model: &mut dyn TrafficModel,
    slots: usize,
    dt: f64,
    t_max_secs: f64,
    target: LossTarget,
    metric: LossMetric,
    iterations: usize,
) -> Result<f64, QsimError> {
    lanes::check_search(t_max_secs, target)?;
    let entry = model.snapshot(0);
    // Calibration pass: mean and peak rates bound the bisection bracket.
    let (probe, peak_slot) = replay_source(model, slots, dt, &[], &[], None);
    let lo = probe.arrived / (slots as f64 * dt); // below the mean, loss is unavoidable
    let hi = (peak_slot / dt).max(lo * 1.001); // provably lossless
    lanes::bisect(lo, hi, target, iterations, |caps| {
        model.restore(&entry).map_err(|_| {
            QsimError::from(vbr_stats::error::NumericError::NotConverged {
                what: "model snapshot replay",
            })
        })?;
        let buffers = caps.map(|c| t_max_secs * c);
        let (r, _) = replay_source(model, slots, dt, caps, &buffers, Some(metric));
        Ok(r.lanes.map(|loss| metric.of(&loss)))
    })
}

/// Panicking [`try_required_capacity_model`].
#[allow(clippy::too_many_arguments)]
pub fn required_capacity_model(
    model: &mut dyn TrafficModel,
    slots: usize,
    dt: f64,
    t_max_secs: f64,
    target: LossTarget,
    metric: LossMetric,
    iterations: usize,
) -> f64 {
    try_required_capacity_model(model, slots, dt, t_max_secs, target, metric, iterations)
        .unwrap_or_else(|e| panic!("required_capacity_model: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::FluidQueue;
    use vbr_fgn::TraceReplay;

    fn sawtooth(n: usize) -> Vec<f64> {
        (0..n).map(|i| 100.0 + (i % 10) as f64 * 20.0).collect()
    }

    #[test]
    fn lossless_at_peak_rate_lossy_below_mean() {
        let dt = 1.0 / 30.0;
        let trace = sawtooth(3000);
        let peak = 280.0 / dt;
        let mean = trace.iter().sum::<f64>() / trace.len() as f64 / dt;

        let mut m = TraceReplay::new(trace.clone());
        let at_peak = run_source_queue(&mut m, 3000, dt, peak, 0.0);
        assert_eq!(at_peak.loss_rate, 0.0);
        assert!((at_peak.mean_rate - mean).abs() / mean < 1e-9);
        assert!((at_peak.peak_slot_rate - peak).abs() / peak < 1e-9);

        let mut m = TraceReplay::new(trace);
        let starved = run_source_queue(&mut m, 3000, dt, mean * 0.5, 0.0);
        assert!(starved.loss_rate > 0.2, "loss {}", starved.loss_rate);
        assert!(starved.worst_second_loss >= starved.loss_rate);
    }

    #[test]
    fn chunking_matches_slot_by_slot_queue() {
        // The streaming runner runs the scalar FluidQueue's per-slot ops
        // in the same order, so the two agree bit for bit.
        let dt = 1.0 / 30.0;
        let trace = sawtooth(10_000);
        let cap = 170.0 / dt;
        let mut q = FluidQueue::new(cap * 0.02, cap);
        for &a in &trace {
            q.step(a, dt);
        }
        assert!(q.loss_rate() > 0.0);
        let mut m = TraceReplay::new(trace);
        let stats = run_source_queue(&mut m, 10_000, dt, cap, cap * 0.02);
        assert_eq!(stats.loss_rate.to_bits(), q.loss_rate().to_bits());
    }

    #[test]
    fn bisection_brackets_zero_loss_capacity() {
        let dt = 1.0 / 30.0;
        let mut m = TraceReplay::new(sawtooth(6000));
        let c = required_capacity_model(
            &mut m,
            6000,
            dt,
            0.0, // zero buffer: capacity must cover the peak slot
            LossTarget::Zero,
            LossMetric::Overall,
            40,
        );
        let peak = 280.0 / dt;
        assert!((c - peak).abs() / peak < 1e-3, "required {c} vs peak {peak}");
        // With a generous buffer the requirement drops toward the mean.
        let mut m = TraceReplay::new(sawtooth(6000));
        let c_buf = required_capacity_model(
            &mut m,
            6000,
            dt,
            5.0,
            LossTarget::Zero,
            LossMetric::Overall,
            40,
        );
        assert!(c_buf < c, "buffered {c_buf} vs unbuffered {c}");
    }

    #[test]
    fn probes_replay_identical_paths() {
        // A stochastic model must give the same answer twice: the
        // snapshot/restore replay makes the search deterministic.
        let mut a = vbr_fgn::MwmModel::new(test_mwm_cfg(), 42);
        let mut b = vbr_fgn::MwmModel::new(test_mwm_cfg(), 42);
        let dt = 1.0 / 30.0;
        let ca = required_capacity_model(
            &mut a,
            4096,
            dt,
            0.02,
            LossTarget::Rate(0.01),
            LossMetric::Overall,
            25,
        );
        let cb = required_capacity_model(
            &mut b,
            4096,
            dt,
            0.02,
            LossTarget::Rate(0.01),
            LossMetric::Overall,
            25,
        );
        assert_eq!(ca, cb);
        assert!(ca.is_finite() && ca > 0.0);
    }

    #[test]
    fn search_leaves_model_one_run_past_its_entry_state() {
        // Documented end state: restored to the entry state, then
        // advanced by exactly one run of `slots` samples, whatever the
        // number of passes (none, one, several, a partial last one).
        let (dt, slots) = (1.0 / 24.0, 3_000);
        for iterations in [0, 1, 4, 5, 9] {
            let mut model = vbr_fgn::MwmModel::new(test_mwm_cfg(), 7);
            let mut warmup = vec![0.0; 123];
            model.next_block(&mut warmup);
            let mut twin = model.clone();
            try_required_capacity_model(
                &mut model,
                slots,
                dt,
                0.05,
                LossTarget::Rate(1e-3),
                LossMetric::Overall,
                iterations,
            )
            .unwrap();
            let mut skipped = vec![0.0; slots];
            twin.next_block(&mut skipped);
            let (mut got, mut want) = (vec![0.0; 256], vec![0.0; 256]);
            model.next_block(&mut got);
            twin.next_block(&mut want);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "iterations {iterations}");
        }
    }

    fn test_mwm_cfg() -> vbr_fgn::MwmConfig {
        vbr_fgn::MwmConfig {
            root_mean: 1000.0 * 2.0f64.powi(3),
            root_sd: 500.0,
            shapes: vec![3.0, 2.5, 2.0, 1.5, 1.2, 1.0],
            nominal_hurst: Some(0.8),
            nominal_mean: 1000.0,
            nominal_variance: 120_000.0,
        }
    }
}
