//! The fluid FIFO queue of Fig 13: finite buffer `Q`, fixed channel
//! capacity `C`, losses when the buffer overflows.
//!
//! Arrivals within a slot are spread uniformly (the paper's "uniform
//! spacing of cells within the slice"; it notes that *in no case do all
//! the cells of a frame arrive together"), which is exactly the fluid
//! approximation: per slot of length `dt`, `arrival` bytes flow in while
//! `C·dt` bytes flow out.

use crate::error::QsimError;
use vbr_stats::error::{check_positive_param, NumericError};
use vbr_stats::obs::{self, Counter, Hist};
use vbr_stats::snapshot::{Payload, Section, SnapshotError};

/// A finite-buffer fluid FIFO queue.
#[derive(Debug, Clone)]
pub struct FluidQueue {
    /// Buffer size in bytes.
    buffer_bytes: f64,
    /// Service capacity in bytes per second.
    capacity_bps: f64,
    /// Current queue content in bytes.
    backlog: f64,
    /// Totals for loss accounting.
    arrived: f64,
    lost: f64,
    served: f64,
}

impl FluidQueue {
    /// Creates an empty queue. `buffer_bytes ≥ 0`, `capacity_bps > 0`.
    pub fn new(buffer_bytes: f64, capacity_bps: f64) -> Self {
        assert!(buffer_bytes >= 0.0, "buffer must be non-negative");
        assert!(capacity_bps > 0.0, "capacity must be positive");
        Self::try_new(buffer_bytes, capacity_bps)
            .unwrap_or_else(|e| panic!("FluidQueue::new: {e}"))
    }

    /// Fallible [`new`](Self::new): rejects a negative or non-finite
    /// buffer and a non-positive capacity with typed errors.
    pub fn try_new(buffer_bytes: f64, capacity_bps: f64) -> Result<Self, QsimError> {
        if !(buffer_bytes >= 0.0 && buffer_bytes.is_finite()) {
            return Err(NumericError::OutOfRange {
                what: "buffer_bytes",
                value: buffer_bytes,
                lo: 0.0,
                hi: f64::INFINITY,
            }
            .into());
        }
        check_positive_param("capacity_bps", capacity_bps)?;
        Ok(FluidQueue {
            buffer_bytes,
            capacity_bps,
            backlog: 0.0,
            arrived: 0.0,
            lost: 0.0,
            served: 0.0,
        })
    }

    /// Fallible [`step`](Self::step): rejects negative/non-finite arrivals
    /// and non-positive slot durations instead of corrupting the queue
    /// state. The queue is untouched when an error is returned.
    pub fn try_step(&mut self, arrival: f64, dt: f64) -> Result<f64, QsimError> {
        if !(arrival >= 0.0 && arrival.is_finite()) {
            return Err(NumericError::OutOfRange {
                what: "arrival",
                value: arrival,
                lo: 0.0,
                hi: f64::INFINITY,
            }
            .into());
        }
        check_positive_param("dt", dt)?;
        Ok(self.step(arrival, dt))
    }

    /// Advances one slot of `dt` seconds with `arrival` bytes offered.
    /// Returns the bytes lost in this slot.
    pub fn step(&mut self, arrival: f64, dt: f64) -> f64 {
        debug_assert!(arrival >= 0.0 && dt > 0.0);
        self.arrived += arrival;
        let service = self.capacity_bps * dt;

        // Fluid balance: content rises by (arrival − service), floored at
        // empty; overflow beyond the buffer is lost.
        let unserved = (self.backlog + arrival - service).max(0.0);
        let actually_served = self.backlog + arrival - unserved;
        self.served += actually_served;

        let loss = (unserved - self.buffer_bytes).max(0.0);
        self.backlog = unserved - loss;
        self.lost += loss;
        if loss > 0.0 {
            obs::counter_add(Counter::QueueOverflowSlots, 1);
        }
        loss
    }

    /// Advances one slot per element of `arrivals` (all of duration
    /// `dt`), returning the total bytes lost over the block.
    ///
    /// Bit-identical to calling [`step`](Self::step) in a loop — same
    /// op order per slot — but restructured for block execution: the
    /// service term `C·dt` is hoisted (it is loop-invariant), and the
    /// four running totals live in registers for the whole block instead
    /// of round-tripping through `self` every slot. The backlog clamp
    /// recurrence is inherently serial (each slot's state feeds the
    /// next), so that dependency chain is the *only* scalar part; the
    /// independent per-slot work (arrival aggregation) belongs in the
    /// vectorizable pass upstream (`ArrivalCursor::next_block`).
    ///
    /// The returned block loss accumulates the per-slot losses
    /// left-to-right, exactly as a caller summing `step`'s return values
    /// from zero would.
    pub fn step_block(&mut self, arrivals: &[f64], dt: f64) -> f64 {
        self.step_block_tallied(arrivals, dt).0
    }

    /// The [`step_block`](Self::step_block) recurrence, returning
    /// `(block loss, overflow slots)`: the number of slots in this block
    /// that lost bytes is a return value, exact whatever other threads
    /// do. The process-global `queue_overflow_slots` counter still
    /// receives the same tally, as a write-only side effect.
    pub(crate) fn step_block_tallied(&mut self, arrivals: &[f64], dt: f64) -> (f64, u64) {
        debug_assert!(dt > 0.0);
        obs::hist_record(Hist::QueueBlockSlots, arrivals.len() as u64);
        let service = self.capacity_bps * dt;
        let buffer = self.buffer_bytes;
        let mut arrived = self.arrived;
        let mut served = self.served;
        let mut lost = self.lost;
        let mut backlog = self.backlog;
        let mut block_loss = 0.0f64;
        // Overflow slots are tallied in a register and flushed once per
        // block so the hot loop never touches the shared atomic.
        let mut overflow_slots = 0u64;
        for &a in arrivals {
            debug_assert!(a >= 0.0);
            arrived += a;
            let unserved = (backlog + a - service).max(0.0);
            let actually_served = backlog + a - unserved;
            served += actually_served;
            let loss = (unserved - buffer).max(0.0);
            backlog = unserved - loss;
            lost += loss;
            block_loss += loss;
            overflow_slots += (loss > 0.0) as u64;
        }
        self.arrived = arrived;
        self.served = served;
        self.lost = lost;
        self.backlog = backlog;
        if overflow_slots > 0 {
            obs::counter_add(Counter::QueueOverflowSlots, overflow_slots);
        }
        (block_loss, overflow_slots)
    }

    /// Fallible [`step_block`](Self::step_block): validates `dt` and
    /// every arrival (finite, non-negative) *before* mutating anything,
    /// so a poisoned block leaves the queue accounting untouched. Same
    /// error taxonomy as [`try_step`](Self::try_step).
    pub fn try_step_block(&mut self, arrivals: &[f64], dt: f64) -> Result<f64, QsimError> {
        check_positive_param("dt", dt)?;
        for &a in arrivals {
            if !(a >= 0.0 && a.is_finite()) {
                return Err(NumericError::OutOfRange {
                    what: "arrival",
                    value: a,
                    lo: 0.0,
                    hi: f64::INFINITY,
                }
                .into());
            }
        }
        Ok(self.step_block(arrivals, dt))
    }

    /// Buffer size in bytes (the `Q` of the Q-C plane).
    pub fn buffer_bytes(&self) -> f64 {
        self.buffer_bytes
    }

    /// Service capacity in bytes per second (the `C` of the Q-C plane).
    pub fn capacity_bps(&self) -> f64 {
        self.capacity_bps
    }

    /// Current backlog in bytes.
    pub fn backlog(&self) -> f64 {
        self.backlog
    }

    /// Total bytes offered so far.
    pub fn arrived(&self) -> f64 {
        self.arrived
    }

    /// Total bytes lost so far.
    pub fn lost(&self) -> f64 {
        self.lost
    }

    /// Total bytes served so far.
    pub fn served(&self) -> f64 {
        self.served
    }

    /// Overall loss fraction `lost/arrived` (0 when nothing arrived).
    pub fn loss_rate(&self) -> f64 {
        if self.arrived > 0.0 {
            self.lost / self.arrived
        } else {
            0.0
        }
    }

    /// Maximum queueing delay `Q/C` in seconds.
    pub fn max_delay(&self) -> f64 {
        self.buffer_bytes / self.capacity_bps
    }

    /// Captures the queue's dynamic state for a checkpoint. The static
    /// parameters (`Q`, `C`) are deliberately *not* included — the
    /// restore target is rebuilt from configuration and guarded by the
    /// snapshot's parameter hash.
    pub fn export_state(&self) -> QueueState {
        QueueState {
            backlog: self.backlog,
            arrived: self.arrived,
            lost: self.lost,
            served: self.served,
        }
    }

    /// Grafts a previously exported state onto this queue so stepping
    /// resumes bit-identically. Every field is validated *before* any
    /// mutation: all four totals must be finite and non-negative, the
    /// backlog must fit the buffer, and the conservation law
    /// `arrived = served + lost + backlog` must hold to fluid-balance
    /// tolerance. A hostile or mismatched state is a typed error and
    /// leaves the queue untouched.
    pub fn restore_state(&mut self, st: &QueueState) -> Result<(), SnapshotError> {
        let fields = [
            ("backlog", st.backlog),
            ("arrived", st.arrived),
            ("lost", st.lost),
            ("served", st.served),
        ];
        for (name, v) in fields {
            if !(v.is_finite() && v >= 0.0) {
                return Err(SnapshotError::Invalid { what: name });
            }
        }
        if st.backlog > self.buffer_bytes {
            return Err(SnapshotError::Invalid { what: "backlog exceeds buffer" });
        }
        let balance = st.served + st.lost + st.backlog;
        if (st.arrived - balance).abs() > 1e-6 * st.arrived.max(1.0) {
            return Err(SnapshotError::Invalid { what: "queue conservation law" });
        }
        self.backlog = st.backlog;
        self.arrived = st.arrived;
        self.lost = st.lost;
        self.served = st.served;
        Ok(())
    }
}

/// The dynamic state of a [`FluidQueue`] — everything `step` mutates,
/// nothing it only reads. Serialized via the vbr-stats snapshot codec;
/// `f64`s round-trip as raw IEEE-754 bits so a restored queue is
/// bit-identical to the original.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueState {
    /// Queue content in bytes.
    pub backlog: f64,
    /// Total bytes offered.
    pub arrived: f64,
    /// Total bytes lost.
    pub lost: f64,
    /// Total bytes served.
    pub served: f64,
}

impl QueueState {
    /// Appends the state to a snapshot section payload.
    pub fn encode(&self, p: &mut Payload) {
        p.put_f64(self.backlog);
        p.put_f64(self.arrived);
        p.put_f64(self.lost);
        p.put_f64(self.served);
    }

    /// Reads a state back from a snapshot section, in [`encode`](Self::encode)
    /// order. Structural decode only — semantic
    /// validation happens in [`FluidQueue::restore_state`].
    pub fn decode(s: &mut Section) -> Result<Self, SnapshotError> {
        Ok(QueueState {
            backlog: s.get_f64()?,
            arrived: s.get_f64()?,
            lost: s.get_f64()?,
            served: s.get_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn underload_is_lossless() {
        let mut q = FluidQueue::new(100.0, 1000.0);
        for _ in 0..1000 {
            let loss = q.step(0.5, 0.001); // 500 B/s offered vs 1000 B/s
            assert_eq!(loss, 0.0);
        }
        assert_eq!(q.loss_rate(), 0.0);
        assert!(q.backlog() < 1e-9);
    }

    #[test]
    fn sustained_overload_loses_excess() {
        // Offer 2000 B/s into a 1000 B/s server with a tiny buffer:
        // asymptotic loss rate → 0.5.
        let mut q = FluidQueue::new(1.0, 1000.0);
        for _ in 0..10_000 {
            q.step(2.0, 0.001);
        }
        assert!((q.loss_rate() - 0.5).abs() < 0.01, "loss {}", q.loss_rate());
    }

    #[test]
    fn conservation_arrived_equals_served_lost_backlog() {
        let mut q = FluidQueue::new(50.0, 800.0);
        let arrivals = [10.0, 0.0, 45.0, 90.0, 3.0, 120.0, 0.0, 0.0, 60.0];
        for &a in &arrivals {
            q.step(a, 0.01);
        }
        let balance = q.served() + q.lost() + q.backlog();
        assert!(
            (q.arrived() - balance).abs() < 1e-9,
            "arrived {} vs served+lost+backlog {balance}",
            q.arrived()
        );
    }

    #[test]
    fn burst_fills_buffer_then_overflows() {
        let mut q = FluidQueue::new(100.0, 1000.0);
        // One slot: 201 bytes arrive, 1 byte served, buffer holds 100 → 100 lost.
        let loss = q.step(201.0, 0.001);
        assert!((loss - 100.0).abs() < 1e-9);
        assert!((q.backlog() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn backlog_drains_at_capacity() {
        let mut q = FluidQueue::new(1000.0, 100.0);
        q.step(500.0, 0.1); // 10 bytes served, 490 left
        assert!((q.backlog() - 490.0).abs() < 1e-9);
        for _ in 0..48 {
            q.step(0.0, 0.1);
        }
        assert!((q.backlog() - 10.0).abs() < 1e-9);
        q.step(0.0, 0.1);
        assert_eq!(q.backlog(), 0.0);
    }

    #[test]
    fn step_block_matches_scalar_steps_bitwise() {
        let arrivals: Vec<f64> = (0..1003)
            .map(|i| ((i as f64 * 0.37).sin().abs() * 120.0) + if i % 13 == 0 { 400.0 } else { 0.0 })
            .collect();
        let mut scalar = FluidQueue::new(150.0, 60_000.0);
        let mut scalar_loss = 0.0f64;
        for &a in &arrivals {
            scalar_loss += scalar.step(a, 0.001);
        }
        // Any split into blocks must reproduce the same state and loss.
        for block in [1usize, 3, 4, 64, 1003] {
            let mut q = FluidQueue::new(150.0, 60_000.0);
            let mut loss = 0.0f64;
            for chunk in arrivals.chunks(block) {
                loss += q.step_block(chunk, 0.001);
            }
            assert_eq!(q.backlog().to_bits(), scalar.backlog().to_bits(), "block={block}");
            assert_eq!(q.arrived().to_bits(), scalar.arrived().to_bits());
            assert_eq!(q.served().to_bits(), scalar.served().to_bits());
            assert_eq!(q.lost().to_bits(), scalar.lost().to_bits());
            // The queue's own `lost` total is bit-exact (same op order);
            // the *returned* block sums regroup the addition at block
            // boundaries, so compare those to FP-sum accuracy.
            assert!((loss - scalar_loss).abs() <= 1e-9 * scalar_loss.max(1.0), "block={block}");
        }
    }

    #[test]
    fn zero_buffer_is_bufferless_multiplexer() {
        let mut q = FluidQueue::new(0.0, 1000.0);
        let loss = q.step(3.0, 0.001); // 3 B offered, 1 B served, no buffer
        assert!((loss - 2.0).abs() < 1e-9);
    }

    #[test]
    fn max_delay_definition() {
        let q = FluidQueue::new(200.0, 100_000.0);
        assert!((q.max_delay() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn try_new_and_try_step_reject_bad_inputs() {
        assert!(FluidQueue::try_new(-1.0, 1000.0).is_err());
        assert!(FluidQueue::try_new(f64::NAN, 1000.0).is_err());
        assert!(FluidQueue::try_new(100.0, 0.0).is_err());
        assert!(FluidQueue::try_new(100.0, f64::INFINITY).is_err());

        let mut q = FluidQueue::try_new(100.0, 1000.0).unwrap();
        assert!(q.try_step(f64::NAN, 0.001).is_err());
        assert!(q.try_step(-5.0, 0.001).is_err());
        assert!(q.try_step(1.0, 0.0).is_err());
        // Rejected steps must not perturb the accounting.
        assert_eq!(q.arrived(), 0.0);
        assert_eq!(q.backlog(), 0.0);
        assert_eq!(q.try_step(1.0, 0.001).unwrap(), 0.0);
        assert_eq!(q.arrived(), 1.0);
    }

    #[test]
    fn loss_monotone_in_capacity() {
        let arrivals: Vec<f64> = (0..5000)
            .map(|i| if i % 7 == 0 { 300.0 } else { 20.0 })
            .collect();
        let run = |cap: f64| {
            let mut q = FluidQueue::new(100.0, cap);
            for &a in &arrivals {
                q.step(a, 0.001);
            }
            q.loss_rate()
        };
        let l1 = run(30_000.0);
        let l2 = run(50_000.0);
        let l3 = run(80_000.0);
        assert!(l1 >= l2 && l2 >= l3, "{l1} {l2} {l3}");
        assert!(l1 > 0.0);
    }

    #[test]
    fn try_step_block_rejects_without_mutating() {
        let mut q = FluidQueue::new(100.0, 1000.0);
        q.step(5.0, 0.001);
        let before = q.export_state();
        assert!(q.try_step_block(&[1.0, f64::NAN, 2.0], 0.001).is_err());
        assert!(q.try_step_block(&[1.0, -3.0], 0.001).is_err());
        assert!(q.try_step_block(&[1.0], -1.0).is_err());
        assert_eq!(q.export_state(), before, "rejected block must not mutate");
        // A clean block matches the infallible path bit-for-bit.
        let mut reference = FluidQueue::new(100.0, 1000.0);
        reference.step(5.0, 0.001);
        let want = reference.step_block(&[1.0, 2.0, 400.0], 0.001);
        let got = q.try_step_block(&[1.0, 2.0, 400.0], 0.001).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(q.export_state(), reference.export_state());
    }

    #[test]
    fn state_round_trip_resumes_bit_identically() {
        let arrivals: Vec<f64> = (0..500)
            .map(|i| ((i as f64 * 0.73).cos().abs() * 90.0) + if i % 17 == 0 { 300.0 } else { 0.0 })
            .collect();
        let mut full = FluidQueue::new(120.0, 50_000.0);
        for &a in &arrivals {
            full.step(a, 0.001);
        }
        // Kill at slot 173, restore into a fresh same-config queue.
        let mut left = FluidQueue::new(120.0, 50_000.0);
        for &a in &arrivals[..173] {
            left.step(a, 0.001);
        }
        let st = left.export_state();
        let mut resumed = FluidQueue::new(120.0, 50_000.0);
        resumed.restore_state(&st).unwrap();
        for &a in &arrivals[173..] {
            resumed.step(a, 0.001);
        }
        assert_eq!(resumed.backlog().to_bits(), full.backlog().to_bits());
        assert_eq!(resumed.arrived().to_bits(), full.arrived().to_bits());
        assert_eq!(resumed.lost().to_bits(), full.lost().to_bits());
        assert_eq!(resumed.served().to_bits(), full.served().to_bits());
    }

    #[test]
    fn restore_rejects_hostile_states() {
        let mut q = FluidQueue::new(100.0, 1000.0);
        let good = QueueState { backlog: 10.0, arrived: 30.0, lost: 5.0, served: 15.0 };
        assert!(q.restore_state(&good).is_ok());
        for bad in [
            QueueState { backlog: f64::NAN, ..good.clone() },
            QueueState { backlog: -1.0, arrived: 30.0, lost: 5.0, served: 26.0 },
            QueueState { backlog: 150.0, arrived: 170.0, lost: 5.0, served: 15.0 },
            QueueState { arrived: f64::INFINITY, ..good.clone() },
            // Books that don't balance: arrived ≠ served + lost + backlog.
            QueueState { backlog: 10.0, arrived: 99.0, lost: 5.0, served: 15.0 },
        ] {
            assert!(q.restore_state(&bad).is_err(), "accepted {bad:?}");
            // Failed restore must leave the previous state intact.
            assert_eq!(q.export_state(), good);
        }
    }

    #[test]
    fn queue_state_codec_round_trip() {
        use vbr_stats::snapshot::{SnapshotReader, SnapshotWriter};
        let st = QueueState { backlog: 1.25, arrived: 1e12, lost: 0.0, served: 999999998.75 };
        let mut w = SnapshotWriter::new(0xABCD, 7);
        w.section(0x51, |p| st.encode(p));
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let mut s = r.section(0x51, "queue").unwrap();
        let got = QueueState::decode(&mut s).unwrap();
        s.finish().unwrap();
        assert_eq!(got, st);
    }

    #[test]
    fn loss_monotone_in_buffer() {
        let arrivals: Vec<f64> = (0..5000)
            .map(|i| if i % 11 == 0 { 500.0 } else { 10.0 })
            .collect();
        let run = |buf: f64| {
            let mut q = FluidQueue::new(buf, 40_000.0);
            for &a in &arrivals {
                q.step(a, 0.001);
            }
            q.loss_rate()
        };
        assert!(run(10.0) >= run(100.0));
        assert!(run(100.0) >= run(1000.0));
    }
}
