//! Lane-parallel queue replay and the tree bisection built on it: the
//! one engine under every Q-C capacity search, trace- or model-driven.
//!
//! A capacity bisection is bound by latency, not arithmetic: the fluid
//! queue's backlog clamp is one serial dependency chain per slot, so a
//! replay at one capacity leaves the FP units mostly idle. [`replay`]
//! instead feeds one pass over the arrivals into a compile-time block of
//! independent queues, one capacity per lane, and [`bisect`] spends a
//! block of [`WIDTH`] lanes on the midpoints of the next [`LEVELS`]
//! bisection levels. One pass therefore settles `LEVELS` decisions
//! instead of one.
//!
//! **Bit contract.** Each lane runs exactly the per-slot op sequence of
//! `FluidQueue::step_block_tallied` for its own capacity and buffer, fed
//! in the same runs (cut at every chunk and errored-second boundary), so
//! a lane's `P_l` and `P_l-WES` equal a one-capacity replay's bit for
//! bit. [`bisect`] computes every midpoint as `0.5 * (lo + hi)` from the
//! `lo`/`hi` the serial loop would hold at that level. Every pass/fail
//! decision, and so the returned capacity, is the serial bisection's.

use vbr_stats::error::NumericError;
use vbr_stats::obs::{self, Counter, Hist};

use crate::error::QsimError;
use crate::qc::{AveragedLoss, LossMetric, LossTarget};
use crate::queue::FluidQueue;

/// Slots per streaming chunk: the working-set size of every replay. Big
/// enough that per-chunk bookkeeping is noise, small enough (32 KiB) to
/// stay cache-resident.
pub(crate) const STREAM_CHUNK: usize = 4096;

/// Bisection levels one replay pass settles.
pub(crate) const LEVELS: usize = 4;

/// Nodes of a `LEVELS`-deep bisection tree: the capacities one pass
/// must try.
const NODES: usize = (1 << LEVELS) - 1;

/// Queues per tree pass: the tree's nodes plus one spare lane (it reruns
/// the root), rounding the block up to a power of two. Chosen by
/// measurement (DESIGN.md §10): an odd block makes the vectorizer
/// shuffle the odd lane between registers (15 queues ran 2.3× slower
/// than 16), and a 32-queue pass cost more than two 16-queue ones. A
/// 16-queue pass costs about 1.3 solo replays and settles 4 levels.
pub(crate) const WIDTH: usize = NODES + 1;

/// What one replay measured: per lane, the loss metrics of that lane's
/// queue (`p_l`, `p_wes`, `overflow_slots`), and the arrivals' total,
/// summed run by run.
pub(crate) struct Replay<const L: usize> {
    pub lanes: [AveragedLoss; L],
    pub arrived: f64,
}

/// Rejects a negative or non-finite `t_max` and a negative or non-finite
/// loss-rate target: the input checks every capacity search shares.
pub(crate) fn check_search(t_max_secs: f64, target: LossTarget) -> Result<(), QsimError> {
    if !(t_max_secs >= 0.0 && t_max_secs.is_finite()) {
        return Err(NumericError::OutOfRange {
            what: "t_max_secs",
            value: t_max_secs,
            lo: 0.0,
            hi: f64::INFINITY,
        }
        .into());
    }
    if let LossTarget::Rate(r) = target {
        if !(r >= 0.0 && r.is_finite()) {
            return Err(NumericError::OutOfRange {
                what: "loss target rate",
                value: r,
                lo: 0.0,
                hi: f64::INFINITY,
            }
            .into());
        }
    }
    Ok(())
}

/// Replays `total` slots of `dt` seconds through `L` fluid queues, lane
/// `l` at `capacity[l]` bytes/s with a `buffer[l]`-byte buffer. `fill`
/// writes the next arrivals into its buffer and returns how many it
/// wrote (0 once all `total` are out).
///
/// `only: None` carries every per-lane figure; `Some(metric)` carries
/// just that metric (the other reads 0 and no overflow slot is tallied):
/// all a search reads, and 30% cheaper per pass, measured at 7 queues.
/// Overflow tallies of a full replay feed `Counter::QueueOverflowSlots`,
/// as a write-only side effect.
///
/// Panics on a lane a [`FluidQueue`] would reject (non-positive capacity,
/// negative or non-finite buffer).
pub(crate) fn replay<const L: usize>(
    mut fill: impl FnMut(&mut [f64]) -> usize,
    total: usize,
    dt: f64,
    capacity: &[f64; L],
    buffer: &[f64; L],
    only: Option<LossMetric>,
) -> Replay<L> {
    // Each lane accepts exactly what a solo queue accepts.
    for l in 0..L {
        FluidQueue::new(buffer[l], capacity[l]);
    }
    let slots_per_sec = (1.0 / dt).round() as usize;
    let mut lanes = Lanes::<L> {
        service: capacity.map(|c| c * dt),
        buffer: *buffer,
        backlog: [0.0; L],
        lost: [0.0; L],
        overflow: [0; L],
    };
    let mut buf = [0.0f64; STREAM_CHUNK];
    let mut arrived = 0.0f64;
    let mut total_arr = 0.0f64;
    let mut worst = [0.0f64; L];
    let mut win_loss = [0.0f64; L];
    let mut win_arr = 0.0;
    let mut i = 0usize;
    loop {
        let k = fill(&mut buf);
        if k == 0 {
            break;
        }
        // Feed the lanes in runs that stop at each errored-second
        // boundary, so window accounting stays out of the slot loop.
        let mut pos = 0usize;
        while pos < k {
            let to_boundary =
                if slots_per_sec == 0 { k - pos } else { slots_per_sec - (i % slots_per_sec) };
            let run = (k - pos).min(to_boundary);
            let chunk = &buf[pos..pos + run];
            obs::hist_record(Hist::QueueBlockSlots, run as u64);
            let block = match only {
                None => lanes.step::<true, true, true>(chunk, &mut arrived),
                Some(LossMetric::Overall) => lanes.step::<true, false, false>(chunk, &mut arrived),
                Some(LossMetric::WorstSecond) => {
                    lanes.step::<false, true, false>(chunk, &mut arrived)
                }
            };
            for l in 0..L {
                win_loss[l] += block[l];
            }
            let chunk_sum = vbr_stats::simd::sum_sequential(chunk);
            win_arr += chunk_sum;
            total_arr += chunk_sum;
            pos += run;
            i += run;
            if (slots_per_sec > 0 && i.is_multiple_of(slots_per_sec)) || i == total {
                if win_arr > 0.0 {
                    for l in 0..L {
                        worst[l] = worst[l].max(win_loss[l] / win_arr);
                    }
                }
                win_loss = [0.0; L];
                win_arr = 0.0;
            }
        }
    }
    let overflow: u64 = lanes.overflow.iter().sum();
    if overflow > 0 {
        obs::counter_add(Counter::QueueOverflowSlots, overflow);
    }
    Replay {
        lanes: std::array::from_fn(|l| AveragedLoss {
            p_l: if arrived > 0.0 { lanes.lost[l] / arrived } else { 0.0 },
            p_wes: worst[l],
            overflow_slots: lanes.overflow[l],
        }),
        arrived: total_arr,
    }
}

/// The dynamic state of `L` fluid queues, structure-of-arrays so the
/// per-slot lane loop vectorizes.
struct Lanes<const L: usize> {
    service: [f64; L],
    buffer: [f64; L],
    backlog: [f64; L],
    lost: [f64; L],
    overflow: [u64; L],
}

impl<const L: usize> Lanes<L> {
    /// Advances every lane one slot per element of `run`, returning each
    /// lane's loss over the run (summed from zero, left to right). Per
    /// lane this is `FluidQueue::step_block_tallied`'s op sequence, with
    /// the served total dropped (nothing reads it) and `arrived` shared,
    /// since every lane sees the same arrivals. `LOST`, `WINDOW` and
    /// `TALLY` select the running loss total, the returned run loss and
    /// the overflow tally; the backlog recurrence never depends on them.
    #[inline(always)]
    fn step<const LOST: bool, const WINDOW: bool, const TALLY: bool>(
        &mut self,
        run: &[f64],
        arrived: &mut f64,
    ) -> [f64; L] {
        let (service, buffer) = (self.service, self.buffer);
        let mut backlog = self.backlog;
        let mut lost = self.lost;
        let mut overflow = self.overflow;
        let mut block = [0.0f64; L];
        let mut total = *arrived;
        for &a in run {
            total += a;
            for l in 0..L {
                let unserved = (backlog[l] + a - service[l]).max(0.0);
                let loss = (unserved - buffer[l]).max(0.0);
                backlog[l] = unserved - loss;
                if LOST {
                    lost[l] += loss;
                }
                if WINDOW {
                    block[l] += loss;
                }
                if TALLY {
                    overflow[l] += (loss > 0.0) as u64;
                }
            }
        }
        *arrived = total;
        self.backlog = backlog;
        self.lost = lost;
        self.overflow = overflow;
        block
    }
}

/// The capacity bisection: `iterations` halvings of `[lo, hi]`, keeping
/// the upper end whenever its midpoint meets `target`, and returning the
/// final upper end.
///
/// Each call of `pass` replays the arrivals once at the capacities of the
/// next [`LEVELS`] levels, heap-ordered (node `j` splits its interval at
/// `caps[j]`; its children `2j + 1` and `2j + 2` split the lower and upper
/// halves; the spare last lane repeats the root), and returns the
/// searched metric per lane. The walk down the tree then takes up to
/// `LEVELS` decisions, each counted as one `Counter::QcProbes`. A last
/// pass with fewer levels left still replays the full block; its deeper
/// lanes go unread.
pub(crate) fn bisect<E>(
    mut lo: f64,
    mut hi: f64,
    target: LossTarget,
    iterations: usize,
    mut pass: impl FnMut(&[f64; WIDTH]) -> Result<[f64; WIDTH], E>,
) -> Result<f64, E> {
    let mut left = iterations;
    while left > 0 {
        let mut caps = [0.0f64; WIDTH];
        let mut bounds = [(0.0f64, 0.0f64); NODES];
        bounds[0] = (lo, hi);
        for j in 0..NODES {
            let (a, b) = bounds[j];
            let mid = 0.5 * (a + b);
            caps[j] = mid;
            if 2 * j + 2 < NODES {
                bounds[2 * j + 1] = (a, mid);
                bounds[2 * j + 2] = (mid, b);
            }
        }
        caps[NODES] = caps[0];
        let values = pass(&caps)?;
        let levels = left.min(LEVELS);
        let mut j = 0;
        for _ in 0..levels {
            obs::counter_add(Counter::QcProbes, 1);
            let met = match target {
                LossTarget::Zero => values[j] == 0.0,
                LossTarget::Rate(r) => values[j] <= r,
            };
            if met {
                hi = caps[j];
                j = 2 * j + 1;
            } else {
                lo = caps[j];
                j = 2 * j + 2;
            }
        }
        left -= levels;
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_walk_matches_serial_bisection_on_a_threshold() {
        // A step function of capacity: the tree must land exactly where
        // the one-midpoint-per-step loop lands, for every depth.
        let threshold = 0.637_281_9;
        let value = |c: f64| if c >= threshold { 0.0 } else { 1.0 };
        for iterations in 0..=13 {
            let (mut lo, mut hi) = (0.1f64, 1.7f64);
            for _ in 0..iterations {
                let mid = 0.5 * (lo + hi);
                if value(mid) == 0.0 {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            let mut passes = 0;
            let got = bisect(0.1, 1.7, LossTarget::Zero, iterations, |caps| {
                passes += 1;
                Ok::<_, ()>(caps.map(value))
            })
            .unwrap();
            assert_eq!(got.to_bits(), hi.to_bits(), "iterations {iterations}");
            assert_eq!(passes, iterations.div_ceil(LEVELS));
        }
    }

    #[test]
    fn a_failing_pass_stops_the_search() {
        let mut passes = 0;
        let got = bisect(1.0, 2.0, LossTarget::Rate(0.1), 9, |_| {
            passes += 1;
            Err::<[f64; WIDTH], _>("restore failed")
        });
        assert_eq!(got, Err("restore failed"));
        assert_eq!(passes, 1);
    }
}
