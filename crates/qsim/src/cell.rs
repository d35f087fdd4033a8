//! Cell-level (ATM) queueing — the granularity the paper's simulator
//! actually worked at ("the overall cell loss rate"), with the two
//! intra-slice arrival patterns §5.1 discusses: cells spaced uniformly
//! within the slice, or placed at random instants. "Note that in no case
//! do all the cells of a frame arrive together."

use vbr_stats::rng::Xoshiro256;
use vbr_video::Trace;

/// ATM payload bytes per cell.
pub const ATM_PAYLOAD_BYTES: u32 = 48;
/// ATM cell size on the wire.
pub const ATM_CELL_BYTES: u32 = 53;

/// How a slice's cells are placed within its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSpacing {
    /// Evenly spaced across the slot (a pipelined coder).
    Uniform,
    /// Independent uniform random instants (worst-case jitter).
    Random,
}

/// A discrete cell FIFO with deterministic service.
///
/// Occupancy is tracked in cells with continuous drain between arrival
/// events (deterministic service at `rate` cells/s); an arriving cell is
/// lost when the buffer is full.
#[derive(Debug, Clone)]
pub struct CellQueue {
    buffer_cells: f64,
    rate_cells_per_sec: f64,
    occupancy: f64,
    clock: f64,
    arrived: u64,
    lost: u64,
}

impl CellQueue {
    /// Creates an empty queue holding up to `buffer_cells` cells and
    /// serving `rate_cells_per_sec`.
    pub fn new(buffer_cells: usize, rate_cells_per_sec: f64) -> Self {
        assert!(rate_cells_per_sec > 0.0);
        CellQueue {
            buffer_cells: buffer_cells as f64,
            rate_cells_per_sec,
            occupancy: 0.0,
            clock: 0.0,
            arrived: 0,
            lost: 0,
        }
    }

    /// Offers one cell at absolute time `t` (must be non-decreasing).
    /// Returns true when the cell was accepted.
    pub fn offer(&mut self, t: f64) -> bool {
        debug_assert!(t >= self.clock - 1e-12, "time went backwards");
        // Drain since the last event.
        let drained = (t - self.clock).max(0.0) * self.rate_cells_per_sec;
        self.occupancy = (self.occupancy - drained).max(0.0);
        self.clock = t;
        self.arrived += 1;
        if self.occupancy + 1.0 > self.buffer_cells + 1.0 {
            // Buffer (plus the cell in service) is full: drop.
            self.lost += 1;
            false
        } else {
            self.occupancy += 1.0;
            true
        }
    }

    /// Cells offered so far.
    pub fn arrived(&self) -> u64 {
        self.arrived
    }

    /// Cells dropped so far.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Cell loss ratio.
    pub fn loss_rate(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            self.lost as f64 / self.arrived as f64
        }
    }

    /// Current occupancy in cells.
    pub fn occupancy(&self) -> f64 {
        self.occupancy
    }
}

/// Result of a cell-level simulation.
#[derive(Debug, Clone, Copy)]
pub struct CellSimResult {
    /// Cell loss ratio.
    pub cell_loss_rate: f64,
    /// Total cells offered.
    pub cells_arrived: u64,
    /// Total cells lost.
    pub cells_lost: u64,
}

/// Runs a cell-level simulation of `n_sources` offset copies of a trace
/// through a cell queue.
///
/// `capacity_bps` is in payload bytes/second (so results are comparable
/// with the fluid simulator); `buffer_bytes` likewise. Offsets are in
/// frames, as in [`crate::mux`].
pub fn simulate_cells(
    trace: &Trace,
    offsets: &[usize],
    capacity_bps: f64,
    buffer_bytes: f64,
    spacing: CellSpacing,
    seed: u64,
) -> CellSimResult {
    assert!(!offsets.is_empty());
    let slices = trace.slice_bytes();
    let n = slices.len();
    let spf = trace.slices_per_frame();
    let dt = trace.slice_duration();
    let rate_cells = capacity_bps / ATM_PAYLOAD_BYTES as f64;
    let buffer_cells = (buffer_bytes / ATM_PAYLOAD_BYTES as f64).floor() as usize;
    let mut q = CellQueue::new(buffer_cells, rate_cells);
    let mut rng = Xoshiro256::seed_from_u64(seed);

    let mut instants: Vec<f64> = Vec::with_capacity(256);
    for slot in 0..n {
        let t0 = slot as f64 * dt;
        instants.clear();
        for &off_frames in offsets {
            let idx = (slot + off_frames * spf) % n;
            let cells = slices[idx].div_ceil(ATM_PAYLOAD_BYTES);
            match spacing {
                CellSpacing::Uniform => {
                    for i in 0..cells {
                        instants.push(t0 + (i as f64 + 0.5) / cells as f64 * dt);
                    }
                }
                CellSpacing::Random => {
                    for _ in 0..cells {
                        instants.push(t0 + rng.open01() * dt);
                    }
                }
            }
        }
        instants.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &t in instants.iter() {
            q.offer(t);
        }
    }
    CellSimResult {
        cell_loss_rate: q.loss_rate(),
        cells_arrived: q.arrived(),
        cells_lost: q.lost(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_video::{generate_screenplay, ScreenplayConfig};

    fn test_trace() -> Trace {
        generate_screenplay(&ScreenplayConfig::short(1_000, 31))
    }

    #[test]
    fn queue_accepts_until_full_then_drops() {
        let mut q = CellQueue::new(2, 1.0); // 1 cell/s, room for 2 + in service
        assert!(q.offer(0.0));
        assert!(q.offer(0.0));
        assert!(q.offer(0.0));
        assert!(!q.offer(0.0)); // fourth simultaneous cell dropped
        assert_eq!(q.lost(), 1);
    }

    #[test]
    fn queue_drains_between_arrivals() {
        let mut q = CellQueue::new(1, 10.0); // drains 1 cell per 0.1 s
        assert!(q.offer(0.0));
        assert!(q.offer(0.0));
        assert!(!q.offer(0.0));
        // After 0.25 s, 2.5 cells drained: room again.
        assert!(q.offer(0.25));
        assert_eq!(q.arrived(), 4);
        assert_eq!(q.lost(), 1);
    }

    #[test]
    fn no_loss_at_generous_capacity() {
        let t = test_trace();
        let mean_bps = t.mean_bandwidth_bps() / 8.0;
        let r = simulate_cells(&t, &[0], mean_bps * 4.0, 100_000.0, CellSpacing::Uniform, 1);
        assert_eq!(r.cells_lost, 0);
        assert!(r.cells_arrived > 100_000);
    }

    #[test]
    fn heavy_loss_below_mean_rate() {
        let t = test_trace();
        let mean_bps = t.mean_bandwidth_bps() / 8.0;
        let r = simulate_cells(&t, &[0], mean_bps * 0.5, 5_000.0, CellSpacing::Uniform, 1);
        assert!(r.cell_loss_rate > 0.3, "loss {}", r.cell_loss_rate);
    }

    #[test]
    fn cell_and_fluid_losses_agree_for_uniform_spacing() {
        // The fluid model is the limit of uniformly-spaced cells; at a
        // moderately lossy operating point the two must agree closely.
        let t = test_trace();
        let mean_bps = t.mean_bandwidth_bps() / 8.0;
        let cap = mean_bps * 1.05;
        let buf = 20_000.0;
        let cells = simulate_cells(&t, &[0], cap, buf, CellSpacing::Uniform, 2);
        let sim = crate::MuxSim::new(&t, 1, 2);
        let fluid = sim.run(cap, buf);
        assert!(
            (cells.cell_loss_rate - fluid.p_l).abs() < 0.3 * fluid.p_l.max(1e-4),
            "cell {} vs fluid {}",
            cells.cell_loss_rate,
            fluid.p_l
        );
    }

    #[test]
    fn random_spacing_loses_at_least_as_much_with_tiny_buffers() {
        // Clumped arrivals overflow small buffers more often.
        let t = test_trace();
        let mean_bps = t.mean_bandwidth_bps() / 8.0;
        let cap = mean_bps * 1.2;
        let buf = 500.0; // ~10 cells
        let uni = simulate_cells(&t, &[0], cap, buf, CellSpacing::Uniform, 3);
        let rnd = simulate_cells(&t, &[0], cap, buf, CellSpacing::Random, 3);
        assert!(
            rnd.cell_loss_rate >= uni.cell_loss_rate * 0.9,
            "random {} vs uniform {}",
            rnd.cell_loss_rate,
            uni.cell_loss_rate
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let t = test_trace();
        let cap = t.mean_bandwidth_bps() / 8.0 * 1.1;
        let a = simulate_cells(&t, &[0, 100], cap, 2_000.0, CellSpacing::Random, 7);
        let b = simulate_cells(&t, &[0, 100], cap, 2_000.0, CellSpacing::Random, 7);
        assert_eq!(a.cells_lost, b.cells_lost);
    }

    #[test]
    fn multiplexing_smooths_cell_loss_too() {
        let t = test_trace();
        let per_src = t.mean_bandwidth_bps() / 8.0 * 1.3;
        let l1 = simulate_cells(&t, &[0], per_src, 3_000.0, CellSpacing::Uniform, 8);
        let l4 = simulate_cells(
            &t,
            &[0, 100, 300, 600],
            per_src * 4.0,
            12_000.0,
            CellSpacing::Uniform,
            8,
        );
        assert!(
            l4.cell_loss_rate <= l1.cell_loss_rate,
            "4 sources {} vs 1 source {}",
            l4.cell_loss_rate,
            l1.cell_loss_rate
        );
    }
}
