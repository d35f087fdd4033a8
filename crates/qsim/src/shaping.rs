//! CBR smoothing — the transport alternative the paper's introduction
//! argues against: "Forcing the transmission rate to be constant results
//! in delay, wasted bandwidth, and modulation of the video quality."
//!
//! A smoothing buffer at the coder releases bytes at a constant rate `R`;
//! this module computes the buffer/delay that CBR transport of a VBR
//! trace would need, so the CBR-vs-VBR efficiency comparison can be made
//! quantitatively.

use vbr_video::Trace;

/// Outcome of smoothing a trace to a constant rate.
#[derive(Debug, Clone, Copy)]
pub struct SmoothingResult {
    /// The constant transmission rate, bytes/second.
    pub rate_bps: f64,
    /// Peak smoothing-buffer occupancy, bytes.
    pub max_backlog_bytes: f64,
    /// Worst-case added delay `max backlog / R`, seconds.
    pub max_delay_secs: f64,
    /// Link utilisation `mean rate / R`.
    pub utilization: f64,
}

/// Simulates a coder-side smoothing buffer draining at `rate_bps`
/// (bytes/s). The buffer is unbounded: CBR transport trades delay, not
/// loss. Panics if `rate_bps` is not above the long-run mean (the backlog
/// would diverge).
pub fn smooth_to_cbr(trace: &Trace, rate_bps: f64) -> SmoothingResult {
    let dt = trace.slice_duration();
    let mean = trace.mean_bandwidth_bps() / 8.0;
    assert!(rate_bps > mean, "CBR rate {rate_bps} must exceed the mean rate {mean}");
    let mut backlog = 0.0f64;
    let mut max_backlog = 0.0f64;
    for &b in trace.slice_bytes() {
        backlog = (backlog + b as f64 - rate_bps * dt).max(0.0);
        max_backlog = max_backlog.max(backlog);
    }
    SmoothingResult {
        rate_bps,
        max_backlog_bytes: max_backlog,
        max_delay_secs: max_backlog / rate_bps,
        utilization: mean / rate_bps,
    }
}

/// Finds the smallest CBR rate whose worst-case smoothing delay is at
/// most `max_delay_secs` (bisection between the mean and peak slot rates).
pub fn min_cbr_rate(trace: &Trace, max_delay_secs: f64, iterations: usize) -> SmoothingResult {
    assert!(max_delay_secs > 0.0);
    let dt = trace.slice_duration();
    let mean = trace.mean_bandwidth_bps() / 8.0;
    let peak = trace.slice_bytes().iter().map(|&b| b as f64 / dt).fold(0.0f64, f64::max);
    let mut lo = mean * 1.000_001;
    let mut hi = peak.max(lo * 1.001);
    for _ in 0..iterations {
        let mid = 0.5 * (lo + hi);
        if smooth_to_cbr(trace, mid).max_delay_secs <= max_delay_secs {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    smooth_to_cbr(trace, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_video::{generate_screenplay, ScreenplayConfig, Trace};

    fn test_trace() -> Trace {
        generate_screenplay(&ScreenplayConfig::short(5_000, 51))
    }

    #[test]
    fn peak_rate_needs_no_buffer() {
        let t = test_trace();
        let dt = t.slice_duration();
        let peak = t.slice_bytes().iter().map(|&b| b as f64 / dt).fold(0.0f64, f64::max);
        let r = smooth_to_cbr(&t, peak * 1.001);
        assert!(r.max_backlog_bytes < 1.0, "backlog {}", r.max_backlog_bytes);
        assert!(r.max_delay_secs < 1e-6);
    }

    #[test]
    fn rate_near_mean_needs_huge_buffer() {
        let t = test_trace();
        let mean = t.mean_bandwidth_bps() / 8.0;
        let tight = smooth_to_cbr(&t, mean * 1.02);
        let loose = smooth_to_cbr(&t, mean * 1.5);
        assert!(tight.max_delay_secs > 10.0 * loose.max_delay_secs);
        assert!(tight.utilization > loose.utilization);
    }

    #[test]
    fn delay_decreases_monotonically_with_rate() {
        let t = test_trace();
        let mean = t.mean_bandwidth_bps() / 8.0;
        let mut prev = f64::INFINITY;
        for f in [1.05, 1.2, 1.5, 2.0] {
            let d = smooth_to_cbr(&t, mean * f).max_delay_secs;
            assert!(d <= prev + 1e-12);
            prev = d;
        }
    }

    #[test]
    fn min_cbr_rate_meets_the_delay_bound_tightly() {
        let t = test_trace();
        let r = min_cbr_rate(&t, 0.5, 30);
        assert!(r.max_delay_secs <= 0.5);
        // A slightly lower rate would violate the bound.
        let lower = smooth_to_cbr(&t, r.rate_bps * 0.99);
        assert!(lower.max_delay_secs > 0.5 * 0.9);
    }

    #[test]
    fn cbr_is_less_efficient_than_statistical_multiplexing() {
        // The intro's argument in numbers: CBR transport at a
        // half-second delay budget needs more bandwidth per source than a
        // 20-way statistical multiplex at the same mean load.
        let t = test_trace();
        let cbr = min_cbr_rate(&t, 0.5, 30);
        let sim = crate::MuxSim::new(&t, 10, 1);
        let vbr_per_src = sim.required_capacity(
            0.002,
            crate::LossTarget::Rate(1e-4),
            crate::LossMetric::Overall,
            18,
        ) / 10.0;
        assert!(
            cbr.rate_bps > vbr_per_src,
            "CBR {} should exceed VBR-multiplexed per-source {}",
            cbr.rate_bps,
            vbr_per_src
        );
    }

    #[test]
    #[should_panic(expected = "must exceed the mean")]
    fn rate_below_mean_rejected() {
        let t = test_trace();
        smooth_to_cbr(&t, t.mean_bandwidth_bps() / 8.0 * 0.9);
    }
}
