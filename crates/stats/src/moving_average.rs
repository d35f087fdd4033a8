//! Moving averages — Fig 2's low-frequency content view (window of
//! 20 000 frames ≈ 14 minutes).

/// Centred moving average with the given window (sliding-sum, `O(n)`).
///
/// Positions whose window would extend past the series use the available
/// samples only (shrinking window at the edges), so the output has the
/// same length as the input.
pub fn moving_average(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let n = xs.len();
    if n == 0 {
        return Vec::new();
    }
    let half = window / 2;
    // Prefix sums for O(1) range means.
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0);
    let mut acc = 0.0;
    for &x in xs {
        acc += x;
        prefix.push(acc);
    }
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            (prefix[hi] - prefix[lo]) / (hi - lo) as f64
        })
        .collect()
}

/// Trailing (causal) moving average: mean of the last `window` samples
/// seen so far. Used for running loss-rate windows (Fig 17).
pub fn trailing_average(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let n = xs.len();
    let mut out = Vec::with_capacity(n);
    let mut acc = 0.0;
    for i in 0..n {
        acc += xs[i];
        if i >= window {
            acc -= xs[i - window];
        }
        let count = (i + 1).min(window);
        out.push(acc / count as f64);
    }
    out
}

/// Downsamples a series to at most `max_points` by averaging consecutive
/// blocks (what you do before "plotting" a 171 000-point trace).
pub fn downsample(xs: &[f64], max_points: usize) -> Vec<f64> {
    assert!(max_points > 0);
    let n = xs.len();
    if n <= max_points {
        return xs.to_vec();
    }
    let block = n.div_ceil(max_points);
    xs.chunks(block).map(|c| c.iter().sum::<f64>() / c.len() as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_unchanged() {
        let xs = vec![3.0; 50];
        assert_eq!(moving_average(&xs, 7), xs);
        assert_eq!(trailing_average(&xs, 7), xs);
    }

    #[test]
    fn centred_window_means() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ma = moving_average(&xs, 3);
        // Interior points are 3-point means; edges shrink.
        assert!((ma[2] - 3.0).abs() < 1e-12);
        assert!((ma[1] - 2.0).abs() < 1e-12);
        assert!((ma[0] - 1.5).abs() < 1e-12); // mean of [1,2]
        assert!((ma[4] - 4.5).abs() < 1e-12); // mean of [4,5]
    }

    #[test]
    fn trailing_window_means() {
        let xs = [2.0, 4.0, 6.0, 8.0];
        let ta = trailing_average(&xs, 2);
        assert_eq!(ta, vec![2.0, 3.0, 5.0, 7.0]);
    }

    #[test]
    fn smoothing_reduces_variance() {
        let xs: Vec<f64> = (0..1000).map(|i| if i % 2 == 0 { 10.0 } else { -10.0 }).collect();
        let ma = moving_average(&xs, 20);
        let var: f64 = ma.iter().map(|v| v * v).sum::<f64>() / ma.len() as f64;
        assert!(var < 1.0, "var {var}");
    }

    #[test]
    fn mean_is_preserved_approximately() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64 * 0.1).sin() + 5.0).collect();
        let ma = moving_average(&xs, 31);
        let m1 = xs.iter().sum::<f64>() / xs.len() as f64;
        let m2 = ma.iter().sum::<f64>() / ma.len() as f64;
        assert!((m1 - m2).abs() < 0.01);
    }

    #[test]
    fn downsample_block_means() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let d = downsample(&xs, 10);
        assert_eq!(d.len(), 10);
        assert!((d[0] - 4.5).abs() < 1e-12);
        assert!((d[9] - 94.5).abs() < 1e-12);
    }

    #[test]
    fn downsample_short_series_is_identity() {
        let xs = vec![1.0, 2.0, 3.0];
        assert_eq!(downsample(&xs, 10), xs);
    }

    #[test]
    fn empty_input_ok() {
        assert!(moving_average(&[], 5).is_empty());
        assert!(trailing_average(&[], 5).is_empty());
    }
}
