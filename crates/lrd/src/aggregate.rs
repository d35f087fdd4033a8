//! Aggregated processes `X^(m)` — averaging over non-overlapping blocks of
//! size `m` (paper §3.2.2). Self-similarity means `X^(m)` keeps the
//! autocorrelation function of `X`; for SRD processes it whitens.

/// Averages a series over non-overlapping blocks of size `m`.
///
/// The trailing partial block (fewer than `m` samples) is dropped, matching
/// the definition of `X^(m)`.
pub fn aggregate(xs: &[f64], m: usize) -> Vec<f64> {
    assert!(m > 0, "block size must be positive");
    let blocks = xs.len() / m;
    (0..blocks).map(|b| xs[b * m..(b + 1) * m].iter().sum::<f64>() / m as f64).collect()
}

/// A log-spaced grid of block sizes from 1 to `max_m` with roughly
/// `points_per_decade` values per decade (deduplicated, ascending).
pub fn log_spaced_blocks(max_m: usize, points_per_decade: usize) -> Vec<usize> {
    assert!(max_m >= 1 && points_per_decade >= 1);
    let mut out = Vec::new();
    let decades = (max_m as f64).log10();
    let total = (decades * points_per_decade as f64).ceil() as usize + 1;
    for i in 0..=total {
        let m = 10f64.powf(i as f64 / points_per_decade as f64).round() as usize;
        let m = m.clamp(1, max_m);
        if out.last() != Some(&m) {
            out.push(m);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_means_computed() {
        let xs = [1.0, 3.0, 5.0, 7.0, 9.0];
        assert_eq!(aggregate(&xs, 2), vec![2.0, 6.0]); // last element dropped
        assert_eq!(aggregate(&xs, 1), xs.to_vec());
        assert_eq!(aggregate(&xs, 5), vec![5.0]);
        assert!(aggregate(&xs, 6).is_empty());
    }

    #[test]
    fn mean_preserved() {
        let xs: Vec<f64> = (0..1000).map(|i| (i % 13) as f64).collect();
        let agg = aggregate(&xs, 10);
        let m1 = xs.iter().sum::<f64>() / xs.len() as f64;
        let m2 = agg.iter().sum::<f64>() / agg.len() as f64;
        assert!((m1 - m2).abs() < 1e-9);
    }

    #[test]
    fn variance_non_increasing() {
        let xs: Vec<f64> =
            (0..10_000).map(|i| ((i * 2654435761u64 as usize) % 1000) as f64).collect();
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64
        };
        let v1 = var(&xs);
        let v10 = var(&aggregate(&xs, 10));
        let v100 = var(&aggregate(&xs, 100));
        assert!(v10 < v1);
        assert!(v100 < v10);
    }

    #[test]
    fn log_grid_ascending_unique_and_bounded() {
        let grid = log_spaced_blocks(10_000, 5);
        assert_eq!(grid[0], 1);
        assert_eq!(*grid.last().unwrap(), 10_000);
        for w in grid.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn log_grid_tiny_max() {
        assert_eq!(log_spaced_blocks(1, 5), vec![1]);
        let g = log_spaced_blocks(3, 5);
        assert!(g.contains(&1) && g.contains(&3));
    }
}
