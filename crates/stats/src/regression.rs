//! Simple ordinary-least-squares line fitting.
//!
//! Used wherever the paper reads a slope off a log-log plot: the Pareto
//! tail (Fig 4), the variance-time plot (Fig 11), the R/S pox diagram
//! (Fig 12) and the low-frequency periodogram (Fig 8).

/// Result of fitting `y = intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination R².
    pub r_squared: f64,
    /// Standard error of the slope estimate.
    pub slope_std_err: f64,
    /// Number of points used.
    pub n: usize,
}

impl LineFit {
    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Least-squares line through `(x, y)` pairs. Panics with fewer than two
/// points or zero x-variance.
pub fn fit_line(xs: &[f64], ys: &[f64]) -> LineFit {
    assert_eq!(xs.len(), ys.len(), "fit_line: mismatched lengths");
    let n = xs.len();
    assert!(n >= 2, "fit_line needs at least 2 points, got {n}");
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    assert!(sxx > 0.0, "fit_line: x values are constant");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_res = (syy - slope * sxy).max(0.0);
    let r_squared = if syy > 0.0 { 1.0 - ss_res / syy } else { 1.0 };
    let slope_std_err = if n > 2 { (ss_res / (nf - 2.0) / sxx).sqrt() } else { 0.0 };
    LineFit { slope, intercept, r_squared, slope_std_err, n }
}

/// Weighted least-squares line through `(x, y)` pairs with weights `ws`.
///
/// Minimises `Σ wᵢ (yᵢ − a − b·xᵢ)²`. Weights must be non-negative with at
/// least two strictly positive entries; they need not be normalised (only
/// relative weights matter for the fit itself). The reported `r_squared`
/// is the weighted coefficient of determination and `slope_std_err` is the
/// heteroscedastic standard error under the model `Var[yᵢ] = σ²/wᵢ` —
/// exactly the Abry–Veitch setting where `wᵢ ∝ n_j` and the coarse,
/// high-variance octaves are down-weighted instead of dominating the fit.
///
/// Panics on mismatched lengths, fewer than two positive-weight points,
/// negative/non-finite weights, or zero weighted x-variance.
pub fn fit_line_weighted(xs: &[f64], ys: &[f64], ws: &[f64]) -> LineFit {
    assert_eq!(xs.len(), ys.len(), "fit_line_weighted: mismatched lengths");
    assert_eq!(xs.len(), ws.len(), "fit_line_weighted: mismatched weights");
    let mut wsum = 0.0;
    let mut used = 0usize;
    for &w in ws {
        assert!(w >= 0.0 && w.is_finite(), "fit_line_weighted: bad weight {w}");
        if w > 0.0 {
            used += 1;
        }
        wsum += w;
    }
    assert!(used >= 2, "fit_line_weighted needs at least 2 weighted points, got {used}");
    let mx = xs.iter().zip(ws).map(|(&x, &w)| w * x).sum::<f64>() / wsum;
    let my = ys.iter().zip(ws).map(|(&y, &w)| w * y).sum::<f64>() / wsum;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for ((&x, &y), &w) in xs.iter().zip(ys).zip(ws) {
        let dx = x - mx;
        let dy = y - my;
        sxx += w * dx * dx;
        sxy += w * dx * dy;
        syy += w * dy * dy;
    }
    assert!(sxx > 0.0, "fit_line_weighted: x values are constant");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_res = (syy - slope * sxy).max(0.0);
    let r_squared = if syy > 0.0 { 1.0 - ss_res / syy } else { 1.0 };
    let slope_std_err = if used > 2 { (ss_res / (used as f64 - 2.0) / sxx).sqrt() } else { 0.0 };
    LineFit { slope, intercept, r_squared, slope_std_err, n: used }
}

/// Fits a line to `(ln x, ln y)` — the log-log slope.
/// Points with non-positive x or y are skipped.
pub fn fit_loglog(xs: &[f64], ys: &[f64]) -> LineFit {
    let pairs: (Vec<f64>, Vec<f64>) = xs
        .iter()
        .zip(ys)
        .filter(|(&x, &y)| x > 0.0 && y > 0.0)
        .map(|(&x, &y)| (x.ln(), y.ln()))
        .unzip();
    fit_line(&pairs.0, &pairs.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 - 2.0 * x).collect();
        let f = fit_line(&xs, &ys);
        assert!((f.slope + 2.0).abs() < 1e-12);
        assert!((f.intercept - 3.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
        assert!(f.slope_std_err < 1e-10);
    }

    #[test]
    fn noisy_line_approximate() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 1.0 + 0.5 * x + if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let f = fit_line(&xs, &ys);
        assert!((f.slope - 0.5).abs() < 0.01);
        assert!((f.intercept - 1.0).abs() < 0.05);
        assert!(f.r_squared > 0.95);
        assert!(f.slope_std_err > 0.0);
    }

    #[test]
    fn loglog_recovers_power_law() {
        // y = 7 x^{-1.8}
        let xs: Vec<f64> = (1..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 7.0 * x.powf(-1.8)).collect();
        let f = fit_loglog(&xs, &ys);
        assert!((f.slope + 1.8).abs() < 1e-10);
        assert!((f.intercept - 7.0f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn loglog_skips_nonpositive() {
        let xs = [0.0, 1.0, 2.0, 4.0];
        let ys = [5.0, 1.0, 0.5, 0.25];
        // First point (x = 0) must be ignored; remaining is y = x^{-1}.
        let f = fit_loglog(&xs, &ys);
        assert!((f.slope + 1.0).abs() < 1e-12);
        assert_eq!(f.n, 3);
    }

    #[test]
    fn predict_interpolates() {
        let f = fit_line(&[0.0, 1.0], &[2.0, 4.0]);
        assert!((f.predict(0.5) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_single_point() {
        fit_line(&[1.0], &[1.0]);
    }

    #[test]
    fn weighted_equal_weights_matches_ols() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 - 0.3 * x + if i % 3 == 0 { 0.2 } else { -0.1 })
            .collect();
        let ws = vec![2.5; xs.len()];
        let o = fit_line(&xs, &ys);
        let w = fit_line_weighted(&xs, &ys, &ws);
        assert!((o.slope - w.slope).abs() < 1e-12);
        assert!((o.intercept - w.intercept).abs() < 1e-12);
        assert!((o.r_squared - w.r_squared).abs() < 1e-12);
        assert!((o.slope_std_err - w.slope_std_err).abs() < 1e-12);
    }

    #[test]
    fn weighted_ignores_zero_weight_outlier() {
        // Exact line plus one wild outlier that carries zero weight: the
        // fit must recover the line exactly.
        let xs = [0.0, 1.0, 2.0, 3.0, 10.0];
        let ys = [1.0, 1.5, 2.0, 2.5, 500.0];
        let ws = [1.0, 1.0, 1.0, 1.0, 0.0];
        let f = fit_line_weighted(&xs, &ys, &ws);
        assert!((f.slope - 0.5).abs() < 1e-12);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert_eq!(f.n, 4);
    }

    #[test]
    fn weighted_pulls_toward_heavy_points() {
        // Two interleaved lines; up-weighting one must pull the slope
        // toward it.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 2.0, 2.0, 6.0]; // mix of slope-2 (even idx) and noisy
        let balanced = fit_line_weighted(&xs, &ys, &[1.0; 4]);
        let skewed = fit_line_weighted(&xs, &ys, &[10.0, 1.0, 1.0, 10.0]);
        assert!((skewed.slope - 2.0).abs() < (balanced.slope - 2.0).abs());
    }

    #[test]
    #[should_panic(expected = "at least 2 weighted")]
    fn weighted_rejects_single_effective_point() {
        fit_line_weighted(&[0.0, 1.0, 2.0], &[0.0, 1.0, 2.0], &[1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "bad weight")]
    fn weighted_rejects_negative_weight() {
        fit_line_weighted(&[0.0, 1.0], &[0.0, 1.0], &[1.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "constant")]
    fn rejects_constant_x() {
        fit_line(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]);
    }
}
