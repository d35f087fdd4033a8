//! Hosking's exact algorithm for generating fractional ARIMA(0, d, 0)
//! sample paths — the paper's traffic generator (§4.1, Eqs 6–12).
//!
//! Each point is drawn from the exact conditional distribution given the
//! entire past (a Durbin–Levinson recursion), so the output has *exactly*
//! the fARIMA autocorrelation function at every lag. Cost is `O(n²)` —
//! the paper reports 10 hours for 171 000 points on a 1994 workstation;
//! see [`crate::davies_harte`] for the `O(n log n)` alternative.

use crate::acvf::hurst_to_d;
use vbr_stats::rng::Xoshiro256;

/// Exact fractional ARIMA(0, d, 0) generator.
///
/// ```
/// use vbr_fgn::Hosking;
///
/// let gen = Hosking::new(0.8, 1.0);
/// let x = gen.generate(256, 1);
/// assert_eq!(x.len(), 256);
/// // Persistent: positive lag-1 correlation (rho_1 = d/(1-d) = 3/7).
/// let r1: f64 = x.windows(2).map(|w| w[0] * w[1]).sum::<f64>()
///     / x.iter().map(|v| v * v).sum::<f64>();
/// assert!(r1 > 0.1, "lag-1 correlation {r1}");
/// ```
#[derive(Debug, Clone)]
pub struct Hosking {
    d: f64,
    variance: f64,
}

impl Hosking {
    /// Creates a generator with Hurst parameter `H ∈ [0.5, 1)` and
    /// marginal variance `v₀`.
    pub fn new(hurst: f64, variance: f64) -> Self {
        let d = hurst_to_d(hurst);
        assert!(variance > 0.0, "variance must be positive, got {variance}");
        Hosking { d, variance }
    }

    /// The fractional-differencing parameter `d = H − ½`.
    pub fn d(&self) -> f64 {
        self.d
    }

    /// Generates `n` points of zero-mean Gaussian fARIMA(0, d, 0)
    /// (paper Eqs 7–12).
    pub fn generate(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        self.generate_with(n, &mut rng)
    }

    /// Like [`generate`](Self::generate) but drawing from a caller-owned
    /// RNG (for streaming several dependent components off one seed).
    pub fn generate_with(&self, n: usize, rng: &mut Xoshiro256) -> Vec<f64> {
        let _span = vbr_stats::obs::span("fgn.hosking");
        if n == 0 {
            return Vec::new();
        }
        // Memoized: the partial-correlation coefficients φ_kk (Eqs 7–9)
        // depend only on (d, n), so repeat runs skip the Eq (7) inner
        // product against the ACF entirely — roughly half the O(n²)
        // flops. The remaining per-step work fuses the Eq (10) row
        // update with the Eq (11) dot product into one pass over the
        // row, preserving the original term order so output is
        // bit-identical to the unmemoized recursion (pinned by
        // `memoized_recursion_matches_inline_reference` below).
        let refl = crate::cache::hosking_reflections_cached(self.d, n);

        // One normal per step, pre-drawn as a single batch through the
        // vectorized quantile kernel. The batch path consumes one u64
        // per variate in output order, so the stream position and every
        // value are bit-identical to per-step draws.
        let mut gauss = vec![0.0; n];
        rng.fill_standard_normal(&mut gauss);

        let mut x = Vec::with_capacity(n);
        // X_0 ~ N(0, v_0).
        x.push(gauss[0] * self.variance.sqrt());

        // φ_{k,j} from the previous iteration (φ_{k−1,·}, 1-indexed by j).
        let mut phi_prev: Vec<f64> = Vec::with_capacity(n);
        let mut phi: Vec<f64> = Vec::with_capacity(n);

        let mut v = self.variance; // v_0

        for k in 1..n {
            let phi_kk = refl[k - 1];
            // Eq (10): φ_kj = φ_{k−1,j} − φ_kk φ_{k−1,k−j}, fused with
            // Eq (11): m_k = Σ_{j=1}^{k} φ_kj X_{k−j} — each freshly
            // computed row entry is consumed immediately, so the row is
            // traversed once instead of twice per step.
            phi.clear();
            let mut m = 0.0;
            for j in 1..k {
                let p = phi_prev[j - 1] - phi_kk * phi_prev[k - j - 1];
                phi.push(p);
                m += p * x[k - j];
            }
            phi.push(phi_kk);
            m += phi_kk * x[0];

            // Eq (12): v_k = (1 − φ_kk²) v_{k−1}
            v *= 1.0 - phi_kk * phi_kk;

            x.push(m + gauss[k] * v.sqrt());

            std::mem::swap(&mut phi_prev, &mut phi);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acvf::farima_acf;
    use vbr_stats::acf::autocorrelation;

    #[test]
    fn deterministic_given_seed() {
        let g = Hosking::new(0.8, 1.0);
        assert_eq!(g.generate(100, 7), g.generate(100, 7));
        assert_ne!(g.generate(100, 7), g.generate(100, 8));
    }

    /// The pre-memoization recursion, kept verbatim as the scalar twin:
    /// Eqs 7–12 inline, nothing cached or fused.
    fn reference_generate(d: f64, variance: f64, n: usize, seed: u64) -> Vec<f64> {
        let rho = farima_acf(d, n);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut x = Vec::with_capacity(n);
        x.push(rng.standard_normal() * variance.sqrt());
        let mut phi_prev: Vec<f64> = Vec::new();
        let mut phi: Vec<f64> = Vec::new();
        let (mut n_prev, mut d_prev, mut v) = (0.0f64, 1.0f64, variance);
        for k in 1..n {
            let mut nk = rho[k];
            for j in 1..k {
                nk -= phi_prev[j - 1] * rho[k - j];
            }
            let dk = d_prev - n_prev * n_prev / d_prev;
            let phi_kk = nk / dk;
            phi.clear();
            for j in 1..k {
                phi.push(phi_prev[j - 1] - phi_kk * phi_prev[k - j - 1]);
            }
            phi.push(phi_kk);
            let mut m = 0.0;
            for (j, &p) in phi.iter().enumerate() {
                m += p * x[k - 1 - j];
            }
            v *= 1.0 - phi_kk * phi_kk;
            x.push(m + rng.standard_normal() * v.sqrt());
            std::mem::swap(&mut phi_prev, &mut phi);
            n_prev = nk;
            d_prev = dk;
        }
        x
    }

    #[test]
    fn memoized_recursion_matches_inline_reference() {
        // The reflection-coefficient cache and the fused Eq (10)+(11)
        // loop must not change a single bit of any sample path.
        for &(h, var, n, seed) in
            &[(0.8f64, 1.0f64, 300usize, 7u64), (0.6, 4.0, 128, 3), (0.95, 0.5, 64, 11)]
        {
            let g = Hosking::new(h, var);
            let got = g.generate(n, seed);
            let want = reference_generate(hurst_to_d(h), var, n, seed);
            assert_eq!(got.len(), want.len());
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "H={h} n={n} sample {i}");
            }
        }
    }

    #[test]
    fn h_half_is_white_noise() {
        let g = Hosking::new(0.5, 1.0);
        let x = g.generate(20_000, 1);
        let r = autocorrelation(&x, 5);
        for &v in &r[1..] {
            assert!(v.abs() < 0.03, "white-noise ACF should vanish, got {v}");
        }
    }

    #[test]
    fn sample_acf_matches_theory_at_short_lags() {
        let h = 0.8;
        let g = Hosking::new(h, 1.0);
        let x = g.generate(30_000, 2);
        let r = autocorrelation(&x, 10);
        let want = farima_acf(hurst_to_d(h), 10);
        for k in 1..=10 {
            assert!(
                (r[k] - want[k]).abs() < 0.05,
                "lag {k}: sample {} vs theory {}",
                r[k],
                want[k]
            );
        }
    }

    #[test]
    fn marginal_variance_matches() {
        let g = Hosking::new(0.75, 4.0);
        let x = g.generate(30_000, 3);
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        let var = x.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / x.len() as f64;
        // LRD sample variance converges slowly; generous tolerance.
        assert!((var - 4.0).abs() < 0.6, "var {var}");
    }

    #[test]
    fn aggregated_variance_decays_slowly() {
        // For H = 0.85, Var(X^(m)) ~ m^{2H−2} = m^{−0.3}; for white noise
        // it's m^{−1}. At m = 100 the ratio to Var(X) should be ≈ 0.25,
        // way above the 0.01 an SRD process would give.
        let g = Hosking::new(0.85, 1.0);
        let x = g.generate(50_000, 4);
        let m = 100;
        let agg: Vec<f64> = x.chunks(m).map(|c| c.iter().sum::<f64>() / c.len() as f64).collect();
        let var_agg = {
            let mu = agg.iter().sum::<f64>() / agg.len() as f64;
            agg.iter().map(|v| (v - mu).powi(2)).sum::<f64>() / agg.len() as f64
        };
        assert!(var_agg > 0.08, "aggregated variance {var_agg} too small — no LRD");
    }

    #[test]
    fn empty_and_single() {
        let g = Hosking::new(0.8, 1.0);
        assert!(g.generate(0, 1).is_empty());
        assert_eq!(g.generate(1, 1).len(), 1);
    }
}
