//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component in the workspace takes an explicit seed so
//! that the reproduction harness is bit-for-bit deterministic. The
//! generator is xoshiro256++ seeded through SplitMix64, implementing
//! [`rand::Rng`] so it composes with the `rand` ecosystem.

use rand::rand_core::Infallible;
use rand::{Rng, TryRng};

/// xoshiro256++ PRNG (Blackman & Vigna), seeded via SplitMix64.
///
/// Fast, 256-bit state, passes BigCrush; more than adequate for the
/// Monte-Carlo work in this workspace.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        Xoshiro256 { s }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in the open interval (0, 1): never returns 0 or 1, so it is
    /// always safe to feed into a quantile function.
    #[inline]
    pub fn open01(&mut self) -> f64 {
        // 53 random mantissa bits, then nudge off zero.
        let u = (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u == 0.0 {
            f64::MIN_POSITIVE
        } else {
            u
        }
    }

    /// Standard normal deviate via the inverse-CDF method.
    ///
    /// Inverse-CDF (rather than Box–Muller) keeps sampling consistent with
    /// the probability-integral marginal transform used by the source
    /// model, which matters for tail fidelity.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        crate::special::norm_quantile(self.open01())
    }

    /// Fills `out` with standard normal deviates — the batch twin of
    /// [`standard_normal`](Self::standard_normal).
    ///
    /// Draw accounting is identical to the scalar path: exactly one
    /// `next()` (one u64) is consumed per output element, in output
    /// order, and the values are bit-identical to a `for` loop of
    /// `standard_normal()` calls. Callers may therefore mix batch and
    /// scalar sampling freely without perturbing the stream — filling a
    /// prefix in bulk and drawing the rest one at a time yields the same
    /// sequence as either pure strategy (pinned by
    /// `batch_normal_matches_scalar_sequence` below).
    ///
    /// The batch shape wins because the uniform fill is a tight integer
    /// loop and the quantile transform runs as the vectorizable slice
    /// kernel [`crate::special::norm_quantile_slice`].
    pub fn fill_standard_normal(&mut self, out: &mut [f64]) {
        self.fill_open01(out);
        crate::special::norm_quantile_slice(out);
    }

    /// Fills `out` with open-interval uniforms — the draw half of
    /// [`fill_standard_normal`](Self::fill_standard_normal), split out
    /// so multi-source cohorts can draw each source's uniforms from its
    /// own generator and then run *one* quantile pass over the
    /// concatenation. Because the quantile transform is elementwise,
    /// `fill_open01` on each segment followed by a single
    /// [`crate::special::norm_quantile_slice`] over the whole buffer is
    /// bit-identical to calling `fill_standard_normal` per segment.
    #[inline]
    pub fn fill_open01(&mut self, out: &mut [f64]) {
        for x in out.iter_mut() {
            *x = self.open01();
        }
    }

    /// The full 256-bit generator state, for checkpoint/restore. A
    /// generator rebuilt via [`from_state`](Self::from_state) continues
    /// the exact draw sequence this one would have produced.
    #[inline]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from [`state`](Self::state). Returns `None`
    /// for the all-zero state, which is the one fixed point of
    /// xoshiro256++ (it would emit zeros forever) and can only come
    /// from corrupt or hostile snapshot bytes.
    pub fn from_state(s: [u64; 4]) -> Option<Self> {
        if s == [0; 4] {
            None
        } else {
            Some(Xoshiro256 { s })
        }
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        // Lemire's multiply-shift; bias is negligible for our n << 2^64.
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

// `rand_core` blanket-implements `Rng` for every infallible `TryRng`,
// so implementing `TryRng` is all that's needed to join the ecosystem.
impl TryRng for Xoshiro256 {
    type Error = Infallible;

    fn try_next_u32(&mut self) -> Result<u32, Infallible> {
        Ok((self.next() >> 32) as u32)
    }

    fn try_next_u64(&mut self) -> Result<u64, Infallible> {
        Ok(self.next())
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Infallible> {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
        Ok(())
    }
}

/// Uniform in (0,1) from any `Rng` (used by distribution `sample`).
#[inline]
pub fn open01(rng: &mut dyn Rng) -> f64 {
    let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    if u == 0.0 {
        f64::MIN_POSITIVE
    } else {
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn open01_stays_in_open_interval() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..10_000 {
            let u = rng.open01();
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn uniform_mean_and_variance() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.open01()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.005, "var {var}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn batch_normal_matches_scalar_sequence() {
        // The batch path must consume exactly one u64 per variate and
        // produce bit-identical values, for every split of the stream
        // between batch and scalar sampling.
        for n in [0usize, 1, 3, 4, 7, 64, 1000] {
            let mut scalar_rng = Xoshiro256::seed_from_u64(42);
            let scalar: Vec<f64> = (0..n).map(|_| scalar_rng.standard_normal()).collect();
            for split in [0, n / 3, n / 2, n] {
                let mut rng = Xoshiro256::seed_from_u64(42);
                let mut got = vec![0.0; n];
                rng.fill_standard_normal(&mut got[..split]);
                for x in &mut got[split..] {
                    *x = rng.standard_normal();
                }
                assert_eq!(got, scalar, "n={n} split={split}");
                // Both generators must end in the same stream position.
                assert_eq!(rng.next_u64(), scalar_rng.clone().next_u64());
            }
        }
    }

    #[test]
    fn standard_normal_draw_sequence_is_pinned() {
        // Golden first draws for seed 42. Any change to the uniform
        // mapping, the quantile implementation, or the per-variate draw
        // count shows up here — which would silently break FgnStream
        // prefix-exactness and every seeded reproduction.
        let mut rng = Xoshiro256::seed_from_u64(42);
        let got: Vec<u64> = (0..8).map(|_| rng.standard_normal().to_bits()).collect();
        let want: [f64; 8] = [
            0.8938732534857367,
            -0.47099811624147325,
            2.1417741113345365,
            0.5276694166748405,
            0.8186414327439826,
            0.2226562332135111,
            -1.1486389622005084,
            0.2666286392818638,
        ];
        let want_bits: Vec<u64> = want.iter().map(|w| w.to_bits()).collect();
        assert_eq!(got, want_bits);
    }

    #[test]
    fn state_round_trip_continues_the_stream() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        for _ in 0..57 {
            rng.next_u64();
        }
        let saved = rng.state();
        let want: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
        let mut restored = Xoshiro256::from_state(saved).unwrap();
        let got: Vec<u64> = (0..32).map(|_| restored.next_u64()).collect();
        assert_eq!(got, want);
        // The degenerate all-zero state is refused.
        assert!(Xoshiro256::from_state([0; 4]).is_none());
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fill_bytes_handles_uneven_lengths() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        // Overwhelmingly unlikely to be all zero.
        assert!(buf.iter().any(|&b| b != 0));
    }
}
