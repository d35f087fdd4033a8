//! Bluestein's chirp-z algorithm: FFT of *arbitrary* length via a
//! power-of-two convolution. The length dispatch ([`crate::fft_any`])
//! sends it only lengths with a prime factor above
//! [`crate::MAX_PRIME_FACTOR`]; smooth lengths take the mixed-radix
//! kernel, which needs no `≥ 2n`-point padding.
//!
//! The DFT is rewritten as a convolution
//! `X_k = b*_k Σ_j (x_j b*_j) b_{k-j}` with the chirp
//! `b_j = e^{iπ j²/n}`, which is evaluated with zero-padded radix-2 FFTs.
//!
//! The chirp table and the forward transform of the convolution kernel
//! depend only on `(n, direction)`, so a [`BluesteinPlan`] precomputes
//! both once and [`bluestein_plan_for`] memoizes plans globally, since
//! callers transform the same length many times. With a caller-reused
//! scratch buffer
//! ([`BluesteinPlan::process_into`]) repeat transforms allocate nothing.

use crate::complex::Complex;
use crate::plan::{lru_get_or_build, plan_for, FftPlan, LruPlans};
use crate::radix2::{next_pow2, Direction};
use std::sync::{Arc, Mutex, OnceLock};

/// A reusable chirp-z execution plan for one `(length, direction)` pair.
#[derive(Debug, Clone)]
pub struct BluesteinPlan {
    n: usize,
    conv_len: usize,
    /// Chirp `b_j = exp(sign·iπ j²/n)` for `j in 0..n`.
    chirp: Vec<Complex>,
    /// Forward FFT of the wrapped conjugate-chirp kernel (length
    /// `conv_len`).
    kernel_fft: Vec<Complex>,
    /// The radix-2 plan for the padded convolution length.
    conv_plan: Arc<FftPlan>,
}

impl BluesteinPlan {
    /// Builds a plan for transforms of length `n ≥ 2` in direction `dir`.
    pub fn new(n: usize, dir: Direction) -> BluesteinPlan {
        assert!(n >= 2, "Bluestein plans require length >= 2, got {n}");
        let sign = match dir {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        };

        // Chirp b_j = exp(sign * iπ j² / n). Compute j² mod 2n to keep the
        // angle argument small (j² overflows f64 precision for large j).
        let m2 = 2 * n as u64;
        let chirp: Vec<Complex> = (0..n as u64)
            .map(|j| {
                let jsq = (j * j) % m2;
                Complex::cis(sign * std::f64::consts::PI * jsq as f64 / n as f64)
            })
            .collect();

        let conv_len = next_pow2(2 * n - 1);
        let conv_plan = plan_for(conv_len);

        // b kernel: b*_j at positions j and conv_len - j (wrap-around),
        // transformed once here instead of on every call.
        let mut kernel_fft = vec![Complex::ZERO; conv_len];
        kernel_fft[0] = chirp[0].conj();
        for j in 1..n {
            let c = chirp[j].conj();
            kernel_fft[j] = c;
            kernel_fft[conv_len - j] = c;
        }
        conv_plan.forward(&mut kernel_fft);

        BluesteinPlan { n, conv_len, chirp, kernel_fft, conv_plan }
    }

    /// The transform length this plan serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for a degenerate zero-length plan (never built by
    /// [`BluesteinPlan::new`], which requires `n ≥ 2`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Length of the padded convolution buffer the transform works in.
    pub fn work_len(&self) -> usize {
        self.conv_len
    }

    /// Transforms `input` into `out` using `scratch` as the padded
    /// convolution buffer. Both vectors are resized in place, so callers
    /// that reuse them across calls allocate nothing after the first.
    pub fn process_into(
        &self,
        input: &[Complex],
        out: &mut Vec<Complex>,
        scratch: &mut Vec<Complex>,
    ) {
        scratch.resize(self.conv_len, Complex::ZERO);
        self.convolve_stage(input, scratch);
        out.clear();
        out.extend((0..self.n).map(|k| self.dechirp(scratch, k)));
    }

    /// In-place transform: `buf` holds the input and receives the output
    /// (`buf.len()` must equal the plan length). Zero allocation once
    /// `scratch` has reached the padded convolution length.
    pub fn process_in_place(&self, buf: &mut [Complex], scratch: &mut Vec<Complex>) {
        scratch.resize(self.conv_len, Complex::ZERO);
        self.process_with_work(buf, scratch);
    }

    /// [`process_in_place`](Self::process_in_place) with a caller-sliced
    /// work buffer of at least [`work_len`](Self::work_len) elements
    /// (contents overwritten).
    pub fn process_with_work(&self, buf: &mut [Complex], work: &mut [Complex]) {
        self.convolve_stage(buf, work);
        for (k, b) in buf.iter_mut().enumerate() {
            *b = self.dechirp(work, k);
        }
    }

    /// Chirp-modulates `input` into `work` (zero-padded to the
    /// convolution length) and runs the circular convolution with the
    /// precomputed kernel.
    fn convolve_stage(&self, input: &[Complex], work: &mut [Complex]) {
        assert_eq!(input.len(), self.n, "plan is for length {}, got {}", self.n, input.len());
        assert!(
            work.len() >= self.conv_len,
            "Bluestein work buffer needs {} elements, got {}",
            self.conv_len,
            work.len()
        );
        let work = &mut work[..self.conv_len];
        for (s, (&x, &c)) in work.iter_mut().zip(input.iter().zip(&self.chirp)) {
            *s = x * c;
        }
        work[self.n..].fill(Complex::ZERO);
        self.conv_plan.forward(work);
        for (x, y) in work.iter_mut().zip(&self.kernel_fft) {
            *x *= *y;
        }
        self.conv_plan.inverse(work);
    }

    /// Output bin `k` from the convolved scratch buffer.
    #[inline]
    fn dechirp(&self, scratch: &[Complex], k: usize) -> Complex {
        (scratch[k] * self.chirp[k]).scale(1.0 / self.conv_len as f64)
    }
}

/// Bluestein plans cached per direction; a plan costs ~48 bytes/point,
/// and the bound (16 plans over both directions) keeps the caches modest
/// even for large non-smooth trace lengths.
const MAX_CACHED_PLANS_PER_DIRECTION: usize = 8;

/// Returns the shared chirp-z plan for `(n, dir)`, building and caching
/// it on first use (LRU-bounded, like [`crate::plan::plan_for`]).
pub fn bluestein_plan_for(n: usize, dir: Direction) -> Arc<BluesteinPlan> {
    static FORWARD: OnceLock<Mutex<LruPlans<BluesteinPlan>>> = OnceLock::new();
    static INVERSE: OnceLock<Mutex<LruPlans<BluesteinPlan>>> = OnceLock::new();
    let cache = match dir {
        Direction::Forward => &FORWARD,
        Direction::Inverse => &INVERSE,
    };
    lru_get_or_build(cache, n, MAX_CACHED_PLANS_PER_DIRECTION, || BluesteinPlan::new(n, dir)).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex], dir: Direction) -> Vec<Complex> {
        let n = x.len();
        let sign = if dir == Direction::Forward { -1.0 } else { 1.0 };
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let ang =
                        sign * 2.0 * std::f64::consts::PI * (j as f64) * (k as f64) / n as f64;
                    acc += v * Complex::cis(ang);
                }
                acc
            })
            .collect()
    }

    /// The chirp transform itself, whatever `fft_any` would dispatch to.
    fn chirp(x: &[Complex], dir: Direction) -> Vec<Complex> {
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        bluestein_plan_for(x.len(), dir).process_into(x, &mut out, &mut scratch);
        out
    }

    #[test]
    fn matches_naive_for_awkward_sizes() {
        for &n in &[3usize, 5, 6, 7, 12, 17, 30, 37, 97, 100] {
            let x: Vec<Complex> =
                (0..n).map(|i| Complex::new((i as f64).sin(), (2.0 * i as f64).cos())).collect();
            let got = chirp(&x, Direction::Forward);
            let want = naive_dft(&x, Direction::Forward);
            for (g, w) in got.iter().zip(&want) {
                assert!((*g - *w).abs() < 1e-8, "n={n}: {g:?} vs {w:?}");
            }
        }
    }

    #[test]
    fn inverse_round_trip_odd_length() {
        let n = 101;
        let x: Vec<Complex> = (0..n).map(|i| Complex::from_re(i as f64)).collect();
        let y = chirp(&x, Direction::Forward);
        let z = chirp(&y, Direction::Inverse);
        for (orig, got) in x.iter().zip(&z) {
            assert!((*orig - got.scale(1.0 / n as f64)).abs() < 1e-8);
        }
    }

    #[test]
    fn large_prime_stays_accurate() {
        // j² naive angle computation loses precision around n ~ 1e5;
        // the mod-2n trick must keep the error tiny.
        let n = 10_007; // prime
        let x: Vec<Complex> =
            (0..n).map(|i| Complex::from_re(((i * 37) % 101) as f64 / 101.0)).collect();
        let y = chirp(&x, Direction::Forward);
        // Parseval: Σ|x|² = (1/n) Σ|X|².
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() / ex < 1e-9, "{ex} vs {ey}");
    }

    #[test]
    fn plan_reuse_matches_one_shot() {
        let n = 137;
        let x: Vec<Complex> =
            (0..n).map(|i| Complex::new((i as f64 * 0.3).cos(), (i as f64 * 0.11).sin())).collect();
        let want = chirp(&x, Direction::Forward);
        let plan = bluestein_plan_for(n, Direction::Forward);
        let again = bluestein_plan_for(n, Direction::Forward);
        assert!(Arc::ptr_eq(&plan, &again));
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            plan.process_into(&x, &mut out, &mut scratch);
            assert_eq!(out, want);
            let mut buf = x.clone();
            plan.process_in_place(&mut buf, &mut scratch);
            assert_eq!(buf, want);
        }
    }
}
