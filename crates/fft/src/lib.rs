//! # vbr-fft
//!
//! Self-contained FFT substrate for the VBR-video workspace: a complex
//! type, a radix-4 power-of-two kernel, a mixed-radix kernel for smooth
//! lengths, Bluestein's chirp-z transform for every other length,
//! half-size real-signal plans and FFT-based convolution/autocorrelation.
//!
//! Arbitrary-length transforms ([`fft_any`], [`fft`], the real
//! wrappers) dispatch on the length `n`:
//!
//! | `n` | kernel |
//! |---|---|
//! | power of two | [`FftPlan`] (radix-4, SoA twiddles) |
//! | smooth: every prime factor ≤ [`MAX_PRIME_FACTOR`] | [`MixedRadixPlan`] |
//! | anything else | [`BluesteinPlan`] (power-of-two convolution) |
//!
//! Everything downstream — periodograms (Fig 8), Whittle's estimator
//! (Table 3), the Davies–Harte fractional-Gaussian-noise generator and
//! `O(n log n)` autocorrelation (Fig 7) — builds on this crate.
//!
//! ```
//! use vbr_fft::{fft, ifft, Complex};
//! let x = vec![1.0, 2.0, 3.0, 4.0];
//! let spec = vbr_fft::fft_real(&x);
//! assert_eq!(spec.len(), 4);
//! // DC bin is the sum of the signal.
//! assert!((spec[0].re - 10.0).abs() < 1e-12);
//! let y = ifft(&fft(&x.iter().map(|&v| Complex::from_re(v)).collect::<Vec<_>>()));
//! assert!((y[2].re - 3.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod bluestein;
pub mod complex;
pub mod convolve;
pub mod mixed;
pub mod plan;
pub mod radix2;
pub mod real;

pub use bluestein::{bluestein_plan_for, BluesteinPlan};
pub use complex::Complex;
pub use convolve::{autocorr_sums, autocorr_sums_into, convolve, convolve_into};
pub use mixed::{is_smooth, mixed_plan_for, MixedRadixPlan, MAX_PRIME_FACTOR};
pub use plan::{
    plan_cache_stats, plan_for, plan_size_histogram, reference_radix2, reset_plan_cache_stats,
    set_plan_cache_capacity, FftPlan, PlanCacheStats,
};
pub use radix2::{fft_pow2_in_place, is_pow2, next_pow2, Direction};
pub use real::{
    fft_real, fft_real_into, ifft_real, ifft_real_into, power_spectrum, power_spectrum_into,
    real_plan_for, RealFftPlan,
};

use std::sync::Arc;

/// The chunk width, in `f64` lanes, of every unrolled kernel in the
/// workspace: the radix-4 butterflies here, the quantile, marginal-map
/// and accumulation kernels in `vbr-stats` and `vbr-fgn`, and the
/// cohort size of the lane-parallel window synthesis. It is a
/// compile-time constant, so one code path is built and measured.
/// Every kernel's per-element arithmetic is independent of where chunk
/// boundaries fall, so the value shapes the unroll and never an output
/// bit (DESIGN.md §14); the checked-in `kernel_digest.golden` pins the
/// bits.
pub const LANES: usize = 8;

/// FFT of arbitrary length into a new vector (unnormalised in both
/// directions); see [`fft_any_in_place`] for the kernel dispatch.
pub fn fft_any(input: &[Complex], dir: Direction) -> Vec<Complex> {
    let mut buf = input.to_vec();
    let mut scratch = Vec::new();
    fft_any_in_place(&mut buf, &mut scratch, dir);
    buf
}

/// In-place FFT of arbitrary length: transforms the contents of `buf`
/// (unnormalised) on the radix-4 plan for powers of two, the
/// mixed-radix plan for smooth lengths and Bluestein otherwise.
/// `scratch` is the work buffer of the last two kernels and is only
/// ever grown, so with a reused `scratch` repeat calls at one length
/// allocate nothing.
pub fn fft_any_in_place(buf: &mut [Complex], scratch: &mut Vec<Complex>, dir: Direction) {
    if buf.len() <= 1 {
        return;
    }
    let plan = AnyPlan::new(buf.len(), dir);
    grow(scratch, plan.work_len());
    plan.process(buf, scratch);
}

/// One length's transform in one direction, on the kernel the length
/// dispatch picks: the radix-4 plan for powers of two, the mixed-radix
/// plan for smooth lengths, Bluestein for everything else. The one
/// place that decision is made; [`RealFftPlan`] holds one of these for
/// its half transform.
#[derive(Debug, Clone)]
pub(crate) enum AnyPlan {
    Pow2(Arc<FftPlan>, Direction),
    Mixed(Arc<MixedRadixPlan>, Direction),
    Bluestein(Arc<BluesteinPlan>),
}

impl AnyPlan {
    /// The cached plan for length `n ≥ 1` in direction `dir`.
    pub(crate) fn new(n: usize, dir: Direction) -> AnyPlan {
        if is_pow2(n) {
            AnyPlan::Pow2(plan_for(n), dir)
        } else if is_smooth(n) {
            AnyPlan::Mixed(mixed_plan_for(n), dir)
        } else {
            AnyPlan::Bluestein(bluestein_plan_for(n, dir))
        }
    }

    /// Work-buffer elements [`process`](Self::process) needs.
    pub(crate) fn work_len(&self) -> usize {
        match self {
            AnyPlan::Pow2(..) => 0,
            AnyPlan::Mixed(p, _) => p.len(),
            AnyPlan::Bluestein(p) => p.work_len(),
        }
    }

    /// In-place transform of `buf`; `work` holds at least
    /// [`work_len`](Self::work_len) elements.
    pub(crate) fn process(&self, buf: &mut [Complex], work: &mut [Complex]) {
        match self {
            AnyPlan::Pow2(p, dir) => p.process(buf, *dir),
            AnyPlan::Mixed(p, dir) => p.process(buf, work, *dir),
            AnyPlan::Bluestein(p) => p.process_with_work(buf, work),
        }
    }
}

/// Grows `v` to at least `len` elements (never shrinks, never re-zeroes
/// what is already there: every caller overwrites its work buffer).
fn grow(v: &mut Vec<Complex>, len: usize) {
    if v.len() < len {
        v.resize(len, Complex::ZERO);
    }
}

/// Forward DFT of a complex sequence (any length, unnormalised).
pub fn fft(x: &[Complex]) -> Vec<Complex> {
    fft_any(x, Direction::Forward)
}

/// Inverse DFT of a complex sequence (any length), normalised by `1/n`.
pub fn ifft(x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let mut buf = fft_any(x, Direction::Inverse);
    let scale = 1.0 / n as f64;
    for z in &mut buf {
        *z = z.scale(scale);
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_ifft_round_trip_any_length() {
        for n in [1usize, 2, 3, 15, 16, 33] {
            let x: Vec<Complex> =
                (0..n).map(|i| Complex::new(i as f64, (i as f64).sqrt())).collect();
            let back = ifft(&fft(&x));
            for (a, b) in x.iter().zip(&back) {
                assert!((*a - *b).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn parseval_holds() {
        let x: Vec<Complex> = (0..37).map(|i| Complex::new((i as f64).sin(), 0.0)).collect();
        let y = fft(&x);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((ex - ey).abs() < 1e-9);
    }

    #[test]
    fn length_one_is_identity() {
        let x = vec![Complex::new(2.0, 3.0)];
        assert_eq!(fft_any(&x, Direction::Forward), x);
    }

    #[test]
    fn dispatch_matches_each_kernel() {
        // One length per branch: radix-4, mixed-radix, Bluestein. A
        // reused scratch sized by an earlier, larger branch must not
        // leak into a later transform.
        let mut scratch = Vec::new();
        for &n in &[101usize, 64, 100] {
            let x: Vec<Complex> =
                (0..n).map(|i| Complex::new(i as f64, -(i as f64) * 0.5)).collect();
            let mut want = x.clone();
            let mut work = vec![Complex::ZERO; 4 * n];
            if is_pow2(n) {
                plan_for(n).forward(&mut want);
            } else if is_smooth(n) {
                MixedRadixPlan::new(n).process(&mut want, &mut work, Direction::Forward);
            } else {
                bluestein_plan_for(n, Direction::Forward).process_with_work(&mut want, &mut work);
            }
            let mut buf = x.clone();
            fft_any_in_place(&mut buf, &mut scratch, Direction::Forward);
            assert_eq!(buf, want, "n={n}");
            assert_eq!(fft_any(&x, Direction::Forward), want, "n={n}");
        }
    }

    #[test]
    fn linearity() {
        let n = 24;
        let a: Vec<Complex> = (0..n).map(|i| Complex::from_re(i as f64)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::from_re((i * i) as f64)).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        for k in 0..n {
            assert!((fsum[k] - (fa[k] + fb[k])).abs() < 1e-8);
        }
    }
}
