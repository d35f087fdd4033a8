//! Mixed-radix FFT plans for smooth lengths — every length whose prime
//! factors are all at most [`MAX_PRIME_FACTOR`].
//!
//! The paper's traces have lengths like 171 000 = 2³·3²·5³·19 frames
//! and 1.8M = 2⁶·3²·5⁵ slices. Bluestein serves such a length through
//! two zero-padded power-of-two FFTs of at least `2n` points (2²² for
//! the slice series), which is 8–10× the work and memory of a direct
//! factorisation. A [`MixedRadixPlan`] factors `n` instead and runs one
//! pass per factor.
//!
//! The kernel is a Stockham autosort schedule: pass `s` with radix `p`
//! reads `n/p` groups of `p` elements from one buffer and writes the
//! butterflies, twiddled, to the other. The output lands in natural
//! order, so there is no digit-reversal pass. The two buffers
//! ping-pong, and an odd pass count ends with one copy back. With
//! `l₁` the product of the earlier radices and `ido = n/(l₁·p)`, the
//! pass computes for every `k < l₁`, `i < ido`:
//!
//! ```text
//! y_q = Σ_m src[i + ido·(m + p·k)] · ω_p^{mq}
//! dst[i + ido·(k + l₁·q)] = y_q · ω_n^{q·l₁·i}      (q = 0..p)
//! ```
//!
//! Radices 2, 3, 4 and 5 have fixed-order butterflies. Every other
//! prime up to [`MAX_PRIME_FACTOR`] goes through one generic odd-prime
//! butterfly that pairs `a_m ± a_{p−m}`, halving its multiplies. Each
//! pass owns a contiguous twiddle table `[w_1 | … | w_{p−1}]` of
//! `ido − 1` entries each, evaluated directly from `sin_cos` like
//! [`crate::FftPlan`]'s. Inverse transforms conjugate them on the fly.
//! Every arithmetic order is fixed in source, so outputs are
//! bit-identical across hosts and build flags.

use crate::complex::Complex;
use crate::radix2::Direction;
use std::sync::{Arc, Mutex, OnceLock};

/// Largest prime factor a [`MixedRadixPlan`] serves. Lengths with a
/// larger prime factor take Bluestein's algorithm instead.
pub const MAX_PRIME_FACTOR: usize = 31;

/// The primes up to [`MAX_PRIME_FACTOR`], ascending.
const PRIMES: [usize; 11] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31];

/// True when `n ≥ 1` has no prime factor above [`MAX_PRIME_FACTOR`].
pub fn is_smooth(n: usize) -> bool {
    if n == 0 {
        return false;
    }
    let mut m = n;
    for p in PRIMES {
        while m.is_multiple_of(p) {
            m /= p;
        }
    }
    m == 1
}

/// The pass radices for `n`, in execution order: one 2 if `n` has an
/// odd power of two, then 4s, then the odd primes ascending.
fn factorize(n: usize) -> Vec<usize> {
    let mut m = n;
    let mut fours = Vec::new();
    while m.is_multiple_of(4) {
        fours.push(4);
        m /= 4;
    }
    let mut out = Vec::new();
    if m.is_multiple_of(2) {
        out.push(2);
        m /= 2;
    }
    out.extend(fours);
    for p in PRIMES.into_iter().skip(1) {
        while m.is_multiple_of(p) {
            out.push(p);
            m /= p;
        }
    }
    assert_eq!(m, 1, "length {n} has a prime factor above {MAX_PRIME_FACTOR}");
    out
}

/// One Stockham pass.
#[derive(Debug, Clone)]
struct Pass {
    radix: usize,
    /// Product of the earlier radices.
    l1: usize,
    /// `n / (l1 · radix)`.
    ido: usize,
    /// Start of this pass's `(radix − 1)·(ido − 1)` twiddles in `tw`.
    tw: usize,
    /// Start of this pass's `radix` roots `ω_p^j` in `roots` (generic
    /// prime passes only).
    roots: usize,
}

/// A reusable mixed-radix execution plan for one smooth length.
#[derive(Debug, Clone)]
pub struct MixedRadixPlan {
    n: usize,
    passes: Vec<Pass>,
    /// Forward twiddles `ω_n^{q·l₁·i} = e^{−2πi·q·l₁·i/n}`, pass-major,
    /// then `q = 1..p`, then `i = 1..ido`.
    tw: Vec<Complex>,
    /// Forward roots `e^{−2πi·j/p}` for `j = 0..p`, one block per
    /// generic prime pass.
    roots: Vec<Complex>,
}

impl MixedRadixPlan {
    /// Builds a plan for transforms of length `n`, which must be
    /// [smooth](is_smooth).
    pub fn new(n: usize) -> MixedRadixPlan {
        assert!(
            is_smooth(n),
            "mixed-radix plans need a length >= 1 with prime factors <= {MAX_PRIME_FACTOR}, got {n}"
        );
        let step = -2.0 * std::f64::consts::PI / n as f64;
        let mut passes = Vec::new();
        let mut tw = Vec::new();
        let mut roots = Vec::new();
        let mut l1 = 1usize;
        for radix in factorize(n) {
            let ido = n / (l1 * radix);
            passes.push(Pass { radix, l1, ido, tw: tw.len(), roots: roots.len() });
            for q in 1..radix {
                for i in 1..ido {
                    // q·l1·i < radix·l1·ido = n, so the angle needs no
                    // reduction.
                    let (s, c) = (step * (q * l1 * i) as f64).sin_cos();
                    tw.push(Complex::new(c, s));
                }
            }
            if radix > 5 {
                let root_step = -2.0 * std::f64::consts::PI / radix as f64;
                roots.extend((0..radix).map(|j| Complex::cis(root_step * j as f64)));
            }
            l1 *= radix;
        }
        MixedRadixPlan { n, passes, tw, roots }
    }

    /// The transform length this plan serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a degenerate zero-length plan (never constructed by
    /// [`MixedRadixPlan::new`]).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place transform of `buf` (length must equal the plan size),
    /// ping-ponging through `work`, which needs at least `len()`
    /// elements (its contents are overwritten). Unnormalised in both
    /// directions.
    pub fn process(&self, buf: &mut [Complex], work: &mut [Complex], dir: Direction) {
        match dir {
            Direction::Forward => self.run::<true>(buf, work),
            Direction::Inverse => self.run::<false>(buf, work),
        }
    }

    fn run<const FWD: bool>(&self, buf: &mut [Complex], work: &mut [Complex]) {
        let n = self.n;
        assert_eq!(buf.len(), n, "plan is for length {n}, got {}", buf.len());
        assert!(work.len() >= n, "mixed-radix work buffer needs {n} elements, got {}", work.len());
        let work = &mut work[..n];
        let mut in_buf = true;
        for p in &self.passes {
            if in_buf {
                self.pass::<FWD>(p, buf, work);
            } else {
                self.pass::<FWD>(p, work, buf);
            }
            in_buf = !in_buf;
        }
        if !in_buf {
            buf.copy_from_slice(work);
        }
    }

    fn pass<const FWD: bool>(&self, p: &Pass, src: &[Complex], dst: &mut [Complex]) {
        let tw = &self.tw[p.tw..p.tw + (p.radix - 1) * (p.ido - 1)];
        match p.radix {
            2 => pass_fixed::<2, FWD>(src, dst, p.l1, p.ido, tw, |a| [a[0] + a[1], a[0] - a[1]]),
            3 => pass_fixed::<3, FWD>(src, dst, p.l1, p.ido, tw, bfly3::<FWD>),
            4 => pass_fixed::<4, FWD>(src, dst, p.l1, p.ido, tw, bfly4::<FWD>),
            5 => pass_fixed::<5, FWD>(src, dst, p.l1, p.ido, tw, bfly5::<FWD>),
            r => pass_prime::<FWD>(src, dst, p, tw, &self.roots[p.roots..p.roots + r]),
        }
    }
}

/// `y · w` forward, `y · conj(w)` inverse.
#[inline(always)]
fn twiddle<const FWD: bool>(y: Complex, w: Complex) -> Complex {
    if FWD {
        Complex::new(y.re * w.re - y.im * w.im, y.re * w.im + y.im * w.re)
    } else {
        Complex::new(y.re * w.re + y.im * w.im, y.im * w.re - y.re * w.im)
    }
}

/// `∓i·z` (forward `−i·z`, inverse `+i·z`).
#[inline(always)]
fn rot<const FWD: bool>(z: Complex) -> Complex {
    if FWD {
        Complex::new(z.im, -z.re)
    } else {
        Complex::new(-z.im, z.re)
    }
}

#[inline(always)]
fn bfly3<const FWD: bool>(a: [Complex; 3]) -> [Complex; 3] {
    const S: f64 = 0.866_025_403_784_438_6; // sin(2π/3)
    let t = a[1] + a[2];
    let m = Complex::new(a[0].re - 0.5 * t.re, a[0].im - 0.5 * t.im);
    let r = rot::<FWD>((a[1] - a[2]).scale(S));
    [a[0] + t, m + r, m - r]
}

#[inline(always)]
fn bfly4<const FWD: bool>(a: [Complex; 4]) -> [Complex; 4] {
    let t0 = a[0] + a[2];
    let t1 = a[0] - a[2];
    let t2 = a[1] + a[3];
    let r = rot::<FWD>(a[1] - a[3]);
    [t0 + t2, t1 + r, t0 - t2, t1 - r]
}

#[inline(always)]
fn bfly5<const FWD: bool>(a: [Complex; 5]) -> [Complex; 5] {
    const C1: f64 = 0.309_016_994_374_947_45; // cos(2π/5)
    const C2: f64 = -0.809_016_994_374_947_5; // cos(4π/5)
    const S1: f64 = 0.951_056_516_295_153_5; // sin(2π/5)
    const S2: f64 = 0.587_785_252_292_473_1; // sin(4π/5)
    let t1 = a[1] + a[4];
    let t2 = a[2] + a[3];
    let d1 = a[1] - a[4];
    let d2 = a[2] - a[3];
    let m1 = a[0] + t1.scale(C1) + t2.scale(C2);
    let m2 = a[0] + t1.scale(C2) + t2.scale(C1);
    let r1 = rot::<FWD>(d1.scale(S1) + d2.scale(S2));
    let r2 = rot::<FWD>(d1.scale(S2) - d2.scale(S1));
    [a[0] + t1 + t2, m1 + r1, m2 + r2, m2 - r2, m1 - r1]
}

/// One pass of a fixed radix `R`. `dst` is viewed as `R` columns of
/// `l1·ido`; input group `k` is the `R·ido` block `src[k·R·ido..]`.
#[inline(always)]
fn pass_fixed<const R: usize, const FWD: bool>(
    src: &[Complex],
    dst: &mut [Complex],
    l1: usize,
    ido: usize,
    tw: &[Complex],
    bfly: impl Fn([Complex; R]) -> [Complex; R],
) {
    let mut cols = dst.chunks_exact_mut(l1 * ido);
    let mut outs: [&mut [Complex]; R] =
        std::array::from_fn(|_| cols.next().expect("dst holds R columns"));
    if ido == 1 {
        for (k, a) in src.chunks_exact(R).enumerate() {
            let y = bfly(std::array::from_fn(|m| a[m]));
            for q in 0..R {
                outs[q][k] = y[q];
            }
        }
        return;
    }
    // tws[0] is unused: the q = 0 output is never twiddled.
    let tws: [&[Complex]; R] = std::array::from_fn(|q| {
        if q == 0 {
            &tw[..0]
        } else {
            &tw[(q - 1) * (ido - 1)..q * (ido - 1)]
        }
    });
    for (k, block) in src.chunks_exact(R * ido).enumerate() {
        let ins: [&[Complex]; R] = std::array::from_fn(|m| &block[m * ido..(m + 1) * ido]);
        let o = outs.each_mut().map(|col| &mut col[k * ido..(k + 1) * ido]);
        let y = bfly(std::array::from_fn(|m| ins[m][0]));
        for q in 0..R {
            o[q][0] = y[q];
        }
        for i in 1..ido {
            let y = bfly(std::array::from_fn(|m| ins[m][i]));
            o[0][i] = y[0];
            for q in 1..R {
                o[q][i] = twiddle::<FWD>(y[q], tws[q][i - 1]);
            }
        }
    }
}

/// One pass of an odd prime radix `p > 5`, with `roots[j] = ω_p^j`:
///
/// ```text
/// s_m = a_m + a_{p−m},  d_m = a_m − a_{p−m}           (m = 1..=(p−1)/2)
/// y_q, y_{p−q} = a_0 + Σ_m s_m·Re ω_p^{mq}  ±  i·Σ_m d_m·Im ω_p^{mq}
/// ```
///
/// (`+` for `y_q` forward; the inverse swaps the pair).
fn pass_prime<const FWD: bool>(
    src: &[Complex],
    dst: &mut [Complex],
    pass: &Pass,
    tw: &[Complex],
    roots: &[Complex],
) {
    let (p, l1, ido) = (pass.radix, pass.l1, pass.ido);
    let half = (p - 1) / 2;
    let col = l1 * ido;
    let mut a = [Complex::ZERO; MAX_PRIME_FACTOR];
    let mut s = [Complex::ZERO; MAX_PRIME_FACTOR / 2 + 1];
    let mut d = [Complex::ZERO; MAX_PRIME_FACTOR / 2 + 1];
    for k in 0..l1 {
        for i in 0..ido {
            for (m, slot) in a[..p].iter_mut().enumerate() {
                *slot = src[i + ido * (m + p * k)];
            }
            let mut y0 = a[0];
            for m in 1..=half {
                s[m] = a[m] + a[p - m];
                d[m] = a[m] - a[p - m];
                y0 += s[m];
            }
            let out = i + ido * k;
            dst[out] = y0;
            for q in 1..=half {
                let mut re = a[0];
                let mut im = Complex::ZERO;
                for m in 1..=half {
                    let w = roots[m * q % p];
                    re += s[m].scale(w.re);
                    im += d[m].scale(w.im);
                }
                // i·im, where im = Σ d_m·Im ω^{mq} (negative sines).
                let r = Complex::new(-im.im, im.re);
                let (mut yq, mut yp) = if FWD { (re + r, re - r) } else { (re - r, re + r) };
                if i > 0 {
                    yq = twiddle::<FWD>(yq, tw[(q - 1) * (ido - 1) + i - 1]);
                    yp = twiddle::<FWD>(yp, tw[(p - q - 1) * (ido - 1) + i - 1]);
                }
                dst[out + col * q] = yq;
                dst[out + col * (p - q)] = yp;
            }
        }
    }
}

/// Mixed-radix plan cache bound; a plan costs ~16 bytes/point.
const MAX_CACHED_MIXED_PLANS: usize = 16;

/// Returns the shared [`MixedRadixPlan`] for smooth length `n`,
/// building and caching it on first use (LRU-bounded, like
/// [`crate::plan_for`]). Thread-safe; the lock is never held during
/// plan construction.
pub fn mixed_plan_for(n: usize) -> Arc<MixedRadixPlan> {
    static CACHE: OnceLock<Mutex<crate::plan::LruPlans<MixedRadixPlan>>> = OnceLock::new();
    crate::plan::lru_get_or_build(&CACHE, n, MAX_CACHED_MIXED_PLANS, || MixedRadixPlan::new(n)).0
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
                    let ang = sign * 2.0 * std::f64::consts::PI * ((j * k) % n) as f64 / n as f64;
                    acc += v * Complex::cis(ang);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn smoothness_and_factorization() {
        assert!(is_smooth(1) && is_smooth(1_800_000) && is_smooth(171_000) && is_smooth(31));
        assert!(!is_smooth(0) && !is_smooth(37) && !is_smooth(2 * 10_007));
        assert_eq!(factorize(1_800_000 / 2), vec![2, 4, 4, 3, 3, 5, 5, 5, 5, 5]);
        assert_eq!(factorize(85_500), vec![4, 3, 3, 5, 5, 5, 19]);
        assert_eq!(factorize(1), Vec::<usize>::new());
    }

    #[test]
    fn matches_naive_dft_for_every_radix() {
        for &n in &[1usize, 2, 3, 4, 5, 6, 7, 12, 15, 19, 20, 30, 31, 45, 60, 77, 96, 100, 171, 186]
        {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let plan = MixedRadixPlan::new(n);
            let mut work = vec![Complex::ZERO; n];
            for dir in [Direction::Forward, Direction::Inverse] {
                let mut got = x.clone();
                plan.process(&mut got, &mut work, dir);
                let want = naive_dft(&x, dir);
                let scale = want.iter().map(|z| z.abs()).fold(1.0f64, f64::max);
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        (*g - *w).abs() <= 1e-12 * scale,
                        "n={n} {dir:?} bin {k}: {g:?} vs {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn round_trip_at_paper_scale() {
        // The half-length of the 1.8M-slice periodogram's real transform.
        let n = 900_000;
        let x: Vec<Complex> = (0..n)
            .map(|i| {
                let t = i as f64;
                Complex::new((t * 0.001).sin() + 0.25 * (t * 0.013).cos(), (t * 0.007).cos())
            })
            .collect();
        let plan = mixed_plan_for(n);
        let mut work = Vec::new();
        work.resize(n, Complex::ZERO);
        let mut y = x.clone();
        plan.process(&mut y, &mut work, Direction::Forward);
        plan.process(&mut y, &mut work, Direction::Inverse);
        let scale = 1.0 / n as f64;
        let worst = x.iter().zip(&y).map(|(a, b)| (*a - b.scale(scale)).abs()).fold(0.0, f64::max);
        assert!(worst < 1e-10, "900k round-trip error {worst}");
    }

    #[test]
    fn cache_shares_plans() {
        let a = mixed_plan_for(360);
        let b = mixed_plan_for(360);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 360);
    }

    #[test]
    #[should_panic(expected = "prime factors")]
    fn rough_length_rejected() {
        MixedRadixPlan::new(37);
    }
}
