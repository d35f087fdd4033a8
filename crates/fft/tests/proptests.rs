//! Property-based tests for the FFT substrate.

use proptest::prelude::*;
use vbr_fft::{autocorr_sums, convolve, fft, ifft, plan_for, reference_radix2, Complex, Direction};

/// Longest length the mixed-radix properties draw.
const SMOOTH_MAX: usize = 4096;

/// Every `2^a·3^b·5^c·p ≤ SMOOTH_MAX` (`p` = 1 or one prime in 7..=31),
/// `n ≥ 2`, ascending.
fn smooth_lengths() -> Vec<usize> {
    (2..=SMOOTH_MAX)
        .filter(|&n| {
            let mut m = n;
            for q in [2, 3, 5] {
                while m % q == 0 {
                    m /= q;
                }
            }
            m == 1 || [7, 11, 13, 17, 19, 23, 29, 31].contains(&m)
        })
        .collect()
}

/// The O(n²) DFT with an exact `jk mod n` root table.
fn naive_dft(x: &[Complex], dir: Direction) -> Vec<Complex> {
    let n = x.len();
    let sign = if dir == Direction::Forward { -1.0 } else { 1.0 };
    let roots: Vec<Complex> = (0..n)
        .map(|j| Complex::cis(sign * 2.0 * std::f64::consts::PI * j as f64 / n as f64))
        .collect();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &v) in x.iter().enumerate() {
                acc += v * roots[j * k % n];
            }
            acc
        })
        .collect()
}

/// The Bluestein chirp transform, bypassing the length dispatch.
fn bluestein(x: &[Complex], dir: Direction) -> Vec<Complex> {
    let mut buf = x.to_vec();
    let mut scratch = Vec::new();
    vbr_fft::bluestein_plan_for(x.len(), dir).process_in_place(&mut buf, &mut scratch);
    buf
}

#[test]
fn every_smooth_length_matches_bluestein_and_round_trips() {
    // Exhaustive over the smooth lengths up to SMOOTH_MAX, both
    // directions, against the chirp transform, plus the normalised
    // forward/inverse round trip.
    let mut work = Vec::new();
    for n in smooth_lengths() {
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.71).sin() * 50.0, (i as f64 * 0.23).cos() * 50.0))
            .collect();
        let plan = vbr_fft::mixed_plan_for(n);
        work.resize(n, Complex::ZERO);
        let mut y = x.clone();
        for dir in [Direction::Forward, Direction::Inverse] {
            let mut got = x.clone();
            plan.process(&mut got, &mut work, dir);
            let want = bluestein(&x, dir);
            let scale = want.iter().map(|z| z.abs()).fold(1.0f64, f64::max);
            for k in 0..n {
                assert!((got[k] - want[k]).abs() <= 1e-12 * scale, "n={n} {dir:?} bin {k}");
            }
            plan.process(&mut y, &mut work, dir);
        }
        for (t, (a, b)) in x.iter().zip(&y).enumerate() {
            assert!((*a - b.scale(1.0 / n as f64)).abs() <= 1e-12 * 50.0, "n={n} round trip {t}");
        }
    }
}

fn complex_vec(max_len: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1..max_len)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
}

proptest! {
    #[test]
    fn round_trip_recovers_input(x in complex_vec(64)) {
        let back = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((*a - *b).abs() < 1e-7);
        }
    }

    #[test]
    fn parseval_energy_preserved(x in complex_vec(64)) {
        let y = fft(&x);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        // Relative tolerance with an absolute floor for near-zero energy.
        prop_assert!((ex - ey).abs() <= 1e-8 * ex.max(1.0));
    }

    #[test]
    fn forward_of_conjugate_reverses_spectrum(x in complex_vec(32)) {
        // DFT(conj(x))_k = conj(DFT(x)_{-k})
        let n = x.len();
        let xc: Vec<Complex> = x.iter().map(|z| z.conj()).collect();
        let f = fft(&x);
        let fc = fft(&xc);
        for k in 0..n {
            let mirrored = f[(n - k) % n].conj();
            prop_assert!((fc[k] - mirrored).abs() < 1e-7);
        }
    }

    #[test]
    fn convolution_is_commutative(
        a in prop::collection::vec(-50.0f64..50.0, 1..32),
        b in prop::collection::vec(-50.0f64..50.0, 1..32),
    ) {
        let ab = convolve(&a, &b);
        let ba = convolve(&b, &a);
        prop_assert_eq!(ab.len(), ba.len());
        for (x, y) in ab.iter().zip(&ba) {
            prop_assert!((x - y).abs() < 1e-7);
        }
    }

    #[test]
    fn convolution_length_and_dc(
        a in prop::collection::vec(-50.0f64..50.0, 1..32),
        b in prop::collection::vec(-50.0f64..50.0, 1..32),
    ) {
        let c = convolve(&a, &b);
        prop_assert_eq!(c.len(), a.len() + b.len() - 1);
        // Sum of convolution == product of sums.
        let sc: f64 = c.iter().sum();
        let want: f64 = a.iter().sum::<f64>() * b.iter().sum::<f64>();
        prop_assert!((sc - want).abs() < 1e-6 * want.abs().max(1.0));
    }

    #[test]
    fn autocorr_lag0_is_energy(x in prop::collection::vec(-50.0f64..50.0, 1..64)) {
        let s = autocorr_sums(&x, 0);
        let energy: f64 = x.iter().map(|v| v * v).sum();
        prop_assert!((s[0] - energy).abs() < 1e-6 * energy.max(1.0));
    }

    #[test]
    fn autocorr_lag0_dominates(x in prop::collection::vec(-50.0f64..50.0, 2..64)) {
        // Cauchy-Schwarz: |s_k| <= s_0 for autocorrelation sums of the
        // same (zero-padded) sequence.
        let s = autocorr_sums(&x, x.len() - 1);
        for (k, v) in s.iter().enumerate().skip(1) {
            prop_assert!(v.abs() <= s[0] + 1e-6, "lag {} breaks bound", k);
        }
    }

    #[test]
    fn radix4_plan_matches_radix2_reference(
        logn in 0u32..12,
        raw in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1usize << 11),
        dir_sel in 0u32..2,
    ) {
        let forward = dir_sel == 0;
        // The radix-4 SoA kernel against its scalar twin (the old
        // stage-by-stage radix-2 transform) on every power-of-two size
        // both kernels serve, in both directions: ≤ 1e-12 relative to
        // the spectrum scale. Covers odd and even log₂ n, i.e. both the
        // "radix-2 first stage" and "pure radix-4" stage plans.
        let n = 1usize << logn;
        let x: Vec<Complex> = raw
            .into_iter()
            .take(n)
            .map(|(re, im)| Complex::new(re, im))
            .collect();
        let dir = if forward { Direction::Forward } else { Direction::Inverse };
        let mut got = x.clone();
        plan_for(n).process(&mut got, dir);
        let mut want = x;
        reference_radix2(&mut want, dir);
        let scale = want.iter().map(|z| z.abs()).fold(1.0f64, f64::max);
        for (k, (a, b)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                (*a - *b).abs() <= 1e-12 * scale,
                "n={} dir fwd={} bin {}: {:?} vs {:?}", n, forward, k, a, b
            );
        }
    }

    #[test]
    fn real_forward_matches_complex_fft(
        logn in 1u32..13,
        raw in prop::collection::vec(-100.0f64..100.0, 1usize << 12),
    ) {
        // The half-size-complex forward transform against the full
        // complex FFT of the same (complexified) signal, every
        // power-of-two size the plan serves: ≤ 1e-12 of the spectrum
        // scale on all n/2 + 1 half-spectrum bins.
        let n = 1usize << logn;
        let x: Vec<f64> = raw.into_iter().take(n).collect();
        let plan = vbr_fft::real_plan_for(n);
        let (mut spectrum, mut scratch) = (Vec::new(), Vec::new());
        plan.forward(&x, &mut spectrum, &mut scratch);
        let full: Vec<Complex> = x.iter().map(|&v| Complex::from_re(v)).collect();
        let want = fft(&full);
        let scale = want.iter().map(|z| z.abs()).fold(1.0f64, f64::max);
        prop_assert_eq!(spectrum.len(), n / 2 + 1);
        for (k, (a, b)) in spectrum.iter().zip(&want).enumerate() {
            prop_assert!(
                (*a - *b).abs() <= 1e-12 * scale,
                "n={} bin {}: {:?} vs {:?}", n, k, a, b
            );
        }
    }

    #[test]
    fn real_forward_inverse_round_trips(
        logn in 1u32..13,
        raw in prop::collection::vec(-100.0f64..100.0, 1usize << 12),
    ) {
        let n = 1usize << logn;
        let x: Vec<f64> = raw.into_iter().take(n).collect();
        let plan = vbr_fft::real_plan_for(n);
        let (mut spectrum, mut scratch, mut back) = (Vec::new(), Vec::new(), Vec::new());
        plan.forward(&x, &mut spectrum, &mut scratch);
        plan.inverse(&spectrum, &mut back, &mut scratch);
        let scale = x.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (t, (a, b)) in x.iter().zip(&back).enumerate() {
            prop_assert!((a - b).abs() <= 1e-12 * scale, "n={} sample {}", n, t);
        }
    }

    #[test]
    fn synthesize_hermitian_matches_full_complex(
        logn in 1u32..13,
        raw in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), (1usize << 11) + 1),
    ) {
        // The Davies–Harte synthesis kernel: a random Hermitian
        // half-spectrum synthesized through the half-size transform must
        // match the real part of the full-length complex FFT over the
        // mirrored spectrum (the path it replaced) to ≤ 1e-12 of scale.
        let n = 1usize << logn;
        let half = n / 2;
        let mut hs: Vec<Complex> = raw
            .into_iter()
            .take(half + 1)
            .map(|(re, im)| Complex::new(re, im))
            .collect();
        hs[0] = Complex::from_re(hs[0].re);
        hs[half] = Complex::from_re(hs[half].re);
        let plan = vbr_fft::real_plan_for(n);
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        plan.synthesize_hermitian(&hs, &mut out, &mut scratch);
        let mut full = vec![Complex::ZERO; n];
        full[..=half].copy_from_slice(&hs);
        for k in 1..half {
            full[n - k] = hs[k].conj();
        }
        let want = fft(&full);
        let scale = want.iter().map(|z| z.abs()).fold(1.0f64, f64::max);
        for (t, (a, b)) in out.iter().zip(&want).enumerate() {
            prop_assert!(
                (a - b.re).abs() <= 1e-12 * scale,
                "n={} sample {}: {} vs {:?}", n, t, a, b
            );
            // The mirrored spectrum is exactly Hermitian, so the full
            // transform's imaginary leakage bounds its own rounding.
            prop_assert!(b.im.abs() <= 1e-9 * scale);
        }
    }

    #[test]
    fn lane_batched_fft_bit_identical_to_scalar(
        logn in 0u32..10,
        l in 1usize..9,
        raw in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1usize << 9),
        dir_sel in 0u32..2,
    ) {
        // The §16 lane contract on the radix-4 plan: a lane-interleaved
        // batch of l signals transforms bit-identically to l scalar
        // transforms, for EVERY lane count — l covers 1..=8, the
        // cohort width `LANES` and every count below it.
        let n = 1usize << logn;
        let forward = dir_sel == 0;
        let plan = plan_for(n);
        let lanes: Vec<Vec<Complex>> = (0..l)
            .map(|v| {
                (0..n)
                    .map(|j| {
                        let (re, im) = raw[(j + 131 * v) % raw.len()];
                        Complex::new(re, im)
                    })
                    .collect()
            })
            .collect();
        let mut batch = vec![Complex::ZERO; n * l];
        for (v, lane) in lanes.iter().enumerate() {
            for (j, &z) in lane.iter().enumerate() {
                batch[j * l + v] = z;
            }
        }
        if forward {
            plan.forward_lanes(&mut batch, l);
        } else {
            plan.inverse_lanes(&mut batch, l);
        }
        for (v, lane) in lanes.iter().enumerate() {
            let mut solo = lane.clone();
            if forward {
                plan.forward(&mut solo);
            } else {
                plan.inverse(&mut solo);
            }
            for j in 0..n {
                prop_assert_eq!(
                    batch[j * l + v].re.to_bits(), solo[j].re.to_bits(),
                    "n={} l={} fwd={} lane {} bin {} re", n, l, forward, v, j
                );
                prop_assert_eq!(
                    batch[j * l + v].im.to_bits(), solo[j].im.to_bits(),
                    "n={} l={} fwd={} lane {} bin {} im", n, l, forward, v, j
                );
            }
        }
    }

    #[test]
    fn lane_batched_synthesis_bit_identical_to_scalar(
        logn in 1u32..10,
        l in 1usize..9,
        raw in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), (1usize << 8) + 1),
    ) {
        // The fused Davies–Harte hot kernel: lane-batched Hermitian
        // synthesis must emit, per lane, the exact bits of the scalar
        // synthesis of that lane's half-spectrum, at every lane count
        // including the ragged ones (l not a power of two) and n = 2
        // (block = 1 geometry, where the half plan is trivial).
        let n = 1usize << logn;
        let half = n / 2;
        let plan = vbr_fft::real_plan_for(n);
        let spectra: Vec<Vec<Complex>> = (0..l)
            .map(|v| {
                let mut hs: Vec<Complex> = (0..=half)
                    .map(|k| {
                        let (re, im) = raw[(k + 197 * v) % raw.len()];
                        Complex::new(re, im)
                    })
                    .collect();
                hs[0] = Complex::from_re(hs[0].re);
                hs[half] = Complex::from_re(hs[half].re);
                hs
            })
            .collect();
        let mut interleaved = vec![Complex::ZERO; (half + 1) * l];
        for (v, hs) in spectra.iter().enumerate() {
            for (k, &z) in hs.iter().enumerate() {
                interleaved[k * l + v] = z;
            }
        }
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        plan.synthesize_hermitian_lanes(&interleaved, &mut out, &mut scratch, l);
        let (mut solo, mut solo_scratch) = (Vec::new(), Vec::new());
        for (v, hs) in spectra.iter().enumerate() {
            plan.synthesize_hermitian(hs, &mut solo, &mut solo_scratch);
            for t in 0..n {
                prop_assert_eq!(
                    out[t * l + v].to_bits(), solo[t].to_bits(),
                    "n={} l={} lane {} sample {}", n, l, v, t
                );
            }
        }
    }

    #[test]
    fn mixed_radix_matches_naive_dft_and_bluestein(
        pick in 0usize..10_000,
        raw in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), SMOOTH_MAX),
        dir_sel in 0u32..2,
    ) {
        // A random 2·3·5(·p)-smooth length: the mixed-radix plan against
        // the O(n²) DFT and the Bluestein chirp transform, ≤ 1e-12 of
        // the spectrum scale, in the drawn direction.
        let lens = smooth_lengths();
        let n = lens[pick % lens.len()];
        let dir = if dir_sel == 0 { Direction::Forward } else { Direction::Inverse };
        let x: Vec<Complex> = raw.into_iter().take(n).map(|(re, im)| Complex::new(re, im)).collect();
        let mut got = x.clone();
        let mut work = vec![Complex::ZERO; n];
        vbr_fft::mixed_plan_for(n).process(&mut got, &mut work, dir);
        let want = naive_dft(&x, dir);
        let chirp = bluestein(&x, dir);
        let scale = want.iter().map(|z| z.abs()).fold(1.0f64, f64::max);
        for k in 0..n {
            prop_assert!((got[k] - want[k]).abs() <= 1e-12 * scale, "n={} dft bin {}", n, k);
            prop_assert!((got[k] - chirp[k]).abs() <= 1e-12 * scale, "n={} chirp bin {}", n, k);
        }
    }

    #[test]
    fn real_forward_matches_widened_at_any_even_length(
        half in 1usize..2048,
        raw in prop::collection::vec(-100.0f64..100.0, 4096),
    ) {
        // Every even length, whichever kernel its half transform takes
        // (radix-4, mixed-radix, or Bluestein for n = 2·prime): the
        // half-size plan against the widen-to-complex transform.
        let n = 2 * half;
        let x: Vec<f64> = raw.into_iter().take(n).collect();
        let plan = vbr_fft::real_plan_for(n);
        let (mut spectrum, mut scratch, mut back) = (Vec::new(), Vec::new(), Vec::new());
        plan.forward(&x, &mut spectrum, &mut scratch);
        let want = fft(&x.iter().map(|&v| Complex::from_re(v)).collect::<Vec<_>>());
        let scale = want.iter().map(|z| z.abs()).fold(1.0f64, f64::max);
        prop_assert_eq!(spectrum.len(), half + 1);
        for (k, (a, b)) in spectrum.iter().zip(&want).enumerate() {
            prop_assert!((*a - *b).abs() <= 1e-12 * scale, "n={} bin {}: {:?} vs {:?}", n, k, a, b);
        }
        plan.inverse(&spectrum, &mut back, &mut scratch);
        let xscale = x.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (t, (a, b)) in x.iter().zip(&back).enumerate() {
            prop_assert!((a - b).abs() <= 1e-12 * xscale, "n={} sample {}", n, t);
        }
    }

    #[test]
    fn odd_length_real_input_through_any_kernel(
        x in prop::collection::vec(-100.0f64..100.0, 3..41),
    ) {
        // Adversarial odd-layout case: a real signal at a length the
        // half-complex plan cannot serve (odd n routes fft_any through
        // the mixed-radix plan when smooth, Bluestein otherwise — both
        // occur in 3..41). The spectrum must still be
        // Hermitian and match the direct DFT — guarding the layout
        // assumptions shared with the real-FFT untwist tables.
        let n = x.len() - (1 - x.len() % 2); // force odd by dropping a sample
        let x = &x[..n];
        let z: Vec<Complex> = x.iter().map(|&v| Complex::from_re(v)).collect();
        let got = vbr_fft::fft_any(&z, Direction::Forward);
        let scale = got.iter().map(|c| c.abs()).fold(1.0f64, f64::max);
        for k in 0..n {
            let mirrored = got[(n - k) % n].conj();
            prop_assert!((got[k] - mirrored).abs() <= 1e-7 * scale, "hermitian bin {}", k);
            let mut direct = Complex::ZERO;
            for (t, &v) in x.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * t % n) as f64 / n as f64;
                direct += Complex::cis(ang).scale(v);
            }
            prop_assert!((got[k] - direct).abs() <= 1e-7 * scale, "dft bin {}", k);
        }
    }

    #[test]
    fn fft_any_agrees_with_direction_inverse(x in complex_vec(40)) {
        // fft_any(Inverse) is the unnormalised adjoint: applying it to the
        // forward transform and dividing by n must recover the signal.
        let n = x.len();
        let f = vbr_fft::fft_any(&x, Direction::Forward);
        let raw = vbr_fft::fft_any(&f, Direction::Inverse);
        for (a, b) in x.iter().zip(&raw) {
            prop_assert!((*a - b.scale(1.0 / n as f64)).abs() < 1e-7);
        }
    }
}
