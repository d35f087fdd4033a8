//! The periodogram (empirical power spectral density) — Fig 8, and the
//! input to Whittle's estimator (Table 3).

use vbr_fft::{fft_any_in_place, is_pow2, real_plan_for, Complex, Direction};

/// A periodogram: Fourier frequencies `ω_j = 2πj/n` and intensities
/// `I(ω_j) = |Σ x_t e^{-iω_j t}|² / (2πn)` for `j = 1..⌈n/2⌉`.
#[derive(Debug, Clone)]
pub struct Periodogram {
    freqs: Vec<f64>,
    power: Vec<f64>,
}

impl Periodogram {
    /// Computes the periodogram of a (mean-removed) series.
    ///
    /// The mean is subtracted internally, so the DC bin is excluded by
    /// construction; frequencies run from `2π/n` up to `π`.
    ///
    /// Even non-power-of-two lengths (every paper trace: 171 000
    /// frames, 1.8M slices) run the half-size real transform
    /// ([`vbr_fft::RealFftPlan::forward_centred`]), which subtracts the
    /// mean while packing and yields exactly the bins `0..=n/2`, so no
    /// centred copy and no `n`-bin spectrum are built. Odd lengths widen
    /// the centred series to complex, and so do powers of two: their
    /// full-length radix-4 transform is already cheap, and keeping it
    /// keeps their ordinates — and every fit and digest built on them —
    /// bit-identical.
    pub fn compute(xs: &[f64]) -> Self {
        let n = xs.len();
        assert!(n >= 2, "periodogram needs at least 2 points");
        let mean = xs.iter().sum::<f64>() / n as f64;
        let mut spec = Vec::new();
        let mut scratch = Vec::new();
        if n.is_multiple_of(2) && !is_pow2(n) {
            real_plan_for(n).forward_centred(xs, mean, &mut spec, &mut scratch);
        } else {
            spec.extend(xs.iter().map(|&x| Complex::from_re(x - mean)));
            fft_any_in_place(&mut spec, &mut scratch, Direction::Forward);
        }
        // The packing buffer is dead; free it before the outputs grow.
        drop(scratch);
        let half = n / 2;
        let norm = 1.0 / (2.0 * std::f64::consts::PI * n as f64);
        let freqs = (1..=half).map(|j| 2.0 * std::f64::consts::PI * j as f64 / n as f64).collect();
        let power = spec[1..=half].iter().map(|z| z.norm_sqr() * norm).collect();
        Periodogram { freqs, power }
    }

    /// Fourier frequencies in radians per sample, ascending.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Periodogram ordinates `I(ω_j)`.
    pub fn power(&self) -> &[f64] {
        &self.power
    }

    /// Number of ordinates (`⌊n/2⌋`).
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// True when no ordinates exist.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Log-log slope `−α` over the lowest `fraction` of frequencies —
    /// the LRD power-law exponent of Fig 8 (`I(ω) ~ ω^{−α}` as ω → 0,
    /// with `α = 2H − 1`).
    pub fn low_freq_slope(&self, fraction: f64) -> crate::regression::LineFit {
        assert!(fraction > 0.0 && fraction <= 1.0);
        let m = ((self.freqs.len() as f64 * fraction) as usize).max(2);
        crate::regression::fit_loglog(&self.freqs[..m], &self.power[..m])
    }

    /// Total power `Σ I(ω_j) · 2π/n ≈ σ²/2` sanity quantity — by
    /// Parseval the periodogram over all ±frequencies integrates to the
    /// series variance.
    pub fn total_power(&self) -> f64 {
        // Ordinates cover only positive frequencies; double to account for
        // the mirrored half.
        let n = 2 * self.freqs.len();
        2.0 * self.power.iter().sum::<f64>() * 2.0 * std::f64::consts::PI / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn pure_tone_peaks_at_its_frequency() {
        let n = 1024;
        let f = 50;
        let xs: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f as f64 * i as f64 / n as f64).sin())
            .collect();
        let p = Periodogram::compute(&xs);
        let (argmax, _) =
            p.power().iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap();
        // Ordinate j corresponds to frequency index j+1.
        assert_eq!(argmax + 1, f);
    }

    #[test]
    fn parseval_total_power_matches_variance() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        let xs: Vec<f64> = (0..4096).map(|_| rng.standard_normal() * 3.0).collect();
        let p = Periodogram::compute(&xs);
        let var = {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
        };
        assert!((p.total_power() - var).abs() / var < 0.01, "{} vs {var}", p.total_power());
    }

    #[test]
    fn white_noise_spectrum_is_flat() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let xs: Vec<f64> = (0..65_536).map(|_| rng.standard_normal()).collect();
        let p = Periodogram::compute(&xs);
        // Average the ordinates in the lowest and highest decades; for
        // white noise they must agree (no ω^-α blow-up).
        let k = p.len() / 10;
        let low: f64 = p.power()[..k].iter().sum::<f64>() / k as f64;
        let high: f64 = p.power()[p.len() - k..].iter().sum::<f64>() / k as f64;
        assert!((low / high - 1.0).abs() < 0.1, "low {low} high {high}");
        let fit = p.low_freq_slope(0.1);
        assert!(fit.slope.abs() < 0.1, "slope {}", fit.slope);
    }

    #[test]
    fn ar1_has_negative_low_freq_slope_but_finite_limit() {
        // AR(1) is SRD: spectrum is elevated at low frequency but flattens
        // (slope → 0 as ω → 0 at the very lowest frequencies for long
        // series). We just check it's far from white.
        let mut rng = Xoshiro256::seed_from_u64(6);
        let n = 32_768;
        let mut xs = Vec::with_capacity(n);
        let mut x = 0.0;
        for _ in 0..n {
            x = 0.9 * x + rng.standard_normal();
            xs.push(x);
        }
        let p = Periodogram::compute(&xs);
        let k = p.len() / 10;
        let low: f64 = p.power()[..k].iter().sum::<f64>() / k as f64;
        let high: f64 = p.power()[p.len() - k..].iter().sum::<f64>() / k as f64;
        assert!(low / high > 10.0);
    }

    /// The pre-mixed-radix periodogram: centred copy, widened to
    /// complex, one full-length transform (`chirp` forces Bluestein).
    fn full_length_reference(xs: &[f64], chirp: bool) -> Vec<f64> {
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let centred: Vec<f64> = xs.iter().map(|&x| x - mean).collect();
        let mut buf: Vec<Complex> = centred.iter().map(|&v| Complex::from_re(v)).collect();
        let mut scratch = Vec::new();
        if chirp {
            vbr_fft::bluestein_plan_for(n, Direction::Forward)
                .process_in_place(&mut buf, &mut scratch);
        } else {
            fft_any_in_place(&mut buf, &mut scratch, Direction::Forward);
        }
        let norm = 1.0 / (2.0 * std::f64::consts::PI * n as f64);
        buf[1..=n / 2].iter().map(|z| z.norm_sqr() * norm).collect()
    }

    fn ar1_with_offset(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut x = 0.0;
        (0..n)
            .map(|_| {
                x = 0.8 * x + rng.standard_normal();
                x + 40.0
            })
            .collect()
    }

    #[test]
    fn paper_shaped_length_matches_bluestein_path() {
        // 2⁶·3²·5³ = 72 000 has the 1.8M-slice series' factor shape: the
        // half-size real plan (mixed-radix half) against the old
        // full-length Bluestein route, within 1e-12 of the largest
        // ordinate.
        let xs = ar1_with_offset(72_000, 11);
        let p = Periodogram::compute(&xs);
        let want = full_length_reference(&xs, true);
        let top = want.iter().cloned().fold(0.0f64, f64::max);
        assert_eq!(p.power().len(), want.len());
        for (j, (a, b)) in p.power().iter().zip(&want).enumerate() {
            assert!((a - b).abs() <= 1e-12 * top, "ordinate {j}: {a} vs {b}");
        }
    }

    #[test]
    fn power_of_two_and_odd_lengths_keep_full_length_bits() {
        for n in [4096usize, 4095] {
            let xs = ar1_with_offset(n, 12);
            assert_eq!(Periodogram::compute(&xs).power(), &full_length_reference(&xs, false)[..]);
        }
    }

    #[test]
    fn frequencies_ascend_to_pi() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let p = Periodogram::compute(&xs);
        assert_eq!(p.len(), 50);
        assert!(p.freqs().windows(2).all(|w| w[0] < w[1]));
        assert!((p.freqs()[p.len() - 1] - std::f64::consts::PI).abs() < 1e-12);
    }
}
