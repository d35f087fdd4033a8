//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use rand::Rng;
use vbr_stats::dist::{ContinuousDist, Exponential, Gamma, GammaPareto, Lognormal, Normal, Pareto};
use vbr_stats::rng::Xoshiro256;
use vbr_stats::{
    autocorrelation, moving_average, norm_quantile, norm_quantile_slice, quantile, simd, Ecdf,
    Moments,
};

/// Probabilities spanning the central branch and both quantile tails
/// (tail depth down to ~1e-12, exercising both tail branches).
fn prob() -> impl Strategy<Value = f64> {
    (0u32..3, 0.0f64..1.0).prop_map(|(side, u)| match side {
        0 => 0.1 + 0.8 * u,
        1 => 10f64.powf(-1.0 - 11.0 * u),
        _ => 1.0 - 10f64.powf(-1.0 - 11.0 * u),
    })
}

proptest! {
    #[test]
    fn moments_match_naive(xs in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let m = Moments::from_slice(&xs);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((m.mean() - mean).abs() <= 1e-9 * mean.abs().max(1.0));
        prop_assert!((m.variance() - var).abs() <= 1e-6 * var.max(1.0));
        prop_assert!(m.min() <= m.mean() && m.mean() <= m.max());
    }

    #[test]
    fn merge_equals_concat(
        a in prop::collection::vec(-1e3f64..1e3, 1..100),
        b in prop::collection::vec(-1e3f64..1e3, 1..100),
    ) {
        let mut m1 = Moments::from_slice(&a);
        m1.merge(&Moments::from_slice(&b));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let m2 = Moments::from_slice(&all);
        prop_assert!((m1.mean() - m2.mean()).abs() < 1e-9);
        prop_assert!((m1.variance() - m2.variance()).abs() < 1e-7 * m2.variance().max(1.0));
    }

    #[test]
    fn quantile_is_monotone(xs in prop::collection::vec(-1e3f64..1e3, 2..100)) {
        let q25 = quantile(&xs, 0.25);
        let q50 = quantile(&xs, 0.5);
        let q75 = quantile(&xs, 0.75);
        prop_assert!(q25 <= q50 && q50 <= q75);
    }

    #[test]
    fn ecdf_is_monotone_cdf(xs in prop::collection::vec(-100.0f64..100.0, 1..100)) {
        let e = Ecdf::new(&xs);
        let mut prev = 0.0;
        for i in -100..=100 {
            let c = e.cdf(i as f64);
            prop_assert!(c >= prev);
            prop_assert!((0.0..=1.0).contains(&c));
            prev = c;
        }
        prop_assert_eq!(e.cdf(f64::INFINITY), 1.0);
    }

    #[test]
    fn acf_bounded_and_unit_at_zero(
        xs in prop::collection::vec(-50.0f64..50.0, 8..200)
            .prop_filter("non-constant", |v| {
                v.iter().any(|&x| (x - v[0]).abs() > 1e-9)
            })
    ) {
        let r = autocorrelation(&xs, xs.len() / 2);
        prop_assert!((r[0] - 1.0).abs() < 1e-12);
        for &v in &r {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&v));
        }
    }

    #[test]
    fn moving_average_preserves_bounds(
        xs in prop::collection::vec(0.0f64..1e3, 1..200),
        w in 1usize..50,
    ) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in moving_average(&xs, w) {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn normal_quantile_roundtrip(mu in -100.0f64..100.0, sigma in 0.01f64..50.0, p in 0.001f64..0.999) {
        let d = Normal::new(mu, sigma);
        prop_assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-9);
    }

    #[test]
    fn gamma_quantile_roundtrip(shape in 0.1f64..50.0, rate in 0.001f64..10.0, p in 0.001f64..0.999) {
        let d = Gamma::new(shape, rate);
        prop_assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-7);
    }

    #[test]
    fn pareto_quantile_roundtrip(k in 0.1f64..100.0, a in 0.2f64..15.0, p in 0.0f64..0.9999) {
        let d = Pareto::new(k, a);
        prop_assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-10);
    }

    #[test]
    fn lognormal_quantile_roundtrip(mu in -3.0f64..3.0, sigma in 0.05f64..2.0, p in 0.001f64..0.999) {
        let d = Lognormal::new(mu, sigma);
        prop_assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-9);
    }

    #[test]
    fn exponential_quantile_roundtrip(rate in 0.001f64..100.0, p in 0.0f64..0.9999) {
        let d = Exponential::new(rate);
        prop_assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-10);
    }

    #[test]
    fn gamma_pareto_cdf_monotone_and_roundtrip(
        mu in 10.0f64..1e5,
        cv in 0.05f64..0.8,
        a in 1.5f64..15.0,
        p in 0.001f64..0.999,
    ) {
        let d = GammaPareto::from_params(mu, mu * cv, a);
        let x = d.quantile(p);
        prop_assert!(x > 0.0);
        prop_assert!((d.cdf(x) - p).abs() < 1e-6);
        // CDF and CCDF complement each other.
        prop_assert!((d.cdf(x) + d.ccdf(x) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_slice_matches_scalar_bitwise(ps in prop::collection::vec(prob(), 0..200)) {
        // The blocked quantile kernel must agree with per-element
        // evaluation to the bit, whatever mix of central/tail lanes a
        // chunk holds — that equality is what makes batch normal draws
        // interchangeable with scalar ones everywhere upstream.
        let want: Vec<f64> = ps.iter().map(|&p| norm_quantile(p)).collect();
        let mut got = ps.clone();
        norm_quantile_slice(&mut got);
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "p={} at {}", ps[i], i);
        }
    }

    #[test]
    fn batch_normals_split_invariant(
        n in 0usize..300,
        cut_raw in 0usize..300,
        seed in 0u64..5000,
    ) {
        let cut = cut_raw % (n + 1);
        // One fill, two fills at an arbitrary cut, and a per-sample
        // scalar loop must produce the same bits *and* leave the RNG at
        // the same stream position (one u64 per variate).
        let mut whole = vec![0.0f64; n];
        let mut r1 = Xoshiro256::seed_from_u64(seed);
        r1.fill_standard_normal(&mut whole);

        let mut split = vec![0.0f64; n];
        let mut r2 = Xoshiro256::seed_from_u64(seed);
        let (head, tail) = split.split_at_mut(cut);
        r2.fill_standard_normal(head);
        r2.fill_standard_normal(tail);

        let mut r3 = Xoshiro256::seed_from_u64(seed);
        let scalar: Vec<f64> = (0..n).map(|_| r3.standard_normal()).collect();

        for i in 0..n {
            prop_assert_eq!(whole[i].to_bits(), split[i].to_bits(), "cut={} at {}", cut, i);
            prop_assert_eq!(whole[i].to_bits(), scalar[i].to_bits(), "scalar at {}", i);
        }
        prop_assert_eq!(r1.next_u64(), r2.next_u64());
    }

    #[test]
    fn accumulate_u32_matches_scalar_bitwise(
        pairs in prop::collection::vec((0u32..u32::MAX, -1e12f64..1e12), 0..300),
    ) {
        let src: Vec<u32> = pairs.iter().map(|&(s, _)| s).collect();
        let mut out: Vec<f64> = pairs.iter().map(|&(_, o)| o).collect();
        let mut want = out.clone();
        for (o, &s) in want.iter_mut().zip(&src) {
            *o += s as f64;
        }
        simd::accumulate_u32(&mut out, &src);
        for (a, b) in out.iter().zip(&want) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn sum_sequential_matches_left_fold_bitwise(
        xs in prop::collection::vec(-1e9f64..1e9, 0..300),
    ) {
        let mut want = 0.0f64;
        for &x in &xs {
            want += x;
        }
        prop_assert_eq!(simd::sum_sequential(&xs).to_bits(), want.to_bits());
    }

    #[test]
    fn gamma_pareto_density_continuous(
        mu in 10.0f64..1e5,
        cv in 0.05f64..0.8,
        a in 1.5f64..15.0,
    ) {
        let d = GammaPareto::from_params(mu, mu * cv, a);
        let x = d.threshold();
        let below = d.pdf(x * (1.0 - 1e-8));
        let above = d.pdf(x * (1.0 + 1e-8));
        prop_assert!((below - above).abs() <= 1e-5 * below.max(1e-300));
    }
}
