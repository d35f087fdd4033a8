//! Property-based tests for the LRD generators, the streaming engine,
//! and the marginal transform.

use proptest::prelude::*;
use vbr_fgn::{
    farima_acf, farima_via_circulant, fgn_acvf, BatchStream, DaviesHarte, FarimaStream, FgnStream,
    Hosking, MarginalTransform, SourceModel, TableMode,
};
use vbr_stats::dist::{ContinuousDist, GammaPareto};

proptest! {
    #[test]
    fn farima_acf_valid_correlations(d in 0.01f64..0.49, lags in 1usize..500) {
        let rho = farima_acf(d, lags);
        prop_assert_eq!(rho[0], 1.0);
        let mut prev = f64::INFINITY;
        for &r in &rho {
            prop_assert!((0.0..=1.0).contains(&r));
            prop_assert!(r <= prev + 1e-12, "fARIMA ACF must decay monotonically");
            prev = r;
        }
    }

    #[test]
    fn fgn_acvf_positive_definite_via_aggregate_variance(h in 0.05f64..0.95, n in 2usize..100) {
        // Var(Σ X_i) = n γ0 + 2 Σ (n−k) γk must be n^{2H} ≥ 0.
        let g = fgn_acvf(h, n);
        let mut var = n as f64 * g[0];
        for (k, &gk) in g.iter().enumerate().skip(1) {
            var += 2.0 * (n - k) as f64 * gk;
        }
        let want = (n as f64).powf(2.0 * h);
        prop_assert!((var - want).abs() < 1e-6 * want.max(1.0));
    }

    #[test]
    fn hosking_output_finite_and_deterministic(
        h in 0.5f64..0.95,
        n in 1usize..200,
        seed in 0u64..1000,
    ) {
        let g = Hosking::new(h, 1.0);
        let a = g.generate(n, seed);
        prop_assert_eq!(a.len(), n);
        prop_assert!(a.iter().all(|v| v.is_finite()));
        prop_assert_eq!(a, g.generate(n, seed));
    }

    #[test]
    fn davies_harte_output_finite_and_deterministic(
        h in 0.05f64..0.95,
        n in 1usize..500,
        seed in 0u64..1000,
    ) {
        let g = DaviesHarte::new(h, 1.0);
        let a = g.generate(n, seed);
        prop_assert_eq!(a.len(), n);
        prop_assert!(a.iter().all(|v| v.is_finite()));
        prop_assert_eq!(a, g.generate(n, seed));
    }

    #[test]
    fn marginal_transform_monotone_and_in_support(
        mu in 100.0f64..1e5,
        cv in 0.05f64..0.6,
        a in 2.0f64..12.0,
        xs in prop::collection::vec(-5.0f64..5.0, 2..100),
    ) {
        let target = GammaPareto::from_params(mu, mu * cv, a);
        let xf = MarginalTransform::new(&target, 0.0, 1.0, TableMode::Exact);
        let mut sorted = xs.clone();
        sorted.sort_by(|p, q| p.partial_cmp(q).unwrap());
        let mapped: Vec<f64> = sorted.iter().map(|&x| xf.map(x)).collect();
        for w in mapped.windows(2) {
            prop_assert!(w[1] >= w[0], "transform must be monotone");
        }
        for &y in &mapped {
            prop_assert!(y > 0.0 && y.is_finite());
        }
    }

    #[test]
    fn fgn_stream_prefix_bit_identical_across_block_sizes(
        h in 0.05f64..0.95,
        n in 1usize..1200,
        seed in 0u64..1000,
    ) {
        // The documented exactness contract (stream.rs): a stream with
        // block size B uses the same circulant embedding, spectrum and
        // RNG draw order as the batch generator at length B, so its
        // first B outputs are bit-identical to `generate(B, seed)`.
        // Past the first window the stream intentionally diverges from
        // any batch path (windowed embedding + power-preserving
        // cross-fade: exact marginals, approximate seam covariance), so
        // sameness beyond the prefix is distributional, not pathwise —
        // here checked as finiteness only.
        let g = DaviesHarte::new(h, 1.0);
        for block in [1usize, 7, 4096, n] {
            let batch = g.generate(block, seed);
            let mut s = FgnStream::new(h, 1.0, block, seed);
            let mut got = vec![0.0f64; block];
            s.next_block(&mut got);
            prop_assert_eq!(&got, &batch, "prefix diverges at block {}", block);
            let mut next = vec![0.0f64; block.min(64)];
            s.next_block(&mut next);
            prop_assert!(next.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn farima_stream_prefix_bit_identical_across_block_sizes(
        h in 0.5f64..0.95,
        n in 1usize..1200,
        seed in 0u64..1000,
    ) {
        // Same contract as the fGn stream, against the circulant fARIMA
        // batch comparator. The fARIMA embedding is not provably PSD,
        // so both paths are fallible: they must accept or reject the
        // same (H, block) inputs, and agree bit-for-bit when they accept.
        for block in [1usize, 7, 4096, n] {
            match FarimaStream::try_new(h, 1.0, block, seed) {
                Ok(mut s) => {
                    let batch = farima_via_circulant(h, 1.0, block, seed)
                        .expect("stream accepted but batch rejected the same geometry");
                    let mut got = vec![0.0f64; block];
                    s.next_block(&mut got);
                    prop_assert_eq!(&got, &batch, "prefix diverges at block {}", block);
                }
                Err(_) => {
                    prop_assert!(
                        farima_via_circulant(h, 1.0, block, seed).is_err(),
                        "batch accepted but stream rejected block {}", block
                    );
                }
            }
        }
    }

    #[test]
    fn batch_fgn_bit_identical_to_independent_streams(
        h in 0.05f64..0.95,
        block in 1usize..600,
        overlap_permille in 0usize..1001,
        n_sources in 1usize..5,
        chunks in prop::collection::vec(1usize..97, 1..12),
        seed0 in 0u64..1000,
        overlap_sel in 0u32..2,
    ) {
        let use_overlap = overlap_sel == 1;
        // The shared-spectrum batch contract: source i of a fGn BatchStream is
        // draw-for-draw bit-identical to an independent FgnStream with
        // the same seed, at arbitrary block/overlap geometry and under
        // arbitrary chunk splits with the batch's sources interleaved
        // (each batch round draws chunk c from every source in turn,
        // which a shared scratch window must not couple).
        let overlap = (block * overlap_permille) / 1000; // 0 ..= block
        let seeds: Vec<u64> = (0..n_sources as u64).map(|i| seed0 + i * 7).collect();
        let fgn = SourceModel::Fgn { hurst: h };
        let (mut batch, mut solos) = if use_overlap {
            (
                BatchStream::try_new(fgn, 1.0, block, Some(overlap), &seeds).unwrap(),
                seeds.iter()
                    .map(|&s| FgnStream::with_overlap(h, 1.0, block, overlap, s))
                    .collect::<Vec<_>>(),
            )
        } else {
            (
                BatchStream::try_new(fgn, 1.0, block, None, &seeds).unwrap(),
                seeds.iter().map(|&s| FgnStream::new(h, 1.0, block, s)).collect(),
            )
        };
        for &c in &chunks {
            let mut a = vec![0.0f64; c];
            let mut b = vec![0.0f64; c];
            for (i, solo) in solos.iter_mut().enumerate() {
                batch.next_block(i, &mut a);
                solo.next_block(&mut b);
                for (k, (x, y)) in a.iter().zip(&b).enumerate() {
                    prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "source {} chunk {} sample {} diverged", i, c, k
                    );
                }
            }
        }
    }

    #[test]
    fn batch_state_interchangeable_with_stream_state(
        h in 0.05f64..0.95,
        block in 1usize..300,
        pre in 0usize..700,
        post in 1usize..200,
        seed in 0u64..1000,
    ) {
        // Kill/resume across engines: a checkpoint exported mid-stream
        // from a batch source restores into a fresh BatchStream *and* into
        // an independent FgnStream (StreamState is one format), and both
        // resume bit-identically with the uninterrupted source.
        let seeds = [seed, seed ^ 0x5a5a];
        let fgn = SourceModel::Fgn { hurst: h };
        let mut batch = BatchStream::try_new(fgn, 1.0, block, None, &seeds).unwrap();
        let mut buf = vec![0.0f64; pre.max(1)];
        if pre > 0 {
            batch.next_block(1, &mut buf[..pre]);
            // Desync source 0 so the shared scratch is dirty at export.
            batch.next_block(0, &mut buf[..pre.min(13)]);
        }
        let saved = batch.export_state(1);

        let mut fresh_batch = BatchStream::try_new(fgn, 1.0, block, None, &seeds).unwrap();
        fresh_batch.restore_state(1, &saved).unwrap();
        let mut fresh_stream = FgnStream::new(h, 1.0, block, seeds[1]);
        fresh_stream.restore_state(&saved).unwrap();

        let mut want = vec![0.0f64; post];
        let mut got_b = vec![0.0f64; post];
        let mut got_s = vec![0.0f64; post];
        batch.next_block(1, &mut want);
        fresh_batch.next_block(1, &mut got_b);
        fresh_stream.next_block(&mut got_s);
        for k in 0..post {
            prop_assert_eq!(want[k].to_bits(), got_b[k].to_bits(), "batch resume at {}", k);
            prop_assert_eq!(want[k].to_bits(), got_s[k].to_bits(), "stream resume at {}", k);
        }
    }

    #[test]
    fn dropping_the_solo_lookahead_is_bit_invisible(
        h in 0.05f64..0.95,
        block in 2usize..200,
        overlap_sel in 0u32..2,
        before in prop::collection::vec(1usize..97, 1..8),
        between in prop::collection::vec(1usize..97, 0..4),
        after in prop::collection::vec(1usize..97, 1..8),
        seed in 0u64..1000,
    ) {
        // A one-source batch refills through its LANES-window lookahead.
        // Rewinding it to a state exported mid-lookahead, and growing it
        // with push_source, each drop that lookahead; neither may move a
        // bit. The reference is the same seed as source 1 of a two-source
        // batch, which refills through the scalar path only.
        let fgn = SourceModel::Fgn { hurst: h };
        let overlap = (overlap_sel == 1).then_some(block / 3);
        let mut solo = BatchStream::try_new(fgn, 1.0, block, overlap, &[seed]).unwrap();
        let mut pair =
            BatchStream::try_new(fgn, 1.0, block, overlap, &[seed ^ 0x77, seed]).unwrap();
        let draw = |solo: &mut BatchStream,
                    pair: &mut BatchStream,
                    chunks: &[usize]|
         -> Result<(), TestCaseError> {
            for &c in chunks {
                let mut a = vec![0.0f64; c];
                let mut b = vec![0.0f64; c];
                solo.next_block(0, &mut a);
                pair.next_block(1, &mut b);
                for k in 0..c {
                    prop_assert_eq!(a[k].to_bits(), b[k].to_bits(), "chunk {} sample {}", c, k);
                }
            }
            Ok(())
        };
        draw(&mut solo, &mut pair, &before)?;
        // Land strictly inside a lookahead: if the windows consumed so
        // far fill whole lane passes, consume one window more.
        if before.iter().sum::<usize>().div_ceil(block) % vbr_fft::LANES == 0 {
            draw(&mut solo, &mut pair, &[block])?;
        }
        let saved = solo.export_state(0);
        // Move on by at least one refill (the trailing whole block always
        // crosses a window boundary), then rewind both to the export.
        let mut onward = between.clone();
        onward.push(block);
        draw(&mut solo, &mut pair, &onward)?;
        solo.restore_state(0, &saved).unwrap();
        pair.restore_state(1, &saved).unwrap();
        draw(&mut solo, &mut pair, &onward)?;
        solo.push_source(seed ^ 0x77, 0);
        draw(&mut solo, &mut pair, &after)?;
    }

    #[test]
    fn batch_farima_bit_identical_to_independent_streams(
        h in 0.5f64..0.95,
        block in 1usize..400,
        n_sources in 1usize..4,
        seed0 in 0u64..1000,
    ) {
        // fARIMA embeddings are fallible: the batch must accept exactly
        // when every independent stream accepts, and agree to the bit
        // when it does.
        let seeds: Vec<u64> = (0..n_sources as u64).map(|i| seed0 + i * 3).collect();
        match BatchStream::try_new(SourceModel::Farima { hurst: h }, 1.0, block, None, &seeds) {
            Ok(mut batch) => {
                let mut a = vec![0.0f64; block];
                let mut b = vec![0.0f64; block];
                for (i, &s) in seeds.iter().enumerate() {
                    let mut solo = FarimaStream::try_new(h, 1.0, block, s)
                        .expect("batch accepted but stream rejected");
                    batch.next_block(i, &mut a);
                    solo.next_block(&mut b);
                    for k in 0..block {
                        prop_assert_eq!(a[k].to_bits(), b[k].to_bits(), "source {} at {}", i, k);
                    }
                }
            }
            Err(_) => {
                prop_assert!(
                    FarimaStream::try_new(h, 1.0, block, seeds[0]).is_err(),
                    "stream accepted but batch rejected"
                );
            }
        }
    }

    #[test]
    fn table_map_matches_binary_search_reference(
        mu in 100.0f64..1e4,
        cv in 0.05f64..0.6,
        a in 2.0f64..12.0,
        n in 3usize..400,
        xs in prop::collection::vec(-6.0f64..6.0, 1..100),
    ) {
        // The grid-walk + precomputed-slope kernel against an
        // independent scalar oracle: rebuild the knots exactly as the
        // constructor does, locate the interval by binary search, and
        // interpolate with the original division formula. Agreement is
        // ≤ 1e-12 relative — the only arithmetic difference is
        // `(t·Δ)/Δz` vs `t·(Δ/Δz)`.
        let target = GammaPareto::from_params(mu, mu * cv, a);
        let xf = MarginalTransform::new(&target, 0.0, 1.0, TableMode::Table(n));
        let (table, zknots): (Vec<f64>, Vec<f64>) = (0..n)
            .map(|i| {
                let u = (i as f64 + 0.5) / n as f64;
                (target.quantile(u), vbr_stats::norm_quantile(u))
            })
            .unzip();
        for &x in &xs {
            let want = if x <= zknots[0] {
                table[0]
            } else if x >= zknots[n - 1] {
                table[n - 1]
            } else {
                let i = zknots.partition_point(|&z| z < x) - 1;
                table[i]
                    + (x - zknots[i]) * (table[i + 1] - table[i])
                        / (zknots[i + 1] - zknots[i])
            };
            let got = xf.map(x);
            prop_assert!(
                (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                "x={}: kernel {} vs reference {}", x, got, want
            );
        }
    }

    #[test]
    fn table_map_inplace_bit_identical_across_block_sizes(
        mu in 100.0f64..1e4,
        xs in prop::collection::vec(-6.0f64..6.0, 1..200),
        cut in 0usize..200,
    ) {
        // Blocked mapping must not depend on where block boundaries
        // fall: mapping the whole buffer, mapping two arbitrary halves,
        // and mapping one element at a time all agree to the bit.
        let target = GammaPareto::from_params(mu, mu * 0.3, 5.0);
        let xf = MarginalTransform::new(&target, 0.0, 1.0, TableMode::Table(500));
        let cut = cut.min(xs.len());
        let mut whole = xs.clone();
        xf.map_inplace(&mut whole);
        let mut split = xs.clone();
        {
            let (head, tail) = split.split_at_mut(cut);
            xf.map_inplace(head);
            xf.map_inplace(tail);
        }
        for (i, &x) in xs.iter().enumerate() {
            prop_assert_eq!(whole[i].to_bits(), split[i].to_bits(), "cut={} at {}", cut, i);
            prop_assert_eq!(whole[i].to_bits(), xf.map(x).to_bits(), "scalar at {}", i);
        }
    }

    #[test]
    fn table_transform_bounded_by_table_extremes(
        mu in 100.0f64..1e4,
        x in -20.0f64..20.0,
    ) {
        let target = GammaPareto::from_params(mu, mu * 0.3, 5.0);
        let xf = MarginalTransform::new(&target, 0.0, 1.0, TableMode::Table(1_000));
        let y = xf.map(x);
        prop_assert!(y <= xf.max_output());
        prop_assert!(y >= target.quantile(0.5 / 1_000.0));
    }
}
