//! Bounded-memory block streaming of LRD Gaussian sample paths.
//!
//! [`FgnStream`] and [`FarimaStream`] are one-source
//! [`BatchStream`]s: the circulant engine, its three refill paths and
//! the solo lookahead live in [`crate::batch`]; this module holds the
//! solo entry points, their exactness contract, and the checkpoint
//! state format shared with the batch engine.
//!
//! Batch Davies–Harte holds the whole circulant (`2n` complex values) in
//! memory, so a 16M-slice trace costs ~0.5 GB of transform workspace
//! before the trace itself exists. The streams here instead synthesise
//! the path in overlapped circulant *windows* of a caller-chosen block
//! size `B`: memory is `O(B)` regardless of how many samples are drawn,
//! and the iterator never terminates — callers take as much as they
//! need.
//!
//! ## Exactness contract
//!
//! Two geometries are offered (see DESIGN.md §10):
//!
//! - **Prefix-exact** ([`FgnStream::new`]): the first window uses the
//!   *same* circulant size, cached spectrum and RNG draw order as the
//!   batch generator called with `n = B`, so the first `B` samples are
//!   **bit-identical** to `DaviesHarte::generate(B, seed)` (resp. the
//!   circulant fARIMA batch path, [`farima_via_circulant`]). Later
//!   windows continue the same RNG stream; each window is internally an
//!   exact sample of the target process, and consecutive windows are
//!   joined over the free overlap `L = (m/2 + 1 − B).min(B)` by a
//!   power-preserving cross-fade (below).
//! - **Quality overlap** ([`FgnStream::with_overlap`]): the caller picks
//!   the overlap `L ≤ B` and the circulant grows to cover `B + L`
//!   samples per window. Longer overlaps track the target
//!   autocovariance further across window seams, at the cost of the
//!   bit-exact prefix (the circulant size — hence the spectrum and the
//!   number of RNG draws per window — differs from the batch call).
//!
//! The cross-fade blends the previous window's unused exact tail
//! `p_0..p_{L−1}` into the new window's head `c_0..c_{L−1}`:
//!
//! ```text
//! z_i = sqrt(1 − a_i)·p_i + sqrt(a_i)·c_i,   a_i = (i + 1)/(L + 1)
//! ```
//!
//! Both inputs are zero-mean Gaussian with the target marginal variance
//! and the weights satisfy `(1 − a_i) + a_i = 1`, so every emitted
//! sample has **exactly** the target `N(0, σ²)` marginal. Covariance is
//! exact within a window and approximate across the seam (the two
//! windows are independent realisations); the overlap length bounds how
//! far the seam error reaches.

use crate::batch::{BatchStream, SourceModel};
use crate::davies_harte::{synthesise_real_into, SynthScratch};
use crate::error::FgnError;
use vbr_stats::rng::Xoshiro256;
use vbr_stats::snapshot::{Payload, Section, SnapshotError};

/// Bulk sample source: anything that can fill a caller buffer with the
/// next run of samples. Implemented by all streams here; consumed by
/// the fused pipeline stages
/// ([`MarginalTransform::map_block_from`](crate::MarginalTransform::map_block_from))
/// so they work over any generator without per-sample dispatch.
pub trait BlockSource {
    /// Fills `out` with the next `out.len()` samples of the source.
    fn next_block(&mut self, out: &mut [f64]);
}

/// The dynamic (per-run) state of one circulant source, exportable for
/// checkpoint/restore.
///
/// Configuration — Hurst, variance, block, overlap, and hence the
/// circulant spectrum — is deliberately *not* part of the state: a
/// restore target is rebuilt from its own configuration (whose
/// parameter hash the snapshot envelope guards) and then has this
/// dynamic state grafted on via [`FgnStream::restore_state`] (or
/// [`BatchStream::restore_state`] for one source of a batch).
/// That keeps snapshots `O(block)` and makes a config/state mismatch a
/// typed error instead of silent garbage.
///
/// The restore contract is **bit-identity**: a stream rebuilt from an
/// exported state emits exactly the same remaining samples, whatever
/// point of a window the export happened at (the current window and
/// seam tail travel in full).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamState {
    /// RNG state ([`Xoshiro256::state`]).
    pub rng: [u64; 4],
    /// The window being emitted (empty before the first refill).
    pub cur: Vec<f64>,
    /// Exact tail of the previous window awaiting the next cross-fade.
    pub tail: Vec<f64>,
    /// Emit position within `cur`.
    pub pos: usize,
    /// Whether a window has been synthesised (seam blending is active).
    pub started: bool,
    /// Tenant identity of the source. Solo streams export `0`; batch
    /// sources export whatever identity they were admitted with, so a
    /// state restored into a different batch group (shard migration)
    /// carries its owner along instead of relying on positional index.
    /// Any value is structurally valid — identity is data, not geometry.
    pub tenant: u64,
}

impl StreamState {
    /// Serialises the state into a snapshot section payload.
    pub fn encode(&self, p: &mut Payload) {
        p.put_u64_slice(&self.rng);
        p.put_f64_slice(&self.cur);
        p.put_f64_slice(&self.tail);
        p.put_usize(self.pos);
        p.put_bool(self.started);
        p.put_u64(self.tenant);
    }

    /// Deserialises a state from a snapshot section. Structural bounds
    /// are enforced here; semantic validation against a concrete stream
    /// happens in [`BatchStream::restore_state`].
    pub fn decode(s: &mut Section) -> Result<Self, SnapshotError> {
        let rng_vec = s.get_u64_vec()?;
        let rng: [u64; 4] = rng_vec
            .try_into()
            .map_err(|_| SnapshotError::Invalid { what: "rng state is not 4 words" })?;
        let cur = s.get_f64_vec()?;
        let tail = s.get_f64_vec()?;
        let pos = s.get_usize()?;
        let started = s.get_bool()?;
        let tenant = s.get_u64()?;
        Ok(StreamState { rng, cur, tail, pos, started, tenant })
    }
}

/// The methods [`FgnStream`] and [`FarimaStream`] share: both are a
/// one-source [`BatchStream`], so each forwards to source 0.
macro_rules! solo_stream {
    ($name:ident) => {
        impl $name {
            /// Fills `out` with the next `out.len()` samples of the
            /// stream — the chunked equivalent of calling
            /// [`Iterator::next`] in a loop, without per-sample dispatch.
            pub fn next_block(&mut self, out: &mut [f64]) {
                self.0.next_block(0, out);
            }

            /// Emitted samples per circulant window.
            pub fn block(&self) -> usize {
                self.0.block()
            }

            /// Samples cross-faded at each window seam.
            pub fn overlap(&self) -> usize {
                self.0.overlap()
            }

            /// Circulant transform length per window (`0` on the
            /// white-noise path) — the memory scale of the stream.
            pub fn circulant_len(&self) -> usize {
                self.0.circulant_len()
            }

            /// Exports the dynamic state (RNG, current window, seam
            /// tail, position) for checkpointing. `O(block + overlap)`
            /// copied floats.
            pub fn export_state(&self) -> StreamState {
                self.0.export_state(0)
            }

            /// Grafts an exported state onto this (same-configuration)
            /// stream. A hostile state is refused with a typed error and
            /// leaves the stream untouched; see
            /// [`BatchStream::restore_state`].
            pub fn restore_state(&mut self, st: &StreamState) -> Result<(), SnapshotError> {
                self.0.restore_state(0, st)
            }
        }

        impl Iterator for $name {
            type Item = f64;

            fn next(&mut self) -> Option<f64> {
                let mut v = [0.0];
                self.0.next_block(0, &mut v);
                Some(v[0])
            }
        }

        impl BlockSource for $name {
            fn next_block(&mut self, out: &mut [f64]) {
                self.0.next_block(0, out);
            }
        }
    };
}

/// Infinite bounded-memory stream of exact-in-window fractional
/// Gaussian noise.
///
/// ```
/// use vbr_fgn::{DaviesHarte, FgnStream};
/// let block = 1000;
/// let streamed: Vec<f64> = FgnStream::new(0.8, 1.0, block, 42).take(block).collect();
/// // Prefix-exact: bit-identical to the batch generator on the first block.
/// assert_eq!(streamed, DaviesHarte::new(0.8, 1.0).generate(block, 42));
/// ```
#[derive(Debug, Clone)]
pub struct FgnStream(BatchStream);

solo_stream!(FgnStream);

impl FgnStream {
    /// Prefix-exact stream: the first `block` samples are bit-identical
    /// to `DaviesHarte::new(hurst, variance).generate(block, seed)`.
    /// Panics on invalid parameters; see [`try_new`](Self::try_new).
    pub fn new(hurst: f64, variance: f64, block: usize, seed: u64) -> Self {
        Self::try_new(hurst, variance, block, seed)
            .unwrap_or_else(|e| panic!("FgnStream construction failed: {e}"))
    }

    /// Fallible [`new`](Self::new); see [`SourceModel::spectrum`] for
    /// every refusal.
    pub fn try_new(
        hurst: f64,
        variance: f64,
        block: usize,
        seed: u64,
    ) -> Result<Self, FgnError> {
        BatchStream::try_new(SourceModel::Fgn { hurst }, variance, block, None, &[seed]).map(Self)
    }

    /// Stream with a caller-chosen seam overlap `overlap ≤ block` (the
    /// circulant grows to cover `block + overlap` samples per window).
    /// Better cross-window covariance than [`new`](Self::new), but the
    /// prefix is no longer bit-identical to the batch generator.
    pub fn with_overlap(
        hurst: f64,
        variance: f64,
        block: usize,
        overlap: usize,
        seed: u64,
    ) -> Self {
        Self::try_with_overlap(hurst, variance, block, overlap, seed)
            .unwrap_or_else(|e| panic!("FgnStream construction failed: {e}"))
    }

    /// Fallible [`with_overlap`](Self::with_overlap).
    pub fn try_with_overlap(
        hurst: f64,
        variance: f64,
        block: usize,
        overlap: usize,
        seed: u64,
    ) -> Result<Self, FgnError> {
        let model = SourceModel::Fgn { hurst };
        BatchStream::try_new(model, variance, block, Some(overlap), &[seed]).map(Self)
    }
}

/// Infinite bounded-memory stream of exact-in-window fractional
/// ARIMA(0, d, 0) noise — the streaming, `O(n log n)` counterpart of
/// [`crate::Hosking`], via the same circulant engine as [`FgnStream`].
///
/// Unlike the fGn embedding, the fARIMA circulant is not provably PSD
/// at every `(d, m)`, so construction is fallible
/// ([`FgnError::NonPsdEmbedding`]); in practice the embedding succeeds
/// for `H ∈ [0.5, 1)` at all power-of-two sizes we exercise.
#[derive(Debug, Clone)]
pub struct FarimaStream(BatchStream);

solo_stream!(FarimaStream);

impl FarimaStream {
    /// Prefix-exact stream: the first `block` samples are bit-identical
    /// to [`farima_via_circulant`]`(hurst, variance, block, seed)`.
    /// `H ∈ [0.5, 1)` as for [`crate::Hosking`].
    pub fn try_new(
        hurst: f64,
        variance: f64,
        block: usize,
        seed: u64,
    ) -> Result<Self, FgnError> {
        let model = SourceModel::Farima { hurst };
        BatchStream::try_new(model, variance, block, None, &[seed]).map(Self)
    }

    /// Fallible stream with a caller-chosen seam overlap; see
    /// [`FgnStream::with_overlap`] for the trade-off.
    pub fn try_with_overlap(
        hurst: f64,
        variance: f64,
        block: usize,
        overlap: usize,
        seed: u64,
    ) -> Result<Self, FgnError> {
        let model = SourceModel::Farima { hurst };
        BatchStream::try_new(model, variance, block, Some(overlap), &[seed]).map(Self)
    }
}

/// Batch fARIMA(0, d, 0) in `O(n log n)` via circulant embedding — the
/// fast alternative to [`crate::Hosking`]'s exact `O(n²)` recursion,
/// and the batch comparator for [`FarimaStream`]'s prefix-exactness
/// contract. `H ∈ [0.5, 1)`; variance is the marginal variance (the
/// theoretical fARIMA autocorrelation is used, scaled by `variance`),
/// matching the [`crate::Hosking`] parameterisation.
pub fn farima_via_circulant(
    hurst: f64,
    variance: f64,
    n: usize,
    seed: u64,
) -> Result<Vec<f64>, FgnError> {
    // The prefix-exact circulant of `n` samples, through the validator
    // the streams share (`n.max(1)`: an empty request still validates).
    let (_, lambda) = SourceModel::Farima { hurst }.spectrum(variance, n.max(1), None)?;
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let sd = variance.sqrt();
    if n == 0 {
        return Ok(Vec::new());
    }
    let Some(lambda) = lambda else {
        return Ok(vec![rng.standard_normal() * sd]);
    };
    let mut scratch = SynthScratch::new();
    let mut out = Vec::new();
    synthesise_real_into(&lambda, &mut rng, &mut scratch, &mut out);
    out.truncate(n);
    for x in &mut out {
        *x *= sd;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acvf::fgn_acvf;
    use crate::davies_harte::DaviesHarte;

    fn sample_stats(x: &[f64]) -> (f64, f64) {
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        let var = x.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / x.len() as f64;
        (mean, var)
    }

    #[test]
    fn prefix_bit_identical_to_batch() {
        let g = DaviesHarte::new(0.8, 2.5);
        for block in [2usize, 7, 64, 500, 1025] {
            let batch = g.generate(block, 42);
            let streamed: Vec<f64> =
                FgnStream::new(0.8, 2.5, block, 42).take(block).collect();
            assert_eq!(streamed, batch, "block {block}");
        }
    }

    #[test]
    fn block_one_matches_batch_white_path() {
        let g = DaviesHarte::new(0.7, 4.0);
        let batch = g.generate(1, 9);
        let streamed: Vec<f64> = FgnStream::new(0.7, 4.0, 1, 9).take(1).collect();
        assert_eq!(streamed, batch);
        // And it keeps producing iid normals with the right variance.
        let long: Vec<f64> = FgnStream::new(0.7, 4.0, 1, 9).take(50_000).collect();
        let (mean, var) = sample_stats(&long);
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn next_block_matches_iterator() {
        let mut by_chunks = FgnStream::new(0.8, 1.0, 512, 7);
        let by_iter: Vec<f64> = FgnStream::new(0.8, 1.0, 512, 7).take(2000).collect();
        let mut got = vec![0.0; 2000];
        // Odd chunk sizes to exercise window-boundary straddling.
        let (a, rest) = got.split_at_mut(123);
        let (b, c) = rest.split_at_mut(1000);
        by_chunks.next_block(a);
        by_chunks.next_block(b);
        by_chunks.next_block(c);
        assert_eq!(got, by_iter);
    }

    #[test]
    fn long_stream_preserves_marginal_variance() {
        // Cross-faded seams must not change the N(0, σ²) marginal.
        let n = 1 << 17;
        let x: Vec<f64> = FgnStream::with_overlap(0.8, 1.0, 4096, 2048, 3).take(n).collect();
        let (mean, var) = sample_stats(&x);
        assert!(mean.abs() < 0.12, "mean {mean}");
        assert!((var - 1.0).abs() < 0.12, "var {var}");
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn long_stream_tracks_short_lag_acf() {
        let h = 0.8;
        let n = 1 << 17;
        let x: Vec<f64> = FgnStream::with_overlap(h, 1.0, 4096, 2048, 11).take(n).collect();
        let r = vbr_stats::acf::autocorrelation(&x, 5);
        let want = fgn_acvf(h, 5);
        for k in 1..=5 {
            assert!(
                (r[k] - want[k]).abs() < 0.06,
                "lag {k}: sample {} vs theory {}",
                r[k],
                want[k]
            );
        }
    }

    #[test]
    fn farima_stream_prefix_matches_circulant_batch() {
        for block in [2usize, 33, 700] {
            let batch = farima_via_circulant(0.8, 1.0, block, 5).unwrap();
            let streamed: Vec<f64> = FarimaStream::try_new(0.8, 1.0, block, 5)
                .unwrap()
                .take(block)
                .collect();
            assert_eq!(streamed, batch, "block {block}");
        }
    }

    #[test]
    fn farima_circulant_matches_hosking_acf() {
        // Same model, different algorithms: the sample lag-1 correlation
        // of the circulant path must sit near Hosking's theoretical
        // rho_1 = d/(1-d).
        let h = 0.875; // d = 0.375, rho_1 = 0.6
        let x = farima_via_circulant(h, 1.0, 1 << 16, 17).unwrap();
        let r = vbr_stats::acf::autocorrelation(&x, 1);
        let d = crate::acvf::hurst_to_d(h);
        let want = d / (1.0 - d);
        assert!((r[1] - want).abs() < 0.05, "rho_1 {} vs {}", r[1], want);
    }

    #[test]
    fn invalid_parameters_are_typed_errors() {
        assert!(matches!(
            FgnStream::try_new(1.2, 1.0, 64, 0),
            Err(FgnError::InvalidHurst { .. })
        ));
        assert!(matches!(
            FgnStream::try_new(0.8, -1.0, 64, 0),
            Err(FgnError::InvalidVariance { .. })
        ));
        assert!(FgnStream::try_new(0.8, 1.0, 0, 0).is_err());
        assert!(FgnStream::try_with_overlap(0.8, 1.0, 64, 65, 0).is_err());
        assert!(matches!(
            FarimaStream::try_new(0.3, 1.0, 64, 0),
            Err(FgnError::InvalidHurst { .. })
        ));
    }

    #[test]
    fn oversized_block_is_a_typed_error_not_an_abort() {
        // Each of these once reached the spectrum allocation (the first
        // aborted the process); the circulant-length bound refuses them
        // before anything is allocated. `top` is the largest accepted
        // prefix-exact block: next_pow2(2(top − 1)) = MAX_CIRCULANT_LEN.
        let top = crate::MAX_CIRCULANT_LEN / 2 + 1;
        for (block, overlap) in [
            (1 << 40, None),
            (top + 1, None),
            (top, Some(1)),
            (usize::MAX / 2, Some(0)),
            (usize::MAX / 2, Some(usize::MAX / 2)),
            (usize::MAX, Some(usize::MAX)),
        ] {
            let fgn = match overlap {
                None => FgnStream::try_new(0.8, 1.0, block, 0),
                Some(l) => FgnStream::try_with_overlap(0.8, 1.0, block, l, 0),
            };
            assert!(matches!(fgn, Err(FgnError::Numeric(_))), "fGn {block} {overlap:?}");
            let farima = match overlap {
                None => FarimaStream::try_new(0.8, 1.0, block, 0),
                Some(l) => FarimaStream::try_with_overlap(0.8, 1.0, block, l, 0),
            };
            assert!(matches!(farima, Err(FgnError::Numeric(_))), "fARIMA {block} {overlap:?}");
        }
        assert!(farima_via_circulant(0.8, 1.0, 1 << 40, 0).is_err());
    }

    #[test]
    fn export_restore_resumes_bit_identically() {
        // Kill at an arbitrary (non-boundary) point, restore into a
        // freshly built same-config stream, and the remainder must be
        // bit-identical to the uninterrupted run.
        for (block, overlap, taken) in
            [(64usize, None, 100usize), (500, Some(123), 777), (1, None, 5), (64, Some(0), 64)]
        {
            let build = |ovl: Option<usize>| match ovl {
                None => FgnStream::new(0.8, 1.5, block, 21),
                Some(l) => FgnStream::with_overlap(0.8, 1.5, block, l, 21),
            };
            let mut uninterrupted = build(overlap);
            let full: Vec<f64> = uninterrupted.by_ref().take(taken + 500).collect();

            let mut first = build(overlap);
            let _prefix: Vec<f64> = first.by_ref().take(taken).collect();
            let state = first.export_state();
            drop(first); // the "crash"

            let mut resumed = build(overlap);
            resumed.restore_state(&state).unwrap();
            let rest: Vec<f64> = resumed.take(500).collect();
            let want: Vec<u64> = full[taken..].iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = rest.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "block={block} overlap={overlap:?} taken={taken}");
        }
    }

    #[test]
    fn farima_export_restore_resumes_bit_identically() {
        let mut uninterrupted = FarimaStream::try_new(0.8, 1.0, 200, 4).unwrap();
        let full: Vec<f64> = uninterrupted.by_ref().take(900).collect();
        let mut first = FarimaStream::try_new(0.8, 1.0, 200, 4).unwrap();
        let _prefix: Vec<f64> = first.by_ref().take(333).collect();
        let state = first.export_state();
        let mut resumed = FarimaStream::try_new(0.8, 1.0, 200, 4).unwrap();
        resumed.restore_state(&state).unwrap();
        let got: Vec<u64> = resumed.take(900 - 333).map(|v| v.to_bits()).collect();
        let want: Vec<u64> = full[333..].iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn restore_rejects_mismatched_or_hostile_state() {
        let mut donor = FgnStream::new(0.8, 1.0, 64, 1);
        let _: Vec<f64> = donor.by_ref().take(10).collect();
        let good = donor.export_state();

        // Wrong geometry: state from a block-64 stream into a block-128 one.
        let mut other = FgnStream::new(0.8, 1.0, 128, 1);
        assert!(other.restore_state(&good).is_err());

        // Hostile mutations, each a typed refusal on the right stream.
        let mut target = FgnStream::new(0.8, 1.0, 64, 2);
        let mut bad = good.clone();
        bad.rng = [0; 4];
        assert!(target.restore_state(&bad).is_err());
        let mut bad = good.clone();
        bad.pos = bad.cur.len() + 1;
        assert!(target.restore_state(&bad).is_err());
        let mut bad = good.clone();
        if !bad.cur.is_empty() {
            bad.cur[0] = f64::NAN;
        }
        assert!(target.restore_state(&bad).is_err());
        let mut bad = good.clone();
        bad.tail.push(0.5);
        assert!(target.restore_state(&bad).is_err());
        // A refused restore leaves the target fully functional…
        target.restore_state(&good).unwrap();
        // …and resuming it matches the donor's continuation.
        let a: Vec<u64> = target.take(100).map(|v| v.to_bits()).collect();
        let b: Vec<u64> = donor.take(100).map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn stream_state_codec_round_trip() {
        use vbr_stats::snapshot::{SnapshotReader, SnapshotWriter};
        let mut s = FgnStream::new(0.8, 1.0, 100, 9);
        let _: Vec<f64> = s.by_ref().take(157).collect();
        let state = s.export_state();
        let mut w = SnapshotWriter::new(1, 1);
        w.section(0x5354_524D, |p| state.encode(p));
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let mut sec = r.section(0x5354_524D, "stream").unwrap();
        let decoded = StreamState::decode(&mut sec).unwrap();
        sec.finish().unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn geometry_accessors() {
        let s = FgnStream::new(0.8, 1.0, 1000, 1);
        assert_eq!(s.block(), 1000);
        assert_eq!(s.circulant_len(), 2048);
        assert_eq!(s.overlap(), 25); // m/2 + 1 - B = 1025 - 1000
        let s = FgnStream::with_overlap(0.8, 1.0, 1000, 500, 1);
        assert_eq!(s.overlap(), 500);
        assert_eq!(s.circulant_len(), 4096); // next_pow2(2 * 1499)
        let s = FgnStream::new(0.8, 1.0, 1, 1);
        assert_eq!(s.circulant_len(), 0);
    }
}
