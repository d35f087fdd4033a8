//! Shared-spectrum batch generation: B independent fGn/fARIMA sources
//! driven by ONE circulant spectrum, one real-FFT plan, and one
//! synthesis scratch.
//!
//! Large-scale simulation (the paper's Sec. V traces, and the mux
//! experiments that superpose tens of sources) needs many *independent*
//! sources with *identical* second-order statistics. Building B
//! [`crate::FgnStream`]s duplicates everything that is per-model rather
//! than per-source: the circulant spectrum (`m` floats each), the FFT
//! plan lookups, and the synthesis scratch. [`BatchStream`] keeps one
//! copy of each and a tiny [`SourceState`](crate::stream) per source, so
//! the marginal cost of another source is `O(block + overlap)` floats
//! of state plus its RNG — not another spectrum.
//!
//! ## Bit-identity contract
//!
//! Each source owns its RNG (seeded independently) and its window/seam
//! buffers; only *stateless* scratch is shared. A source's refill reads
//! and writes nothing outside its own state and the shared scratch it
//! fully overwrites, so draws from a batched source are **bit-identical
//! to the same-seed independent stream, draw for draw**, at any block /
//! overlap geometry and any interleaving of `next_block` calls across
//! sources. Proptests in `crates/fgn/tests/proptests.rs` pin this.
//!
//! ```
//! use vbr_fgn::{BatchFgn, FgnStream};
//! let mut batch = BatchFgn::try_new(0.8, 1.0, 64, &[1, 2, 3]).unwrap();
//! let mut solo = FgnStream::new(0.8, 1.0, 64, 2);
//! let mut a = vec![0.0; 100];
//! let mut b = vec![0.0; 100];
//! batch.next_block(1, &mut a); // source index 1 == seed 2
//! solo.next_block(&mut b);
//! assert_eq!(a, b);
//! ```

use crate::cache::{farima_circulant_spectrum_cached, fgn_circulant_spectrum_cached};
use crate::davies_harte::{synthesise_real_lanes_into, LaneSynthScratch};
use crate::error::FgnError;
use crate::stream::{
    check_geometry, next_block_source, prefix_exact_geometry, SharedSpectrum, SourceState,
    StreamState, WindowScratch,
};
use std::sync::Arc;
use vbr_fft::{next_pow2, LANES};
use vbr_stats::obs::{self, Counter};
use vbr_stats::rng::Xoshiro256;
use vbr_stats::snapshot::SnapshotError;

/// The shared-spectrum engine: B circulant sources over one spectrum.
///
/// Construction mirrors [`crate::CirculantStream`]'s geometry exactly;
/// use [`BatchFgn`] / [`BatchFarima`] for validated model-level entry
/// points.
#[derive(Debug, Clone)]
pub struct BatchStream {
    sd: f64,
    block: usize,
    overlap: usize,
    /// `None` is the degenerate `block == 1` white-noise path, exactly
    /// as in [`crate::CirculantStream`].
    spectrum: Option<SharedSpectrum>,
    sources: Vec<SourceState>,
    /// One synthesis workspace for the whole batch — fully overwritten
    /// by every refill, so sharing it cannot couple sources.
    scratch: WindowScratch,
    /// Lane-parallel refill workspace of [`advance_rows`]
    /// (`Self::advance_rows`): normal draws, interleaved half-spectra
    /// and window samples for up to [`LANES`] sources at a time.
    lane_scratch: LaneSynthScratch,
    /// Lane-interleaved window samples of the current refill cohort.
    lane_buf: Vec<f64>,
}

impl BatchStream {
    fn from_spectrum(
        spectrum: Option<Arc<Vec<f64>>>,
        sd: f64,
        block: usize,
        overlap: usize,
        seeds: &[u64],
    ) -> Self {
        if let Some(lambda) = &spectrum {
            debug_assert!(lambda.len() / 2 + 1 >= block + overlap);
        }
        let sources = seeds
            .iter()
            .map(|&s| SourceState::new(Xoshiro256::seed_from_u64(s), block, overlap))
            .collect();
        BatchStream {
            sd,
            block,
            overlap,
            spectrum: spectrum.map(|l| SharedSpectrum::new(&l)),
            sources,
            scratch: WindowScratch::default(),
            lane_scratch: LaneSynthScratch::default(),
            lane_buf: Vec::new(),
        }
    }

    /// Number of sources in the batch.
    pub fn sources(&self) -> usize {
        self.sources.len()
    }

    /// Admits one more source into the batch, seeded fresh and tagged
    /// with `tenant`, and returns its index. The new source starts at
    /// its very first draw — existing sources are unaffected (their
    /// states are independent), so groups can grow while serving.
    pub fn push_source(&mut self, seed: u64, tenant: u64) -> usize {
        let mut st = SourceState::new(Xoshiro256::seed_from_u64(seed), self.block, self.overlap);
        st.tenant = tenant;
        self.sources.push(st);
        self.sources.len() - 1
    }

    /// The tenant identity of source `source` (0 unless assigned).
    /// Panics if `source` is out of range.
    pub fn tenant(&self, source: usize) -> u64 {
        self.sources[source].tenant
    }

    /// Re-tags source `source` with a tenant identity; the tag travels
    /// through [`export_state`](Self::export_state) /
    /// [`restore_state`](Self::restore_state).
    pub fn set_tenant(&mut self, source: usize, tenant: u64) {
        self.sources[source].tenant = tenant;
    }

    /// Emitted samples per window (per source).
    pub fn block(&self) -> usize {
        self.block
    }

    /// Samples cross-faded at each window seam.
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// Circulant transform length per window (`0` on the white-noise
    /// path). This is the batch's *total* spectrum footprint — shared,
    /// not per source.
    pub fn circulant_len(&self) -> usize {
        self.spectrum.as_ref().map_or(0, |sp| sp.m())
    }

    /// Fills `out` with the next `out.len()` samples of source
    /// `source`. Sources advance independently: interleaving calls
    /// across sources in any order yields the same per-source draw
    /// sequences. Panics if `source ≥ self.sources()`.
    pub fn next_block(&mut self, source: usize, out: &mut [f64]) {
        next_block_source(
            self.spectrum.as_ref(),
            self.sd,
            self.block,
            self.overlap,
            &mut self.sources[source],
            &mut self.scratch,
            out,
        );
    }

    /// Fills each `outs[i]` with the next `outs[i].len()` samples of
    /// source `i`. `outs.len()` must equal [`sources`](Self::sources).
    pub fn next_blocks(&mut self, outs: &mut [&mut [f64]]) {
        assert_eq!(outs.len(), self.sources.len(), "one output slice per source");
        for (i, out) in outs.iter_mut().enumerate() {
            self.next_block(i, out);
        }
    }

    /// Lockstep advance of many sources in one call: for every `(source,
    /// row)` pair, fills `buf[row*len .. (row+1)*len]` with the next
    /// `len` samples of that source. Rows must reference distinct
    /// sources; row indices address the caller's slot buffer and need
    /// not be contiguous or ordered.
    ///
    /// This is the fleet hot path. Sources that are due a whole-window
    /// refill (the steady state of a lockstep fleet, where every group
    /// member sits at the same window position) are refilled in cohorts
    /// of [`LANES`] through the lane-parallel synthesis kernel
    /// — one batched normal draw, one lane FFT and one strided seam
    /// blend per cohort instead of a full scalar pipeline per source.
    /// Sources mid-window, cohort remainders (`< LANES`), white-noise
    /// groups and `len > block` all take the scalar per-source path.
    /// Both paths are draw-for-draw bit-identical, so callers cannot
    /// observe which one ran (the lane-batching policy of DESIGN.md
    /// §16).
    pub fn advance_rows(&mut self, len: usize, buf: &mut [f64], rows: &[(usize, usize)]) {
        if len == 0 {
            return;
        }
        debug_assert!(
            {
                let mut seen = vec![false; self.sources.len()];
                rows.iter().all(|&(s, _)| !std::mem::replace(&mut seen[s], true))
            },
            "advance_rows requires distinct sources"
        );
        let Some(sp) = self.spectrum.clone() else {
            for &(s, r) in rows {
                self.next_block(s, &mut buf[r * len..(r + 1) * len]);
            }
            return;
        };
        // Partition once: a source is cohort-eligible when this advance
        // is exactly "refill one window, then copy" — the emit loop
        // degenerates to a single refill precisely when the window is
        // exhausted and `len` fits inside a fresh one.
        let mut pending: Vec<(usize, usize)> = Vec::with_capacity(rows.len());
        for &(s, r) in rows {
            let st = &self.sources[s];
            if st.pos >= st.cur.len() && len <= self.block {
                pending.push((s, r));
            } else {
                self.next_block(s, &mut buf[r * len..(r + 1) * len]);
            }
        }
        let mut cohorts = pending.chunks_exact(LANES);
        for cohort in &mut cohorts {
            self.refill_cohort(&sp, cohort);
        }
        for &(s, _) in cohorts.remainder() {
            // Remainder refills scalar — bit-identical by contract.
            crate::stream::refill_source(
                Some(&sp),
                self.sd,
                self.block,
                self.overlap,
                &mut self.sources[s],
                &mut self.scratch,
            );
        }
        for &(s, r) in &pending {
            let st = &mut self.sources[s];
            buf[r * len..(r + 1) * len].copy_from_slice(&st.cur[..len]);
            st.pos = len;
        }
    }

    /// Refills one cohort of sources through the lane-parallel synthesis
    /// kernel: each source draws its own window of normals (own RNG, the
    /// contract order), all windows transform in one lane FFT, and each
    /// source's window/seam buffers are rebuilt with the exact
    /// expressions of the scalar refill — so each source's state ends up
    /// bit-identical to a scalar refill from the same RNG state.
    fn refill_cohort(&mut self, sp: &SharedSpectrum, cohort: &[(usize, usize)]) {
        let _span = obs::span("fgn.stream_refill");
        obs::counter_add(Counter::StreamBlocks, cohort.len() as u64);
        let k = cohort.len();
        let m = sp.m();
        let gauss = self.lane_scratch.gauss_rows(m, k);
        // Each source draws its uniforms from its own generator (so
        // per-source draw accounting matches the scalar path exactly),
        // then one quantile pass covers the whole m×k buffer: the
        // transform is elementwise, so batching across sources is
        // bit-identical to per-source `fill_standard_normal` while
        // amortising the kernel's per-call setup over the cohort.
        for (v, &(s, _)) in cohort.iter().enumerate() {
            self.sources[s].rng.fill_open01(&mut gauss[v * m..(v + 1) * m]);
        }
        vbr_stats::special::norm_quantile_slice(gauss);
        synthesise_real_lanes_into(
            &sp.scales,
            &sp.plan,
            k,
            &mut self.lane_scratch,
            &mut self.lane_buf,
        );
        let (b, l) = (self.block, self.overlap);
        let sd = self.sd;
        let win = &self.lane_buf; // sample t of lane v at win[t*k + v]
        for (v, &(s, _)) in cohort.iter().enumerate() {
            let st = &mut self.sources[s];
            st.pos = 0;
            st.cur.clear();
            st.cur.extend((0..b).map(|t| win[t * k + v] * sd));
            if st.started {
                if l > 0 {
                    obs::counter_add(Counter::SeamCrossFades, 1);
                }
                for i in 0..l {
                    let a = (i + 1) as f64 / (l + 1) as f64;
                    st.cur[i] = (1.0 - a).sqrt() * st.tail[i] + a.sqrt() * st.cur[i];
                }
            }
            st.tail.clear();
            st.tail.extend((b..b + l).map(|t| win[t * k + v] * sd));
            st.started = true;
        }
    }

    /// Exports the dynamic state of one source for checkpointing —
    /// interchangeable with [`crate::FgnStream::export_state`] for the
    /// same-seed independent stream. Panics if `source` is out of
    /// range.
    pub fn export_state(&self, source: usize) -> StreamState {
        self.sources[source].export()
    }

    /// Restores one source from an exported state, with the same full
    /// structural validation as [`crate::CirculantStream`] (nothing is
    /// mutated on error). Panics if `source` is out of range.
    pub fn restore_state(&mut self, source: usize, st: &StreamState) -> Result<(), SnapshotError> {
        self.sources[source].restore(st, self.block, self.overlap, self.spectrum.is_none())
    }
}

/// B independent prefix-exact fGn sources over one shared circulant
/// spectrum; see the [module docs](self) for the memory/bit-identity
/// contract.
#[derive(Debug, Clone)]
pub struct BatchFgn(BatchStream);

impl BatchFgn {
    /// Prefix-exact batch: source `i`'s draws are bit-identical to
    /// `FgnStream::new(hurst, variance, block, seeds[i])`.
    pub fn try_new(
        hurst: f64,
        variance: f64,
        block: usize,
        seeds: &[u64],
    ) -> Result<Self, FgnError> {
        Self::build(hurst, variance, block, None, seeds)
    }

    /// Batch with a caller-chosen seam overlap, matching
    /// `FgnStream::with_overlap` source for source.
    pub fn try_with_overlap(
        hurst: f64,
        variance: f64,
        block: usize,
        overlap: usize,
        seeds: &[u64],
    ) -> Result<Self, FgnError> {
        Self::build(hurst, variance, block, Some(overlap), seeds)
    }

    /// An empty batch group (zero sources) over a validated spectrum —
    /// the serving-layer entry point: admit tenants one at a time with
    /// [`push_source`](Self::push_source) as they arrive. `overlap:
    /// None` selects prefix-exact geometry.
    pub fn try_empty(
        hurst: f64,
        variance: f64,
        block: usize,
        overlap: Option<usize>,
    ) -> Result<Self, FgnError> {
        Self::build(hurst, variance, block, overlap, &[])
    }

    /// Admits one more source (fresh seed, tenant tag) and returns its
    /// index; see [`BatchStream::push_source`].
    pub fn push_source(&mut self, seed: u64, tenant: u64) -> usize {
        self.0.push_source(seed, tenant)
    }

    /// Tenant identity of source `source`.
    pub fn tenant(&self, source: usize) -> u64 {
        self.0.tenant(source)
    }

    /// Re-tags source `source`; see [`BatchStream::set_tenant`].
    pub fn set_tenant(&mut self, source: usize, tenant: u64) {
        self.0.set_tenant(source, tenant);
    }

    fn build(
        hurst: f64,
        variance: f64,
        block: usize,
        overlap: Option<usize>,
        seeds: &[u64],
    ) -> Result<Self, FgnError> {
        if !(hurst > 0.0 && hurst < 1.0) {
            return Err(FgnError::InvalidHurst { hurst, lo: 0.0, hi: 1.0 });
        }
        if !(variance > 0.0 && variance.is_finite()) {
            return Err(FgnError::InvalidVariance { variance });
        }
        check_geometry(block, overlap.unwrap_or(0))?;
        let sd = variance.sqrt();
        if block == 1 {
            return Ok(BatchFgn(BatchStream::from_spectrum(None, sd, 1, 0, seeds)));
        }
        let (m, l) = match overlap {
            None => prefix_exact_geometry(block),
            Some(l) => (next_pow2(2 * (block + l - 1)).max(2), l),
        };
        let lambda = fgn_circulant_spectrum_cached(hurst, m)?;
        Ok(BatchFgn(BatchStream::from_spectrum(Some(lambda), sd, block, l, seeds)))
    }

    /// Number of sources in the batch.
    pub fn sources(&self) -> usize {
        self.0.sources()
    }

    /// Emitted samples per window (per source).
    pub fn block(&self) -> usize {
        self.0.block()
    }

    /// Samples cross-faded at each window seam.
    pub fn overlap(&self) -> usize {
        self.0.overlap()
    }

    /// Shared circulant transform length (`0` on the white-noise path).
    pub fn circulant_len(&self) -> usize {
        self.0.circulant_len()
    }

    /// Next `out.len()` samples of source `source`; see
    /// [`BatchStream::next_block`].
    pub fn next_block(&mut self, source: usize, out: &mut [f64]) {
        self.0.next_block(source, out);
    }

    /// One chunk per source; see [`BatchStream::next_blocks`].
    pub fn next_blocks(&mut self, outs: &mut [&mut [f64]]) {
        self.0.next_blocks(outs);
    }

    /// Lockstep lane-batched advance of many sources; see
    /// [`BatchStream::advance_rows`].
    pub fn advance_rows(&mut self, len: usize, buf: &mut [f64], rows: &[(usize, usize)]) {
        self.0.advance_rows(len, buf, rows);
    }

    /// Per-source checkpoint export; see [`BatchStream::export_state`].
    pub fn export_state(&self, source: usize) -> StreamState {
        self.0.export_state(source)
    }

    /// Per-source checkpoint restore; see
    /// [`BatchStream::restore_state`].
    pub fn restore_state(&mut self, source: usize, st: &StreamState) -> Result<(), SnapshotError> {
        self.0.restore_state(source, st)
    }
}

/// B independent fARIMA(0, d, 0) sources over one shared circulant
/// spectrum — the batch counterpart of [`crate::FarimaStream`], with
/// the same `H ∈ [0.5, 1)` domain and fallible embedding.
#[derive(Debug, Clone)]
pub struct BatchFarima(BatchStream);

impl BatchFarima {
    /// Prefix-exact batch: source `i`'s draws are bit-identical to
    /// `FarimaStream::try_new(hurst, variance, block, seeds[i])`.
    pub fn try_new(
        hurst: f64,
        variance: f64,
        block: usize,
        seeds: &[u64],
    ) -> Result<Self, FgnError> {
        Self::build(hurst, variance, block, None, seeds)
    }

    /// Batch with a caller-chosen seam overlap.
    pub fn try_with_overlap(
        hurst: f64,
        variance: f64,
        block: usize,
        overlap: usize,
        seeds: &[u64],
    ) -> Result<Self, FgnError> {
        Self::build(hurst, variance, block, Some(overlap), seeds)
    }

    /// An empty batch group (zero sources); admit tenants one at a time
    /// with [`push_source`](Self::push_source). See
    /// [`BatchFgn::try_empty`].
    pub fn try_empty(
        hurst: f64,
        variance: f64,
        block: usize,
        overlap: Option<usize>,
    ) -> Result<Self, FgnError> {
        Self::build(hurst, variance, block, overlap, &[])
    }

    /// Admits one more source (fresh seed, tenant tag) and returns its
    /// index; see [`BatchStream::push_source`].
    pub fn push_source(&mut self, seed: u64, tenant: u64) -> usize {
        self.0.push_source(seed, tenant)
    }

    /// Tenant identity of source `source`.
    pub fn tenant(&self, source: usize) -> u64 {
        self.0.tenant(source)
    }

    /// Re-tags source `source`; see [`BatchStream::set_tenant`].
    pub fn set_tenant(&mut self, source: usize, tenant: u64) {
        self.0.set_tenant(source, tenant);
    }

    fn build(
        hurst: f64,
        variance: f64,
        block: usize,
        overlap: Option<usize>,
        seeds: &[u64],
    ) -> Result<Self, FgnError> {
        if !(0.5..1.0).contains(&hurst) {
            return Err(FgnError::InvalidHurst { hurst, lo: 0.5, hi: 1.0 });
        }
        if !(variance > 0.0 && variance.is_finite()) {
            return Err(FgnError::InvalidVariance { variance });
        }
        check_geometry(block, overlap.unwrap_or(0))?;
        let d = crate::acvf::hurst_to_d(hurst);
        let sd = variance.sqrt();
        if block == 1 {
            return Ok(BatchFarima(BatchStream::from_spectrum(None, sd, 1, 0, seeds)));
        }
        let (m, l) = match overlap {
            None => prefix_exact_geometry(block),
            Some(l) => (next_pow2(2 * (block + l - 1)).max(2), l),
        };
        let lambda = farima_circulant_spectrum_cached(d, m)?;
        Ok(BatchFarima(BatchStream::from_spectrum(Some(lambda), sd, block, l, seeds)))
    }

    /// Number of sources in the batch.
    pub fn sources(&self) -> usize {
        self.0.sources()
    }

    /// Emitted samples per window (per source).
    pub fn block(&self) -> usize {
        self.0.block()
    }

    /// Samples cross-faded at each window seam.
    pub fn overlap(&self) -> usize {
        self.0.overlap()
    }

    /// Shared circulant transform length (`0` on the white-noise path).
    pub fn circulant_len(&self) -> usize {
        self.0.circulant_len()
    }

    /// Next `out.len()` samples of source `source`.
    pub fn next_block(&mut self, source: usize, out: &mut [f64]) {
        self.0.next_block(source, out);
    }

    /// One chunk per source; see [`BatchStream::next_blocks`].
    pub fn next_blocks(&mut self, outs: &mut [&mut [f64]]) {
        self.0.next_blocks(outs);
    }

    /// Lockstep lane-batched advance of many sources; see
    /// [`BatchStream::advance_rows`].
    pub fn advance_rows(&mut self, len: usize, buf: &mut [f64], rows: &[(usize, usize)]) {
        self.0.advance_rows(len, buf, rows);
    }

    /// Per-source checkpoint export.
    pub fn export_state(&self, source: usize) -> StreamState {
        self.0.export_state(source)
    }

    /// Per-source checkpoint restore.
    pub fn restore_state(&mut self, source: usize, st: &StreamState) -> Result<(), SnapshotError> {
        self.0.restore_state(source, st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{FarimaStream, FgnStream};

    #[test]
    fn batch_fgn_matches_independent_streams() {
        let seeds = [11u64, 22, 33, 44];
        let mut batch = BatchFgn::try_new(0.8, 2.5, 100, &seeds).unwrap();
        assert_eq!(batch.sources(), 4);
        for (i, &s) in seeds.iter().enumerate() {
            let mut solo = FgnStream::new(0.8, 2.5, 100, s);
            let mut a = vec![0.0; 350];
            let mut b = vec![0.0; 350];
            batch.next_block(i, &mut a);
            solo.next_block(&mut b);
            assert_eq!(a, b, "source {i}");
        }
    }

    #[test]
    fn interleaving_sources_does_not_couple_them() {
        let seeds = [5u64, 6];
        let mut batch = BatchFgn::try_new(0.7, 1.0, 64, &seeds).unwrap();
        // Drain source 0 far ahead, then source 1, then source 0 again.
        let mut a = vec![0.0; 500];
        let mut b = vec![0.0; 130];
        let mut a2 = vec![0.0; 70];
        batch.next_block(0, &mut a);
        batch.next_block(1, &mut b);
        batch.next_block(0, &mut a2);

        let mut solo0 = FgnStream::new(0.7, 1.0, 64, 5);
        let mut solo1 = FgnStream::new(0.7, 1.0, 64, 6);
        let mut e = vec![0.0; 570];
        let mut f = vec![0.0; 130];
        solo0.next_block(&mut e);
        solo1.next_block(&mut f);
        assert_eq!(a, e[..500]);
        assert_eq!(a2, e[500..]);
        assert_eq!(b, f);
    }

    #[test]
    fn batch_overlap_matches_with_overlap_streams() {
        let seeds = [7u64, 8];
        let mut batch = BatchFgn::try_with_overlap(0.85, 3.0, 50, 20, &seeds).unwrap();
        for (i, &s) in seeds.iter().enumerate() {
            let mut solo = FgnStream::with_overlap(0.85, 3.0, 50, 20, s);
            let mut a = vec![0.0; 160];
            let mut b = vec![0.0; 160];
            batch.next_block(i, &mut a);
            solo.next_block(&mut b);
            assert_eq!(a, b, "source {i}");
        }
    }

    #[test]
    fn batch_farima_matches_independent_streams() {
        let seeds = [1u64, 2, 3];
        let mut batch = BatchFarima::try_new(0.75, 1.5, 80, &seeds).unwrap();
        for (i, &s) in seeds.iter().enumerate() {
            let mut solo = FarimaStream::try_new(0.75, 1.5, 80, s).unwrap();
            let mut a = vec![0.0; 200];
            let mut b = vec![0.0; 200];
            batch.next_block(i, &mut a);
            solo.next_block(&mut b);
            assert_eq!(a, b, "source {i}");
        }
    }

    #[test]
    fn white_noise_path_block_one() {
        let seeds = [42u64, 43];
        let mut batch = BatchFgn::try_new(0.8, 4.0, 1, &seeds).unwrap();
        assert_eq!(batch.circulant_len(), 0);
        for (i, &s) in seeds.iter().enumerate() {
            let mut solo = FgnStream::new(0.8, 4.0, 1, s);
            let mut a = vec![0.0; 10];
            let mut b = vec![0.0; 10];
            batch.next_block(i, &mut a);
            solo.next_block(&mut b);
            assert_eq!(a, b, "source {i}");
        }
    }

    #[test]
    fn export_restore_round_trips_per_source() {
        let seeds = [9u64, 10];
        let mut batch = BatchFgn::try_new(0.8, 1.0, 64, &seeds).unwrap();
        let mut warm = vec![0.0; 100];
        batch.next_block(0, &mut warm);
        batch.next_block(1, &mut warm);
        let st0 = batch.export_state(0);
        let mut expect = vec![0.0; 150];
        batch.next_block(0, &mut expect);
        // Restoring into a *fresh* batch must resume bit-identically.
        let mut fresh = BatchFgn::try_new(0.8, 1.0, 64, &seeds).unwrap();
        fresh.restore_state(0, &st0).unwrap();
        let mut got = vec![0.0; 150];
        fresh.next_block(0, &mut got);
        assert_eq!(got, expect);
    }

    #[test]
    fn tenant_identity_round_trips_through_state() {
        // Shard migration: a source pushed with a tenant tag, exported,
        // and restored into a *different* group (different position)
        // must keep both its identity and its draw sequence.
        let mut batch = BatchFgn::try_empty(0.8, 1.0, 64, None).unwrap();
        let i = batch.push_source(77, 0xBEEF);
        assert_eq!(batch.tenant(i), 0xBEEF);
        let mut warm = vec![0.0; 90];
        batch.next_block(i, &mut warm);
        let st = batch.export_state(i);
        assert_eq!(st.tenant, 0xBEEF);
        let mut expect = vec![0.0; 120];
        batch.next_block(i, &mut expect);

        let mut other = BatchFgn::try_empty(0.8, 1.0, 64, None).unwrap();
        other.push_source(1, 1); // occupy index 0 with a stranger
        let j = other.push_source(0, 0); // placeholder seed; state overwrites
        other.restore_state(j, &st).unwrap();
        assert_eq!(other.tenant(j), 0xBEEF, "identity must survive migration");
        let mut got = vec![0.0; 120];
        other.next_block(j, &mut got);
        assert_eq!(got, expect, "draws must survive migration");
    }

    #[test]
    fn pushed_source_matches_constructor_source() {
        let mut ctor = BatchFgn::try_new(0.7, 1.0, 48, &[123]).unwrap();
        let mut grown = BatchFgn::try_empty(0.7, 1.0, 48, None).unwrap();
        grown.push_source(123, 9);
        let mut a = vec![0.0; 200];
        let mut b = vec![0.0; 200];
        ctor.next_block(0, &mut a);
        grown.next_block(0, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn restore_rejects_bad_state() {
        let mut batch = BatchFgn::try_new(0.8, 1.0, 64, &[1]).unwrap();
        let mut warm = vec![0.0; 10];
        batch.next_block(0, &mut warm);
        let mut st = batch.export_state(0);
        st.cur.push(0.0); // wrong window length
        assert!(batch.restore_state(0, &st).is_err());
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(BatchFgn::try_new(1.5, 1.0, 64, &[1]).is_err());
        assert!(BatchFgn::try_new(0.8, -1.0, 64, &[1]).is_err());
        assert!(BatchFgn::try_with_overlap(0.8, 1.0, 4, 9, &[1]).is_err());
        assert!(BatchFarima::try_new(0.3, 1.0, 64, &[1]).is_err());
    }
}
