//! The circulant source engine: B independent fGn/fARIMA sources driven
//! by ONE circulant spectrum, one real-FFT plan, and one synthesis
//! scratch. It is the crate's only circulant engine — a solo
//! [`crate::FgnStream`] or [`crate::FarimaStream`] is a one-source
//! [`BatchStream`].
//!
//! Large-scale simulation (the paper's Sec. V traces, and the mux
//! experiments that superpose tens of sources) needs many *independent*
//! sources with *identical* second-order statistics. Building B solo
//! streams duplicates everything that is per-model rather than
//! per-source: the circulant spectrum (`m` floats each), the FFT plan
//! lookups, and the synthesis scratch. [`BatchStream`] keeps one copy of
//! each and a tiny per-source state, so the marginal cost of another
//! source is `O(block + overlap)` floats of state plus its RNG — not
//! another spectrum.
//!
//! The model family is a value, [`SourceModel`]: fGn and fARIMA(0, d, 0)
//! differ only in the circulant spectrum and the allowed Hurst range,
//! and [`SourceModel::spectrum`] is the one place either is validated.
//!
//! ## Bit-identity contract
//!
//! Each source owns its RNG (seeded independently) and its window/seam
//! buffers; only *stateless* scratch is shared. A source's refill reads
//! and writes nothing outside its own state and the shared scratch it
//! fully overwrites, so draws from a batched source are **bit-identical
//! to the same-seed solo stream, draw for draw**, at any block /
//! overlap geometry and any interleaving of `next_block` calls across
//! sources. Proptests in `crates/fgn/tests/proptests.rs` pin this.
//!
//! ## Refill paths
//!
//! A source synthesises its next window by one of three paths. All
//! three evaluate the same per-window expressions (one shared emit step
//! and the per-lane bit-identical lane FFT of DESIGN.md §16), so callers
//! cannot observe which one ran:
//!
//! - **scalar**: one window of one source;
//! - **lookahead**: while the batch holds exactly one source, [`LANES`]
//!   future windows of it are synthesised in one lane-parallel pass and
//!   consumed one per refill. The RNG state after each window's draws
//!   is grafted back on consumption, so the source's exported state is
//!   the scalar path's at every point. [`BatchStream::push_source`] and
//!   [`BatchStream::restore_state`] drop the lookahead; the next refill
//!   then draws from the source's own (already correct) RNG;
//! - **cohort**: [`BatchStream::advance_rows`] refills full cohorts of
//!   [`LANES`] sources in one lane-parallel pass.
//!
//! ```
//! use vbr_fgn::{BatchStream, FgnStream, SourceModel};
//! let model = SourceModel::Fgn { hurst: 0.8 };
//! let mut batch = BatchStream::try_new(model, 1.0, 64, None, &[1, 2, 3]).unwrap();
//! let mut solo = FgnStream::new(0.8, 1.0, 64, 2);
//! let mut a = vec![0.0; 100];
//! let mut b = vec![0.0; 100];
//! batch.next_block(1, &mut a); // source index 1 == seed 2
//! solo.next_block(&mut b);
//! assert_eq!(a, b);
//! ```

use crate::cache::{farima_circulant_spectrum_cached, fgn_circulant_spectrum_cached};
use crate::davies_harte::{
    synthesise_real_lanes_into, synthesise_real_with, LaneSynthScratch, SpectrumScales,
    SynthScratch,
};
use crate::error::FgnError;
use crate::stream::StreamState;
use std::sync::Arc;
use vbr_fft::{real_plan_for, RealFftPlan, LANES};
use vbr_stats::error::NumericError;
use vbr_stats::obs::{self, Counter};
use vbr_stats::rng::Xoshiro256;
use vbr_stats::snapshot::SnapshotError;

/// Largest circulant transform length a stream or batch accepts: 2²⁴
/// points, a 128 MiB spectrum. The fGn embedding already fails its PSD
/// check at 2²⁵ (DESIGN.md §10) and the largest stream block the
/// workspace runs is 2¹⁴, so the bound refuses nothing useful; it turns
/// a hostile or mistaken geometry (say a snapshot claiming `block =
/// 2⁴⁰`) into a typed error before anything is allocated.
pub const MAX_CIRCULANT_LEN: usize = 1 << 24;

/// Which long-range-dependent Gaussian family a circulant source draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceModel {
    /// Fractional Gaussian noise via circulant embedding (always PSD;
    /// `H ∈ (0, 1)`).
    Fgn {
        /// Hurst parameter.
        hurst: f64,
    },
    /// Fractional ARIMA(0, d, 0) via circulant embedding (`H ∈ [0.5,
    /// 1)`; the embedding can be non-PSD, which rejects the source).
    Farima {
        /// Hurst parameter (`d = H − 1/2`).
        hurst: f64,
    },
}

impl SourceModel {
    /// The Hurst parameter, whichever family.
    pub fn hurst(&self) -> f64 {
        match *self {
            SourceModel::Fgn { hurst } | SourceModel::Farima { hurst } => hurst,
        }
    }

    /// Stable wire tag (0 = fGn, 1 = fARIMA) for packing keys and
    /// snapshots.
    pub fn tag(&self) -> u64 {
        match self {
            SourceModel::Fgn { .. } => 0,
            SourceModel::Farima { .. } => 1,
        }
    }

    /// Inverse of [`tag`](Self::tag); `None` for an unknown tag.
    pub fn from_tag(tag: u64, hurst: f64) -> Option<SourceModel> {
        match tag {
            0 => Some(SourceModel::Fgn { hurst }),
            1 => Some(SourceModel::Farima { hurst }),
            _ => None,
        }
    }

    /// Validates a source configuration and fetches its cached circulant
    /// spectrum — the one check behind every stream and batch
    /// constructor.
    ///
    /// Refuses, with a typed error and before allocating anything: a
    /// Hurst parameter outside the family's range, a variance that is
    /// not finite and positive, `block = 0`, `overlap > block`, and a
    /// circulant longer than [`MAX_CIRCULANT_LEN`] (computed with
    /// checked arithmetic). `overlap: None` selects the prefix-exact
    /// geometry: the batch generator's circulant for `n = block` and the
    /// overlap it yields for free, `(m/2 + 1 − block).min(block)`.
    ///
    /// Returns the seam overlap and the spectrum; the spectrum is `None`
    /// on the `block == 1` white-noise path, where the batch generators
    /// bypass the circulant machinery too.
    #[allow(clippy::type_complexity)]
    pub fn spectrum(
        &self,
        variance: f64,
        block: usize,
        overlap: Option<usize>,
    ) -> Result<(usize, Option<Arc<Vec<f64>>>), FgnError> {
        let hurst = self.hurst();
        let (valid, lo) = match self {
            SourceModel::Fgn { .. } => (hurst > 0.0 && hurst < 1.0, 0.0),
            SourceModel::Farima { .. } => ((0.5..1.0).contains(&hurst), 0.5),
        };
        if !valid {
            return Err(FgnError::InvalidHurst { hurst, lo, hi: 1.0 });
        }
        if !(variance > 0.0 && variance.is_finite()) {
            return Err(FgnError::InvalidVariance { variance });
        }
        if block == 0 {
            return Err(NumericError::OutOfRange {
                what: "stream block size (must be >= 1)",
                value: 0.0,
                lo: 1.0,
                hi: f64::INFINITY,
            }
            .into());
        }
        let extra = overlap.unwrap_or(0);
        if extra > block {
            return Err(NumericError::OutOfRange {
                what: "stream overlap (must be <= block)",
                value: extra as f64,
                lo: 0.0,
                hi: block as f64,
            }
            .into());
        }
        if block == 1 {
            return Ok((0, None));
        }
        let m = block
            .checked_add(extra)
            .and_then(|span| (span - 1).checked_mul(2))
            .and_then(usize::checked_next_power_of_two)
            .filter(|&m| m <= MAX_CIRCULANT_LEN)
            .ok_or(NumericError::OutOfRange {
                what: "circulant length 2(block + overlap - 1), rounded up to a power of two",
                value: 2.0 * (block as f64 + extra as f64 - 1.0),
                lo: 2.0,
                hi: MAX_CIRCULANT_LEN as f64 + 1.0,
            })?;
        let overlap = overlap.unwrap_or((m / 2 + 1 - block).min(block));
        let lambda = match self {
            SourceModel::Fgn { .. } => fgn_circulant_spectrum_cached(hurst, m)?,
            SourceModel::Farima { .. } => {
                farima_circulant_spectrum_cached(crate::acvf::hurst_to_d(hurst), m)?
            }
        };
        Ok((overlap, Some(lambda)))
    }
}

/// Per-source dynamic state: the RNG, the window being emitted, the
/// seam tail, and the emit position. Everything that differs between
/// two sources driven by the same spectrum lives here.
#[derive(Debug, Clone)]
struct SourceState {
    rng: Xoshiro256,
    /// The `block` samples currently being emitted.
    cur: Vec<f64>,
    /// Exact tail of the previous window, cross-faded into the next.
    tail: Vec<f64>,
    pos: usize,
    started: bool,
    /// Owner identity carried through export/restore so a source moved
    /// between batch groups (shard migration) keeps its tenant, not just
    /// its positional index. `0` unless assigned.
    tenant: u64,
}

impl SourceState {
    fn new(seed: u64, block: usize, overlap: usize) -> Self {
        SourceState {
            rng: Xoshiro256::seed_from_u64(seed),
            cur: Vec::with_capacity(block),
            tail: Vec::with_capacity(overlap),
            pos: 0,
            started: false,
            tenant: 0,
        }
    }

    fn export(&self) -> StreamState {
        StreamState {
            rng: self.rng.state(),
            cur: self.cur.clone(),
            tail: self.tail.clone(),
            pos: self.pos,
            started: self.started,
            tenant: self.tenant,
        }
    }

    /// Grafts an exported state onto this source after validating every
    /// structural invariant against the owning batch's geometry
    /// (`block`, `overlap`, and whether it is the white-noise path).
    /// Nothing is mutated until everything checks out.
    fn restore(
        &mut self,
        st: &StreamState,
        block: usize,
        overlap: usize,
        white_noise: bool,
    ) -> Result<(), SnapshotError> {
        let rng = Xoshiro256::from_state(st.rng)
            .ok_or(SnapshotError::Invalid { what: "all-zero rng state" })?;
        if !(st.cur.is_empty() || st.cur.len() == block) {
            return Err(SnapshotError::Invalid { what: "window length != stream block" });
        }
        if !(st.tail.is_empty() || st.tail.len() == overlap) {
            return Err(SnapshotError::Invalid { what: "tail length != stream overlap" });
        }
        if st.pos > st.cur.len() {
            return Err(SnapshotError::Invalid { what: "emit position past window end" });
        }
        if white_noise && (st.started || !st.tail.is_empty()) {
            return Err(SnapshotError::Invalid { what: "seam state on a white-noise stream" });
        }
        if !white_noise && !st.started {
            // `started` flips on the first circulant refill; the only
            // pre-start state is the empty one. (White-noise streams
            // never set it and were handled above.)
            if !(st.cur.is_empty() && st.tail.is_empty() && st.pos == 0) {
                return Err(SnapshotError::Invalid { what: "window present before first refill" });
            }
        }
        if st.cur.iter().chain(st.tail.iter()).any(|v| !v.is_finite()) {
            return Err(SnapshotError::Invalid { what: "non-finite sample in stream state" });
        }
        self.rng = rng;
        self.cur.clear();
        self.cur.extend_from_slice(&st.cur);
        self.tail.clear();
        self.tail.extend_from_slice(&st.tail);
        self.pos = st.pos;
        self.started = st.started;
        self.tenant = st.tenant;
        Ok(())
    }
}

/// Everything a refill needs that is a pure function of the circulant
/// spectrum: the precomputed per-bin amplitudes and the real-FFT plan.
/// Built once per batch, so the hot loop never touches the plan cache's
/// mutex or recomputes `√(λ_k/2m)`.
#[derive(Debug, Clone)]
struct SharedSpectrum {
    scales: SpectrumScales,
    plan: Arc<RealFftPlan>,
}

/// The lookahead of a one-source batch (see the module docs): the RNG
/// state after each window of the last lane pass, and the next
/// unconsumed window. Empty when `next >= rng_after.len()`.
#[derive(Debug, Clone, Default)]
struct Lookahead {
    rng_after: Vec<Xoshiro256>,
    next: usize,
}

/// Rebuilds a source's window and seam tail from freshly synthesised
/// unit-scale samples — sample `t` at `win[t * stride + lane]` — and
/// cross-fades the previous tail into the new head (the power-preserving
/// blend of the [`crate::stream`] module docs, which keeps the `N(0, σ²)`
/// marginal exact). The one emit step of the scalar (`stride` 1),
/// lookahead and cohort refills.
#[inline]
fn emit_window(
    st: &mut SourceState,
    win: &[f64],
    stride: usize,
    lane: usize,
    sd: f64,
    block: usize,
    overlap: usize,
) {
    let (b, l) = (block, overlap);
    st.pos = 0;
    st.cur.clear();
    st.cur.extend((0..b).map(|t| win[t * stride + lane] * sd));
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
    st.tail.extend((b..b + l).map(|t| win[t * stride + lane] * sd));
    st.started = true;
}

/// One lane-parallel synthesis pass over [`LANES`] windows: `fill(v,
/// row)` draws window `v`'s `m` uniforms in the contract order, one
/// quantile pass turns all of them into normals (elementwise, so bit-identical to
/// per-window `fill_standard_normal` while amortising the kernel's setup
/// over the pass), and one lane FFT writes the windows lane-interleaved
/// into `out`.
fn lane_pass(
    sp: &SharedSpectrum,
    scratch: &mut LaneSynthScratch,
    out: &mut Vec<f64>,
    mut fill: impl FnMut(usize, &mut [f64]),
) {
    let m = sp.scales.m();
    let gauss = scratch.gauss_rows(m, LANES);
    for (v, row) in gauss.chunks_exact_mut(m).enumerate() {
        fill(v, row);
    }
    vbr_stats::special::norm_quantile_slice(gauss);
    synthesise_real_lanes_into(&sp.scales, &sp.plan, LANES, scratch, out);
}

/// The circulant source engine: B sources over one spectrum. See the
/// [module docs](self) for the bit-identity contract and refill paths.
///
/// All buffers are allocated on first use and reused every window, so
/// steady-state generation allocates nothing.
#[derive(Debug, Clone)]
pub struct BatchStream {
    sd: f64,
    block: usize,
    overlap: usize,
    /// `None` is the degenerate `block == 1` white-noise path.
    spectrum: Option<SharedSpectrum>,
    sources: Vec<SourceState>,
    /// Scalar-refill workspace (synthesis scratch and the `m` samples of
    /// the window) — fully overwritten by every refill, so sharing it
    /// cannot couple sources.
    synth: SynthScratch,
    win: Vec<f64>,
    /// Lane-parallel workspace of the lookahead and cohort refills, and
    /// the lane-interleaved window samples of the last lane pass.
    lane_scratch: LaneSynthScratch,
    lane_buf: Vec<f64>,
    lookahead: Lookahead,
}

impl BatchStream {
    /// A batch of `seeds.len()` sources of `model` (an empty `seeds`
    /// gives an empty group to grow with
    /// [`push_source`](Self::push_source)). Source `i`'s draws are
    /// bit-identical to the solo stream with seed `seeds[i]` and the same
    /// model, variance and geometry. `overlap: None` selects the
    /// prefix-exact geometry; see [`SourceModel::spectrum`] for every
    /// refusal.
    pub fn try_new(
        model: SourceModel,
        variance: f64,
        block: usize,
        overlap: Option<usize>,
        seeds: &[u64],
    ) -> Result<Self, FgnError> {
        let (overlap, lambda) = model.spectrum(variance, block, overlap)?;
        let spectrum = lambda.map(|l| SharedSpectrum {
            scales: SpectrumScales::new(&l),
            plan: real_plan_for(l.len()),
        });
        Ok(BatchStream {
            sd: variance.sqrt(),
            block,
            overlap,
            spectrum,
            sources: seeds.iter().map(|&s| SourceState::new(s, block, overlap)).collect(),
            synth: SynthScratch::new(),
            win: Vec::new(),
            lane_scratch: LaneSynthScratch::default(),
            lane_buf: Vec::new(),
            lookahead: Lookahead::default(),
        })
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
        let mut st = SourceState::new(seed, self.block, self.overlap);
        st.tenant = tenant;
        self.sources.push(st);
        self.lookahead.rng_after.clear();
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
        self.spectrum.as_ref().map_or(0, |sp| sp.scales.m())
    }

    /// Synthesises source `s`'s next window: white noise on the
    /// `block == 1` path, the lookahead while the batch holds one
    /// source, the scalar path otherwise.
    fn refill(&mut self, s: usize) {
        let _span = obs::span("fgn.stream_refill");
        obs::counter_add(Counter::StreamBlocks, 1);
        let (sd, b, l) = (self.sd, self.block, self.overlap);
        let solo = self.sources.len() == 1;
        let st = &mut self.sources[s];
        let Some(sp) = &self.spectrum else {
            // Batch-draw the block through the vectorized quantile
            // kernel, then scale: per-element bit-identical to the
            // batch generators' `n == 1` draws.
            st.pos = 0;
            st.cur.clear();
            st.cur.resize(b, 0.0);
            st.rng.fill_standard_normal(&mut st.cur);
            for x in &mut st.cur {
                *x *= sd;
            }
            return;
        };
        if !solo {
            synthesise_real_with(&sp.scales, &sp.plan, &mut st.rng, &mut self.synth, &mut self.win);
            emit_window(st, &self.win, 1, 0, sd, b, l);
            return;
        }
        let ahead = &mut self.lookahead;
        if ahead.next >= ahead.rng_after.len() {
            // Draws are sequential per window in the contract order, so
            // the RNG stream is exactly the scalar path's.
            ahead.rng_after.clear();
            lane_pass(sp, &mut self.lane_scratch, &mut self.lane_buf, |_, row| {
                st.rng.fill_open01(row);
                ahead.rng_after.push(st.rng.clone());
            });
            ahead.next = 0;
        }
        let w = ahead.next;
        emit_window(st, &self.lane_buf, LANES, w, sd, b, l);
        st.rng = ahead.rng_after[w].clone();
        ahead.next += 1;
    }

    /// Fills `out` with the next `out.len()` samples of source
    /// `source`. Sources advance independently: interleaving calls
    /// across sources in any order yields the same per-source draw
    /// sequences. Panics if `source ≥ self.sources()`.
    pub fn next_block(&mut self, source: usize, out: &mut [f64]) {
        let mut filled = 0;
        while filled < out.len() {
            if self.sources[source].pos >= self.sources[source].cur.len() {
                self.refill(source);
            }
            let st = &mut self.sources[source];
            let take = (out.len() - filled).min(st.cur.len() - st.pos);
            out[filled..filled + take].copy_from_slice(&st.cur[st.pos..st.pos + take]);
            st.pos += take;
            filled += take;
        }
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
    /// of [`LANES`] through the lane-parallel synthesis kernel — one
    /// batched normal draw, one lane FFT and one strided seam blend per
    /// cohort instead of a full scalar pipeline per source. Sources
    /// mid-window, cohort remainders (`< LANES`), white-noise groups and
    /// `len > block` take [`next_block`](Self::next_block)'s refill. All
    /// paths are draw-for-draw bit-identical, so callers cannot observe
    /// which one ran (the lane-batching policy of DESIGN.md §16).
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
        // Partition once: a source is cohort-eligible when this advance
        // is exactly "refill one window, then copy" — the emit loop
        // degenerates to a single refill precisely when the window is
        // exhausted and `len` fits inside a fresh one.
        let mut pending: Vec<(usize, usize)> = Vec::with_capacity(rows.len());
        for &(s, r) in rows {
            let st = &self.sources[s];
            if self.spectrum.is_some() && st.pos >= st.cur.len() && len <= self.block {
                pending.push((s, r));
            } else {
                self.next_block(s, &mut buf[r * len..(r + 1) * len]);
            }
        }
        let mut cohorts = pending.chunks_exact(LANES);
        for cohort in &mut cohorts {
            self.refill_cohort(cohort);
        }
        for &(s, _) in cohorts.remainder() {
            self.refill(s);
        }
        for &(s, r) in &pending {
            let st = &mut self.sources[s];
            buf[r * len..(r + 1) * len].copy_from_slice(&st.cur[..len]);
            st.pos = len;
        }
    }

    /// Refills one cohort of [`LANES`] distinct sources in one lane
    /// pass: each source draws its own window of uniforms (own RNG, the
    /// contract order), so each source's state ends up bit-identical to
    /// a scalar refill from the same RNG state.
    fn refill_cohort(&mut self, cohort: &[(usize, usize)]) {
        let _span = obs::span("fgn.stream_refill");
        obs::counter_add(Counter::StreamBlocks, cohort.len() as u64);
        let sp = self.spectrum.as_ref().expect("cohorts form on the circulant path only");
        let sources = &mut self.sources;
        lane_pass(sp, &mut self.lane_scratch, &mut self.lane_buf, |v, row| {
            sources[cohort[v].0].rng.fill_open01(row);
        });
        for (v, &(s, _)) in cohort.iter().enumerate() {
            let st = &mut self.sources[s];
            emit_window(st, &self.lane_buf, LANES, v, self.sd, self.block, self.overlap);
        }
    }

    /// Exports the dynamic state of one source for checkpointing —
    /// interchangeable with [`crate::FgnStream::export_state`] for the
    /// same-seed solo stream. Panics if `source` is out of range.
    pub fn export_state(&self, source: usize) -> StreamState {
        self.sources[source].export()
    }

    /// Restores one source from an exported state. Every structural
    /// invariant is validated before anything is mutated, so a hostile
    /// state leaves the batch untouched: buffer lengths must match this
    /// batch's geometry, the position must lie within the window, all
    /// samples must be finite, and the RNG state must not be the
    /// degenerate all-zero word. Panics if `source` is out of range.
    pub fn restore_state(&mut self, source: usize, st: &StreamState) -> Result<(), SnapshotError> {
        self.sources[source].restore(st, self.block, self.overlap, self.spectrum.is_none())?;
        // The lookahead was drawn from the pre-restore RNG stream; drop
        // it so the next refill draws from the restored state.
        self.lookahead.rng_after.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{FarimaStream, FgnStream};

    fn fgn(hurst: f64) -> SourceModel {
        SourceModel::Fgn { hurst }
    }

    #[test]
    fn batch_fgn_matches_independent_streams() {
        let seeds = [11u64, 22, 33, 44];
        let mut batch = BatchStream::try_new(fgn(0.8), 2.5, 100, None, &seeds).unwrap();
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
        let mut batch = BatchStream::try_new(fgn(0.7), 1.0, 64, None, &seeds).unwrap();
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
        let mut batch = BatchStream::try_new(fgn(0.85), 3.0, 50, Some(20), &seeds).unwrap();
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
        let model = SourceModel::Farima { hurst: 0.75 };
        let mut batch = BatchStream::try_new(model, 1.5, 80, None, &seeds).unwrap();
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
        let mut batch = BatchStream::try_new(fgn(0.8), 4.0, 1, None, &seeds).unwrap();
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
        let mut batch = BatchStream::try_new(fgn(0.8), 1.0, 64, None, &seeds).unwrap();
        let mut warm = vec![0.0; 100];
        batch.next_block(0, &mut warm);
        batch.next_block(1, &mut warm);
        let st0 = batch.export_state(0);
        let mut expect = vec![0.0; 150];
        batch.next_block(0, &mut expect);
        // Restoring into a *fresh* batch must resume bit-identically.
        let mut fresh = BatchStream::try_new(fgn(0.8), 1.0, 64, None, &seeds).unwrap();
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
        let mut batch = BatchStream::try_new(fgn(0.8), 1.0, 64, None, &[]).unwrap();
        let i = batch.push_source(77, 0xBEEF);
        assert_eq!(batch.tenant(i), 0xBEEF);
        let mut warm = vec![0.0; 90];
        batch.next_block(i, &mut warm);
        let st = batch.export_state(i);
        assert_eq!(st.tenant, 0xBEEF);
        let mut expect = vec![0.0; 120];
        batch.next_block(i, &mut expect);

        let mut other = BatchStream::try_new(fgn(0.8), 1.0, 64, None, &[]).unwrap();
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
        let mut ctor = BatchStream::try_new(fgn(0.7), 1.0, 48, None, &[123]).unwrap();
        let mut grown = BatchStream::try_new(fgn(0.7), 1.0, 48, None, &[]).unwrap();
        grown.push_source(123, 9);
        let mut a = vec![0.0; 200];
        let mut b = vec![0.0; 200];
        ctor.next_block(0, &mut a);
        grown.next_block(0, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn restore_rejects_bad_state() {
        let mut batch = BatchStream::try_new(fgn(0.8), 1.0, 64, None, &[1]).unwrap();
        let mut warm = vec![0.0; 10];
        batch.next_block(0, &mut warm);
        let mut st = batch.export_state(0);
        st.cur.push(0.0); // wrong window length
        assert!(batch.restore_state(0, &st).is_err());
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(BatchStream::try_new(fgn(1.5), 1.0, 64, None, &[1]).is_err());
        assert!(BatchStream::try_new(fgn(0.8), -1.0, 64, None, &[1]).is_err());
        assert!(BatchStream::try_new(fgn(0.8), 1.0, 4, Some(9), &[1]).is_err());
        let farima = SourceModel::Farima { hurst: 0.3 };
        assert!(BatchStream::try_new(farima, 1.0, 64, None, &[1]).is_err());
    }
}
