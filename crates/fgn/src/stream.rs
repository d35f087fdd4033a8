//! Bounded-memory block streaming of LRD Gaussian sample paths.
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

use crate::cache::{farima_circulant_spectrum_cached, fgn_circulant_spectrum_cached};
use crate::davies_harte::{
    synthesise_real_into, synthesise_real_lanes_into, synthesise_real_with, LaneSynthScratch,
    SpectrumScales, SynthScratch,
};
use crate::error::FgnError;
use std::sync::Arc;
use vbr_fft::{next_pow2, real_plan_for, RealFftPlan, LANES};
use vbr_stats::obs::{self, Counter};
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

/// Validates a block/overlap pair (`block ≥ 1`, `overlap ≤ block`).
pub(crate) fn check_geometry(block: usize, overlap: usize) -> Result<(), FgnError> {
    if block == 0 {
        return Err(vbr_stats::error::NumericError::OutOfRange {
            what: "stream block size (must be >= 1)",
            value: 0.0,
            lo: 1.0,
            hi: f64::INFINITY,
        }
        .into());
    }
    if overlap > block {
        return Err(vbr_stats::error::NumericError::OutOfRange {
            what: "stream overlap (must be <= block)",
            value: overlap as f64,
            lo: 0.0,
            hi: block as f64,
        }
        .into());
    }
    Ok(())
}

/// Per-source dynamic state of a circulant stream: the RNG, the window
/// being emitted, the seam tail, and the emit position. Everything that
/// differs between two sources driven by the same spectrum lives here —
/// the batch engine ([`crate::batch::BatchStream`]) holds one of these
/// per source over a *shared* spectrum and scratch, which is what makes
/// batched draws bit-identical to independent streams by construction.
#[derive(Debug, Clone)]
pub(crate) struct SourceState {
    pub(crate) rng: Xoshiro256,
    /// The `block` samples currently being emitted.
    pub(crate) cur: Vec<f64>,
    /// Exact tail of the previous window, cross-faded into the next.
    pub(crate) tail: Vec<f64>,
    pub(crate) pos: usize,
    pub(crate) started: bool,
    /// Owner identity carried through export/restore so a source moved
    /// between batch groups (shard migration) keeps its tenant, not just
    /// its positional index. `0` for solo streams.
    pub(crate) tenant: u64,
}

impl SourceState {
    pub(crate) fn new(rng: Xoshiro256, block: usize, overlap: usize) -> Self {
        SourceState {
            rng,
            cur: Vec::with_capacity(block),
            tail: Vec::with_capacity(overlap),
            pos: 0,
            started: false,
            tenant: 0,
        }
    }

    /// Exports the dynamic state for checkpointing.
    pub(crate) fn export(&self) -> StreamState {
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
    /// structural invariant against the owning stream's geometry
    /// (`block`, `overlap`, and whether it is the white-noise path).
    /// Nothing is mutated until everything checks out.
    pub(crate) fn restore(
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

/// Window-synthesis workspace shared across refills (and, in the batch
/// engine, across *sources*): the real synthesis scratch plus the `m`
/// real samples of the current circulant window.
#[derive(Debug, Clone, Default)]
pub(crate) struct WindowScratch {
    pub(crate) synth: SynthScratch,
    /// The `m` real samples of the freshly synthesised window.
    pub(crate) win: Vec<f64>,
}

/// Everything a refill needs that is a pure function of the circulant
/// spectrum: the precomputed per-bin amplitudes and the real-FFT plan.
/// Built once at stream construction, shared (`Arc`) across a batch
/// group, so the hot loop never touches the plan cache's mutex or
/// recomputes `√(λ_k/2m)`.
#[derive(Debug, Clone)]
pub(crate) struct SharedSpectrum {
    pub(crate) scales: Arc<SpectrumScales>,
    pub(crate) plan: Arc<RealFftPlan>,
}

impl SharedSpectrum {
    pub(crate) fn new(lambda: &[f64]) -> Self {
        SharedSpectrum {
            scales: Arc::new(SpectrumScales::new(lambda)),
            plan: real_plan_for(lambda.len()),
        }
    }

    /// Circulant transform length `m`.
    pub(crate) fn m(&self) -> usize {
        self.scales.m()
    }
}

/// Window lookahead of a solo stream: [`LANES`] future circulant
/// windows synthesised in one lane-parallel pass, then consumed one per
/// refill. The RNG state snapshot taken after each window's draws is
/// grafted back on consumption, so export/restore observes exactly the
/// scalar stream's state at every point — lookahead is invisible to the
/// checkpoint format and to every emitted bit (window `w`'s samples
/// depend only on window `w`'s draws, and the lane FFT is bit-identical
/// per lane).
#[derive(Debug, Clone, Default)]
struct Prefetch {
    /// Lane-interleaved window samples at unit scale: sample `t` of
    /// window `w` at `buf[t*LANES + w]`.
    buf: Vec<f64>,
    /// Next unconsumed window; `next >= rng_after.len()` means the
    /// lookahead is empty.
    next: usize,
    /// RNG state after each window's `m` draws — one per window of the
    /// current batch, none when nothing is prefetched.
    rng_after: Vec<Xoshiro256>,
    scratch: LaneSynthScratch,
}

impl Prefetch {
    fn clear(&mut self) {
        self.rng_after.clear();
    }
}

/// Synthesises the next window of one source, cross-fading the seam.
/// This is the engine step shared verbatim by [`CirculantStream`] and
/// the batch engine — one source's refill depends only on its own
/// [`SourceState`], so interleaving sources over a shared scratch
/// cannot change any output bit.
pub(crate) fn refill_source(
    spectrum: Option<&SharedSpectrum>,
    sd: f64,
    block: usize,
    overlap: usize,
    st: &mut SourceState,
    scratch: &mut WindowScratch,
) {
    let _span = obs::span("fgn.stream_refill");
    obs::counter_add(Counter::StreamBlocks, 1);
    st.pos = 0;
    let Some(spectrum) = spectrum else {
        // White-noise path: batch-draw the block through the
        // vectorized quantile kernel, then scale. Per-element values
        // are bit-identical to the old per-sample loop.
        st.cur.clear();
        st.cur.resize(block, 0.0);
        st.rng.fill_standard_normal(&mut st.cur);
        for x in &mut st.cur {
            *x *= sd;
        }
        return;
    };
    synthesise_real_with(
        &spectrum.scales,
        &spectrum.plan,
        &mut st.rng,
        &mut scratch.synth,
        &mut scratch.win,
    );
    let (b, l) = (block, overlap);
    st.cur.clear();
    st.cur.extend(scratch.win[..b].iter().map(|x| x * sd));
    if st.started {
        // Power-preserving cross-fade against the previous tail:
        // weights sum to one in *variance*, so the N(0, σ²) marginal
        // is preserved exactly at every blended sample.
        if l > 0 {
            obs::counter_add(Counter::SeamCrossFades, 1);
        }
        for i in 0..l {
            let a = (i + 1) as f64 / (l + 1) as f64;
            st.cur[i] = (1.0 - a).sqrt() * st.tail[i] + a.sqrt() * st.cur[i];
        }
    }
    st.tail.clear();
    st.tail.extend(scratch.win[b..b + l].iter().map(|x| x * sd));
    st.started = true;
}

/// Fills `out` with the next `out.len()` samples of one source — the
/// chunked emit loop shared by [`CirculantStream::next_block`] and the
/// batch engine.
pub(crate) fn next_block_source(
    spectrum: Option<&SharedSpectrum>,
    sd: f64,
    block: usize,
    overlap: usize,
    st: &mut SourceState,
    scratch: &mut WindowScratch,
    out: &mut [f64],
) {
    let mut filled = 0;
    while filled < out.len() {
        if st.pos >= st.cur.len() {
            refill_source(spectrum, sd, block, overlap, st, scratch);
        }
        let take = (out.len() - filled).min(st.cur.len() - st.pos);
        out[filled..filled + take].copy_from_slice(&st.cur[st.pos..st.pos + take]);
        st.pos += take;
        filled += take;
    }
}

/// The engine shared by [`FgnStream`] and [`FarimaStream`]: an infinite
/// iterator over overlapped circulant windows of a fixed spectrum.
///
/// All buffers (the synthesis scratch, `cur`, `tail`) are allocated once
/// at construction and reused every window, so steady-state generation
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct CirculantStream {
    sd: f64,
    block: usize,
    overlap: usize,
    /// `None` is the degenerate `block == 1` white-noise path (matching
    /// the batch generators' `n == 1` special case, where the circulant
    /// machinery is bypassed entirely).
    spectrum: Option<SharedSpectrum>,
    state: SourceState,
    scratch: WindowScratch,
    /// Lane-parallel window lookahead (spectrum streams only). Costs
    /// `O(LANES · m)` extra floats per stream — the one place the
    /// engine trades memory for lane parallelism on a solo source.
    prefetch: Prefetch,
}

impl CirculantStream {
    /// Builds a stream over an explicit circulant spectrum (`None` for
    /// the white-noise path). Geometry must already be validated; the
    /// spectrum window must cover `block + overlap` samples
    /// (`lambda.len()/2 + 1 ≥ block + overlap`).
    fn from_spectrum(
        spectrum: Option<Arc<Vec<f64>>>,
        sd: f64,
        block: usize,
        overlap: usize,
        rng: Xoshiro256,
    ) -> Self {
        if let Some(lambda) = &spectrum {
            debug_assert!(lambda.len() / 2 + 1 >= block + overlap);
        }
        CirculantStream {
            sd,
            block,
            overlap,
            spectrum: spectrum.map(|l| SharedSpectrum::new(&l)),
            state: SourceState::new(rng, block, overlap),
            scratch: WindowScratch::default(),
            prefetch: Prefetch::default(),
        }
    }

    /// Emitted samples per window.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Samples cross-faded at each window seam.
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// Circulant transform length per window (`0` on the white-noise
    /// path) — the memory scale of the stream.
    pub fn circulant_len(&self) -> usize {
        self.spectrum.as_ref().map_or(0, |sp| sp.m())
    }

    /// Synthesises the next window, consuming the lane-parallel
    /// lookahead (and refilling it [`LANES`] windows at a time) on the
    /// spectrum path. Emitted bits and the externally visible state
    /// (RNG position, window, tail) are identical to the scalar
    /// [`refill_source`] at every refill — see [`Prefetch`].
    fn refill(&mut self) {
        let Some(sp) = &self.spectrum else {
            refill_source(
                None,
                self.sd,
                self.block,
                self.overlap,
                &mut self.state,
                &mut self.scratch,
            );
            return;
        };
        let _span = obs::span("fgn.stream_refill");
        obs::counter_add(Counter::StreamBlocks, 1);
        let st = &mut self.state;
        let pf = &mut self.prefetch;
        st.pos = 0;
        let m = sp.m();
        if pf.next >= pf.rng_after.len() {
            // Synthesise the next LANES windows in one pass. Draws are
            // sequential per window in the contract order, so the RNG
            // stream is exactly the scalar stream's.
            pf.rng_after.clear();
            let gauss = pf.scratch.gauss_rows(m, LANES);
            for w in 0..LANES {
                // Uniforms only here; the RNG snapshot is taken at the
                // same stream position either way since the quantile
                // transform consumes no draws. One elementwise quantile
                // pass below then covers all k windows — bit-identical
                // to per-window `fill_standard_normal`, with the
                // kernel's setup cost amortised over the prefetch.
                st.rng.fill_open01(&mut gauss[w * m..(w + 1) * m]);
                pf.rng_after.push(st.rng.clone());
            }
            vbr_stats::special::norm_quantile_slice(gauss);
            synthesise_real_lanes_into(&sp.scales, &sp.plan, LANES, &mut pf.scratch, &mut pf.buf);
            pf.next = 0;
        }
        let w = pf.next;
        let (b, l) = (self.block, self.overlap);
        let sd = self.sd;
        // Sample `t` of window `w` lives at `buf[t*LANES + w]`; the strided
        // reads below apply the very expressions of the scalar refill.
        let win = &pf.buf;
        st.cur.clear();
        st.cur.extend((0..b).map(|t| win[t * LANES + w] * sd));
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
        st.tail.extend((b..b + l).map(|t| win[t * LANES + w] * sd));
        st.started = true;
        // Graft back the post-window RNG snapshot: the stream's state is
        // now indistinguishable from having synthesised windows one at a
        // time (export/restore relies on this).
        st.rng = pf.rng_after[w].clone();
        pf.next += 1;
    }

    /// Fills `out` with the next `out.len()` samples of the stream —
    /// the chunked equivalent of calling [`Iterator::next`] in a loop,
    /// without per-sample dispatch.
    pub fn next_block(&mut self, out: &mut [f64]) {
        let mut filled = 0;
        while filled < out.len() {
            if self.state.pos >= self.state.cur.len() {
                self.refill();
            }
            let st = &mut self.state;
            let take = (out.len() - filled).min(st.cur.len() - st.pos);
            out[filled..filled + take].copy_from_slice(&st.cur[st.pos..st.pos + take]);
            st.pos += take;
            filled += take;
        }
    }
}

impl Iterator for CirculantStream {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.state.pos >= self.state.cur.len() {
            self.refill();
        }
        let v = self.state.cur[self.state.pos];
        self.state.pos += 1;
        Some(v)
    }
}

/// The dynamic (per-run) state of a circulant stream, exportable for
/// checkpoint/restore.
///
/// Configuration — Hurst, variance, block, overlap, and hence the
/// circulant spectrum — is deliberately *not* part of the state: a
/// restore target is rebuilt from its own configuration (whose
/// parameter hash the snapshot envelope guards) and then has this
/// dynamic state grafted on via [`CirculantStream::restore_state`].
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
    /// happens in [`CirculantStream::restore_state`].
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

impl CirculantStream {
    /// Exports the dynamic state (RNG, current window, seam tail,
    /// position) for checkpointing. `O(block + overlap)` copied floats.
    pub fn export_state(&self) -> StreamState {
        self.state.export()
    }

    /// Grafts an exported state onto this (same-configuration) stream.
    ///
    /// Every structural invariant is validated before anything is
    /// mutated, so a hostile state leaves the stream untouched:
    /// buffer lengths must match this stream's geometry, the position
    /// must lie within the window, all samples must be finite, and the
    /// RNG state must not be the degenerate all-zero word.
    pub fn restore_state(&mut self, st: &StreamState) -> Result<(), SnapshotError> {
        self.state.restore(st, self.block, self.overlap, self.spectrum.is_none())?;
        // The lookahead was synthesised from the pre-restore RNG stream;
        // drop it so the next refill draws from the restored state.
        self.prefetch.clear();
        Ok(())
    }
}

impl FgnStream {
    /// Exports the dynamic state for checkpointing; see
    /// [`CirculantStream::export_state`].
    pub fn export_state(&self) -> StreamState {
        self.0.export_state()
    }

    /// Restores an exported state; see
    /// [`CirculantStream::restore_state`].
    pub fn restore_state(&mut self, st: &StreamState) -> Result<(), SnapshotError> {
        self.0.restore_state(st)
    }
}

impl FarimaStream {
    /// Exports the dynamic state for checkpointing; see
    /// [`CirculantStream::export_state`].
    pub fn export_state(&self) -> StreamState {
        self.0.export_state()
    }

    /// Restores an exported state; see
    /// [`CirculantStream::restore_state`].
    pub fn restore_state(&mut self, st: &StreamState) -> Result<(), SnapshotError> {
        self.0.restore_state(st)
    }
}

impl BlockSource for CirculantStream {
    fn next_block(&mut self, out: &mut [f64]) {
        CirculantStream::next_block(self, out);
    }
}

impl BlockSource for FgnStream {
    fn next_block(&mut self, out: &mut [f64]) {
        self.0.next_block(out);
    }
}

impl BlockSource for FarimaStream {
    fn next_block(&mut self, out: &mut [f64]) {
        self.0.next_block(out);
    }
}

/// Prefix-exact geometry: the circulant of the batch call with `n =
/// block`, plus whatever exact overlap it yields for free. Returns
/// `(m, overlap)`; `block` must be `≥ 2`.
pub(crate) fn prefix_exact_geometry(block: usize) -> (usize, usize) {
    let m = next_pow2(2 * (block - 1)).max(2);
    let exact_run = m / 2 + 1;
    (m, (exact_run - block).min(block))
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
pub struct FgnStream(CirculantStream);

impl FgnStream {
    /// Prefix-exact stream: the first `block` samples are bit-identical
    /// to `DaviesHarte::new(hurst, variance).generate(block, seed)`.
    /// Panics on invalid parameters; see [`try_new`](Self::try_new).
    pub fn new(hurst: f64, variance: f64, block: usize, seed: u64) -> Self {
        Self::try_new(hurst, variance, block, seed)
            .unwrap_or_else(|e| panic!("FgnStream construction failed: {e}"))
    }

    /// Fallible [`new`](Self::new).
    pub fn try_new(
        hurst: f64,
        variance: f64,
        block: usize,
        seed: u64,
    ) -> Result<Self, FgnError> {
        Self::build(hurst, variance, block, None, seed)
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
        Self::build(hurst, variance, block, Some(overlap), seed)
    }

    fn build(
        hurst: f64,
        variance: f64,
        block: usize,
        overlap: Option<usize>,
        seed: u64,
    ) -> Result<Self, FgnError> {
        if !(hurst > 0.0 && hurst < 1.0) {
            return Err(FgnError::InvalidHurst { hurst, lo: 0.0, hi: 1.0 });
        }
        if !(variance > 0.0 && variance.is_finite()) {
            return Err(FgnError::InvalidVariance { variance });
        }
        check_geometry(block, overlap.unwrap_or(0))?;
        let sd = variance.sqrt();
        let rng = Xoshiro256::seed_from_u64(seed);
        if block == 1 {
            return Ok(FgnStream(CirculantStream::from_spectrum(None, sd, 1, 0, rng)));
        }
        let (m, l) = match overlap {
            None => prefix_exact_geometry(block),
            Some(l) => (next_pow2(2 * (block + l - 1)).max(2), l),
        };
        let lambda = fgn_circulant_spectrum_cached(hurst, m)?;
        Ok(FgnStream(CirculantStream::from_spectrum(Some(lambda), sd, block, l, rng)))
    }

    /// Fills `out` with the next `out.len()` samples (chunked draw).
    pub fn next_block(&mut self, out: &mut [f64]) {
        self.0.next_block(out);
    }

    /// Emitted samples per circulant window.
    pub fn block(&self) -> usize {
        self.0.block()
    }

    /// Samples cross-faded at each window seam.
    pub fn overlap(&self) -> usize {
        self.0.overlap()
    }

    /// Circulant transform length per window — the memory scale.
    pub fn circulant_len(&self) -> usize {
        self.0.circulant_len()
    }
}

impl Iterator for FgnStream {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        self.0.next()
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
pub struct FarimaStream(CirculantStream);

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
        Self::build(hurst, variance, block, None, seed)
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
        Self::build(hurst, variance, block, Some(overlap), seed)
    }

    fn build(
        hurst: f64,
        variance: f64,
        block: usize,
        overlap: Option<usize>,
        seed: u64,
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
        let rng = Xoshiro256::seed_from_u64(seed);
        if block == 1 {
            return Ok(FarimaStream(CirculantStream::from_spectrum(None, sd, 1, 0, rng)));
        }
        let (m, l) = match overlap {
            None => prefix_exact_geometry(block),
            Some(l) => (next_pow2(2 * (block + l - 1)).max(2), l),
        };
        let lambda = farima_circulant_spectrum_cached(d, m)?;
        Ok(FarimaStream(CirculantStream::from_spectrum(Some(lambda), sd, block, l, rng)))
    }

    /// Fills `out` with the next `out.len()` samples (chunked draw).
    pub fn next_block(&mut self, out: &mut [f64]) {
        self.0.next_block(out);
    }

    /// Emitted samples per circulant window.
    pub fn block(&self) -> usize {
        self.0.block()
    }

    /// Samples cross-faded at each window seam.
    pub fn overlap(&self) -> usize {
        self.0.overlap()
    }

    /// Circulant transform length per window — the memory scale.
    pub fn circulant_len(&self) -> usize {
        self.0.circulant_len()
    }
}

impl Iterator for FarimaStream {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        self.0.next()
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
    if !(0.5..1.0).contains(&hurst) {
        return Err(FgnError::InvalidHurst { hurst, lo: 0.5, hi: 1.0 });
    }
    if !(variance > 0.0 && variance.is_finite()) {
        return Err(FgnError::InvalidVariance { variance });
    }
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let sd = variance.sqrt();
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        return Ok(vec![rng.standard_normal() * sd]);
    }
    let m = next_pow2(2 * (n - 1)).max(2);
    let lambda = farima_circulant_spectrum_cached(crate::acvf::hurst_to_d(hurst), m)?;
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
