//! Structure-of-arrays kernels for the pipeline's hot loops.
//!
//! Every kernel is plain safe Rust written as chunk-of-[`LANES`] loops
//! over `f64` lanes — a shape LLVM reliably autovectorizes to SSE2/AVX/
//! AVX-512 (or NEON) without explicit intrinsics. The chunk width is the
//! workspace-wide compile-time constant [`LANES`], shared with the FFT
//! butterflies in `vbr-fft`:
//!
//! - **The width shapes the unroll, never the bits.** Every kernel
//!   computes each output element with per-element math independent of
//!   where chunk boundaries fall, or (for reductions) preserves the
//!   exact scalar accumulation order, so its output equals its scalar
//!   twin bit for bit — pinned by the `kernel_digest` binary, whose
//!   output CI diffs against a checked-in golden file under default
//!   flags and `target-cpu=native` (see DESIGN.md §14).
//! - **Scalar twins.** Each kernel keeps its obvious scalar equivalent
//!   as the property-test oracle.
//!
//! See DESIGN.md §11 for the per-kernel accuracy budget and §14 for why
//! the width is one constant.

/// The chunk width of every unrolled kernel, re-exported from
/// [`vbr_fft::LANES`] so the FFT butterflies and every kernel here share
/// one value.
pub use vbr_fft::LANES;

/// `out[i] += src[i] as f64` — the multiplexer's arrival-aggregation
/// kernel. Each output element receives exactly one convert + add, so
/// the result is bit-identical to the scalar loop wherever chunk
/// boundaries fall.
///
/// Panics if the slices differ in length.
#[inline]
pub fn accumulate_u32(out: &mut [f64], src: &[u32]) {
    assert_eq!(out.len(), src.len(), "accumulate_u32: length mismatch");
    let mut o = out.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (oc, sc) in (&mut o).zip(&mut s) {
        // LANES independent convert+add lanes; LLVM lowers this to
        // vcvtudq2pd/vaddpd-shaped code with no cross-lane dependency.
        for l in 0..LANES {
            oc[l] += sc[l] as f64;
        }
    }
    for (o, &s) in o.into_remainder().iter_mut().zip(s.remainder()) {
        *o += s as f64;
    }
}

/// Sum of a slice in strict left-to-right order, unrolled into chunk
/// loads. The *accumulation order* is exactly the scalar `for` loop's
/// (`(((a0+a1)+a2)+a3)+…`) — the unroll removes loop-counter overhead,
/// not the dependency chain — so totals are bit-identical to sequential
/// `+=` accumulation. This is the kernel for window/byte accounting
/// where the serial recurrence next door already fixes the order.
#[inline]
pub fn sum_sequential(xs: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    let mut chunks = xs.chunks_exact(LANES);
    for c in &mut chunks {
        for &x in c {
            acc += x;
        }
    }
    for &x in chunks.remainder() {
        acc += x;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_matches_scalar_twin_bitwise() {
        let src: Vec<u32> = (0..1031).map(|i| (i * 2654435761u32 as usize) as u32).collect();
        let base: Vec<f64> = (0..1031).map(|i| i as f64 * 0.37).collect();
        let mut want = base.clone();
        for (o, &s) in want.iter_mut().zip(&src) {
            *o += s as f64;
        }
        let mut out = base.clone();
        accumulate_u32(&mut out, &src);
        assert_eq!(out, want);
    }

    #[test]
    fn sum_sequential_matches_scalar_twin_bitwise() {
        // Lengths straddle 0, 1, 2 and 3 whole chunks of LANES.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 25, 1000] {
            let xs: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.761).sin() * 1e6).collect();
            let mut want = 0.0f64;
            for &x in &xs {
                want += x;
            }
            assert_eq!(sum_sequential(&xs).to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accumulate_rejects_mismatch() {
        accumulate_u32(&mut [0.0; 3], &[1, 2]);
    }
}
