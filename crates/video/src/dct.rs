//! 8×8 two-dimensional Discrete Cosine Transform (DCT-II, orthonormal) —
//! the transform stage of the paper's intraframe coder.

/// Precomputed orthonormal 8-point DCT-II basis: `BASIS[k][n] = c_k cos(π(2n+1)k/16)`.
fn basis() -> &'static [[f64; 8]; 8] {
    use std::sync::OnceLock;
    static B: OnceLock<[[f64; 8]; 8]> = OnceLock::new();
    B.get_or_init(|| {
        let mut b = [[0.0; 8]; 8];
        for (k, row) in b.iter_mut().enumerate() {
            let ck = if k == 0 { (1.0f64 / 8.0).sqrt() } else { (2.0f64 / 8.0).sqrt() };
            for (n, v) in row.iter_mut().enumerate() {
                *v = ck * (std::f64::consts::PI * (2.0 * n as f64 + 1.0) * k as f64 / 16.0).cos();
            }
        }
        b
    })
}

/// Forward 2-D DCT of an 8×8 block (row-major `[f64; 64]`).
pub fn forward_dct(block: &[f64; 64]) -> [f64; 64] {
    let b = basis();
    // Rows, then columns: X = B x Bᵀ.
    let mut tmp = [0.0; 64];
    for r in 0..8 {
        for k in 0..8 {
            let mut acc = 0.0;
            for n in 0..8 {
                acc += b[k][n] * block[r * 8 + n];
            }
            tmp[r * 8 + k] = acc;
        }
    }
    let mut out = [0.0; 64];
    for c in 0..8 {
        for k in 0..8 {
            let mut acc = 0.0;
            for n in 0..8 {
                acc += b[k][n] * tmp[n * 8 + c];
            }
            out[k * 8 + c] = acc;
        }
    }
    out
}

/// Inverse 2-D DCT of an 8×8 coefficient block.
pub fn inverse_dct(coef: &[f64; 64]) -> [f64; 64] {
    let b = basis();
    let mut tmp = [0.0; 64];
    for c in 0..8 {
        for n in 0..8 {
            let mut acc = 0.0;
            for k in 0..8 {
                acc += b[k][n] * coef[k * 8 + c];
            }
            tmp[n * 8 + c] = acc;
        }
    }
    let mut out = [0.0; 64];
    for r in 0..8 {
        for n in 0..8 {
            let mut acc = 0.0;
            for k in 0..8 {
                acc += b[k][n] * tmp[r * 8 + k];
            }
            out[r * 8 + n] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_block_is_pure_dc() {
        let block = [32.0; 64];
        let c = forward_dct(&block);
        // DC = 8 × 32 for the orthonormal 2-D transform (c00 = mean × 8).
        assert!((c[0] - 256.0).abs() < 1e-9);
        for (i, &v) in c.iter().enumerate().skip(1) {
            assert!(v.abs() < 1e-9, "AC coefficient {i} = {v}");
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let mut block = [0.0; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i * 7919) % 255) as f64 - 128.0;
        }
        let back = inverse_dct(&forward_dct(&block));
        for (a, b) in block.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn energy_preserved_parseval() {
        let mut block = [0.0; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = (i as f64 * 0.37).sin() * 100.0;
        }
        let c = forward_dct(&block);
        let e1: f64 = block.iter().map(|v| v * v).sum();
        let e2: f64 = c.iter().map(|v| v * v).sum();
        assert!((e1 - e2).abs() < 1e-6 * e1);
    }

    #[test]
    fn horizontal_cosine_excites_single_coefficient() {
        // x[n] = cos(π(2n+1)·3/16) along rows → coefficient (0, 3) only.
        let mut block = [0.0; 64];
        for r in 0..8 {
            for n in 0..8 {
                block[r * 8 + n] =
                    (std::f64::consts::PI * (2.0 * n as f64 + 1.0) * 3.0 / 16.0).cos();
            }
        }
        let c = forward_dct(&block);
        for k in 0..8 {
            for l in 0..8 {
                let v = c[k * 8 + l];
                if (k, l) == (0, 3) {
                    assert!(v.abs() > 1.0, "target coefficient should be large");
                } else {
                    assert!(v.abs() < 1e-9, "({k},{l}) = {v}");
                }
            }
        }
    }

    #[test]
    fn high_frequency_content_spreads_to_high_coefficients() {
        // Checkerboard = highest spatial frequency → energy at (7, 7).
        let mut block = [0.0; 64];
        for r in 0..8 {
            for n in 0..8 {
                block[r * 8 + n] = if (r + n) % 2 == 0 { 100.0 } else { -100.0 };
            }
        }
        let c = forward_dct(&block);
        let hi = c[63].abs();
        let dc = c[0].abs();
        assert!(hi > 100.0, "high coefficient {hi}");
        assert!(dc < 1e-9, "checkerboard has zero mean, DC = {dc}");
    }
}
