//! Run-length coding of quantised DCT coefficients (JPEG-style):
//! differential DC with size categories, AC `(run, size)` symbols with
//! ZRL/EOB, plus the raw "extra bits" that carry the magnitudes.

use crate::zigzag::to_zigzag;

/// One entropy-coding symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Symbol {
    /// DC difference size category (0–11 bits).
    DcSize(u8),
    /// AC coefficient: `run` preceding zeros (0–15), nonzero level of
    /// `size` bits (1–11).
    AcRunSize {
        /// Number of zero coefficients skipped (0–15).
        run: u8,
        /// Magnitude category of the nonzero level.
        size: u8,
    },
    /// Sixteen consecutive zeros (JPEG's ZRL).
    Zrl,
    /// End of block — all remaining coefficients are zero.
    Eob,
}

/// Total number of distinct symbol indices (for frequency tables).
pub const SYMBOL_COUNT: usize = 12 + 16 * 11 + 2;

impl Symbol {
    /// Dense index into `[0, SYMBOL_COUNT)` for Huffman-table rows.
    pub fn index(&self) -> usize {
        match *self {
            Symbol::DcSize(s) => {
                assert!(s <= 11, "DC size out of range: {s}");
                s as usize
            }
            Symbol::AcRunSize { run, size } => {
                assert!(run <= 15, "AC run out of range: {run}");
                assert!((1..=11).contains(&size), "AC size out of range: {size}");
                12 + run as usize * 11 + (size as usize - 1)
            }
            Symbol::Zrl => 12 + 176,
            Symbol::Eob => 12 + 177,
        }
    }

    /// Inverse of [`index`](Self::index).
    pub fn from_index(i: usize) -> Symbol {
        match i {
            0..=11 => Symbol::DcSize(i as u8),
            12..=187 => {
                let j = i - 12;
                Symbol::AcRunSize { run: (j / 11) as u8, size: (j % 11 + 1) as u8 }
            }
            188 => Symbol::Zrl,
            189 => Symbol::Eob,
            _ => panic!("symbol index out of range: {i}"),
        }
    }
}

/// JPEG magnitude category: number of bits needed to code `v`
/// (`0 → 0`, `±1 → 1`, `±2,±3 → 2`, …).
pub fn size_class(v: i32) -> u8 {
    let mut mag = v.unsigned_abs();
    let mut bits = 0u8;
    while mag > 0 {
        bits += 1;
        mag >>= 1;
    }
    bits
}

/// JPEG-style amplitude encoding of `v` into `size_class(v)` bits
/// (negative values are stored as `v − 1` in two's-complement low bits).
pub fn encode_amplitude(v: i32) -> (u16, u8) {
    let bits = size_class(v);
    if bits == 0 {
        return (0, 0);
    }
    let raw = if v >= 0 { v as u16 } else { (v - 1) as u16 & ((1 << bits) - 1) };
    (raw, bits)
}

/// Inverse of [`encode_amplitude`].
pub fn decode_amplitude(raw: u16, bits: u8) -> i32 {
    if bits == 0 {
        return 0;
    }
    let half = 1u16 << (bits - 1);
    if raw >= half {
        raw as i32
    } else {
        raw as i32 - (1 << bits) + 1
    }
}

/// One coded token: a symbol plus its amplitude extra bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// The entropy-coded symbol.
    pub symbol: Symbol,
    /// Raw amplitude bits.
    pub extra: u16,
    /// Number of amplitude bits.
    pub extra_bits: u8,
}

/// Run-length encodes one quantised block (row-major levels).
/// `prev_dc` is the previous block's DC level (differential coding);
/// returns the tokens and this block's DC level.
pub fn encode_block(levels: &[i16; 64], prev_dc: i16) -> (Vec<Token>, i16) {
    let scan = to_zigzag(levels);
    let mut out = Vec::with_capacity(20);

    let dc = scan[0];
    let diff = dc as i32 - prev_dc as i32;
    let (extra, bits) = encode_amplitude(diff);
    out.push(Token { symbol: Symbol::DcSize(bits), extra, extra_bits: bits });

    let mut run = 0u8;
    for &v in &scan[1..] {
        if v == 0 {
            run += 1;
            continue;
        }
        while run >= 16 {
            out.push(Token { symbol: Symbol::Zrl, extra: 0, extra_bits: 0 });
            run -= 16;
        }
        let (extra, bits) = encode_amplitude(v as i32);
        out.push(Token { symbol: Symbol::AcRunSize { run, size: bits }, extra, extra_bits: bits });
        run = 0;
    }
    if run > 0 {
        out.push(Token { symbol: Symbol::Eob, extra: 0, extra_bits: 0 });
    }
    (out, dc)
}

/// Decodes a token stream back into a row-major quantised block.
/// Returns the block and this block's DC level.
pub fn decode_block(tokens: &[Token], prev_dc: i16) -> ([i16; 64], i16) {
    let mut scan = [0i16; 64];
    let mut iter = tokens.iter();

    let first = iter.next().expect("empty token stream");
    let dc = match first.symbol {
        Symbol::DcSize(bits) => {
            assert_eq!(bits, first.extra_bits);
            (prev_dc as i32 + decode_amplitude(first.extra, bits)) as i16
        }
        other => panic!("block must start with a DC symbol, got {other:?}"),
    };
    scan[0] = dc;

    let mut pos = 1usize;
    for t in iter {
        match t.symbol {
            Symbol::Eob => break,
            Symbol::Zrl => pos += 16,
            Symbol::AcRunSize { run, size } => {
                pos += run as usize;
                assert!(pos < 64, "AC position overflow");
                scan[pos] = decode_amplitude(t.extra, size) as i16;
                pos += 1;
            }
            Symbol::DcSize(_) => panic!("unexpected DC symbol mid-block"),
        }
    }
    (crate::zigzag::from_zigzag(&scan), dc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_class_categories() {
        assert_eq!(size_class(0), 0);
        assert_eq!(size_class(1), 1);
        assert_eq!(size_class(-1), 1);
        assert_eq!(size_class(2), 2);
        assert_eq!(size_class(3), 2);
        assert_eq!(size_class(-3), 2);
        assert_eq!(size_class(255), 8);
        assert_eq!(size_class(-256), 9);
    }

    #[test]
    fn amplitude_roundtrip_all_small_values() {
        for v in -300..=300 {
            let (raw, bits) = encode_amplitude(v);
            assert_eq!(decode_amplitude(raw, bits), v, "v = {v}");
        }
    }

    #[test]
    fn symbol_index_roundtrip() {
        for i in 0..SYMBOL_COUNT {
            assert_eq!(Symbol::from_index(i).index(), i);
        }
    }

    #[test]
    fn all_zero_block_is_dc_plus_eob() {
        let levels = [0i16; 64];
        let (tokens, dc) = encode_block(&levels, 0);
        assert_eq!(dc, 0);
        assert_eq!(tokens.len(), 2);
        assert_eq!(tokens[0].symbol, Symbol::DcSize(0));
        assert_eq!(tokens[1].symbol, Symbol::Eob);
    }

    #[test]
    fn block_roundtrip_random_levels() {
        let mut levels = [0i16; 64];
        for (i, v) in levels.iter_mut().enumerate() {
            // Sparse pattern with zero runs.
            *v = if i % 7 == 0 { (i as i16 % 23) - 11 } else { 0 };
        }
        let (tokens, dc) = encode_block(&levels, 5);
        let (back, dc2) = decode_block(&tokens, 5);
        assert_eq!(back, levels);
        assert_eq!(dc, dc2);
    }

    #[test]
    fn long_zero_runs_use_zrl() {
        let mut levels = [0i16; 64];
        // Nonzero at zig-zag positions 1 and 40 → a run > 16 in between.
        levels[crate::zigzag::ZIGZAG[1]] = 3;
        levels[crate::zigzag::ZIGZAG[40]] = -2;
        let (tokens, _) = encode_block(&levels, 0);
        assert!(tokens.iter().any(|t| t.symbol == Symbol::Zrl));
        let (back, _) = decode_block(&tokens, 0);
        assert_eq!(back, levels);
    }

    #[test]
    fn dc_differential_chains() {
        let mut a = [0i16; 64];
        a[0] = 10;
        let mut b = [0i16; 64];
        b[0] = 7;
        let (ta, dca) = encode_block(&a, 0);
        let (tb, dcb) = encode_block(&b, dca);
        assert_eq!(dca, 10);
        assert_eq!(dcb, 7);
        let (ba, dca2) = decode_block(&ta, 0);
        let (bb, _) = decode_block(&tb, dca2);
        assert_eq!(ba, a);
        assert_eq!(bb, b);
    }

    #[test]
    fn busier_block_emits_more_tokens() {
        let sparse = {
            let mut l = [0i16; 64];
            l[0] = 5;
            l
        };
        let busy = {
            let mut l = [0i16; 64];
            for (i, v) in l.iter_mut().enumerate() {
                *v = (i as i16 % 5) - 2;
            }
            l
        };
        let (ts, _) = encode_block(&sparse, 0);
        let (tb, _) = encode_block(&busy, 0);
        assert!(tb.len() > ts.len());
    }

    #[test]
    fn full_block_has_no_eob() {
        let mut levels = [1i16; 64];
        levels[0] = 3;
        let (tokens, _) = encode_block(&levels, 0);
        assert!(!tokens.iter().any(|t| t.symbol == Symbol::Eob));
        let (back, _) = decode_block(&tokens, 0);
        assert_eq!(back, levels);
    }
}
