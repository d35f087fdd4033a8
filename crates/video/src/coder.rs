//! The complete intraframe coder: DCT → uniform quantisation → zig-zag →
//! run-length symbols → Huffman bitstream, organised in slices
//! (the paper codes 30 slices per frame).
//!
//! "These algorithms comprise essentially the same coding as the JPEG
//! standard" (§2).

use crate::dct::{forward_dct, inverse_dct};
use crate::frame::Frame;
use crate::huffman::{BitReader, BitWriter, HuffmanTable};
use crate::quant::Quantizer;
use crate::rle::{decode_block, encode_block, Token, SYMBOL_COUNT};

/// Coder configuration.
#[derive(Debug, Clone, Copy)]
pub struct CoderConfig {
    /// Uniform quantiser step size (the paper fixes this).
    pub quant_step: f64,
    /// Slices per frame (the paper uses 30; block rows are distributed
    /// as evenly as possible).
    pub slices_per_frame: usize,
}

impl Default for CoderConfig {
    fn default() -> Self {
        CoderConfig { quant_step: 16.0, slices_per_frame: 30 }
    }
}

/// One coded frame: a real bitstream per slice.
#[derive(Debug, Clone)]
pub struct CodedFrame {
    /// Coded bytes per slice.
    pub slices: Vec<Vec<u8>>,
    /// Exact bit count per slice (the byte vectors are zero-padded).
    pub slice_bits: Vec<usize>,
}

impl CodedFrame {
    /// Bytes per slice (what the trace records).
    pub fn slice_bytes(&self) -> Vec<u32> {
        self.slice_bits.iter().map(|&b| b.div_ceil(8) as u32).collect()
    }

    /// Total coded bytes for the frame.
    pub fn total_bytes(&self) -> u32 {
        self.slice_bytes().iter().sum()
    }
}

/// A trained intraframe coder.
#[derive(Debug, Clone)]
pub struct IntraframeCoder {
    config: CoderConfig,
    quant: Quantizer,
    table: HuffmanTable,
}

impl IntraframeCoder {
    /// Trains the Huffman table on a set of representative frames
    /// (realistic coders ship fixed tables; we derive ours from training
    /// content once, then keep them fixed).
    pub fn train(config: CoderConfig, training: &[Frame]) -> Self {
        assert!(!training.is_empty(), "training set must not be empty");
        assert!(config.slices_per_frame >= 1);
        let quant = Quantizer::new(config.quant_step);
        // Add-one smoothing so every symbol stays encodable.
        let mut freqs = vec![1u64; SYMBOL_COUNT];
        for frame in training {
            for_each_slice_tokens(frame, &quant, config.slices_per_frame, |tokens| {
                for t in tokens {
                    freqs[t.symbol.index()] += 1;
                }
            });
        }
        IntraframeCoder { config, quant, table: HuffmanTable::from_frequencies(&freqs) }
    }

    /// The coder configuration.
    pub fn config(&self) -> &CoderConfig {
        &self.config
    }

    /// Codes one frame into per-slice bitstreams.
    pub fn code_frame(&self, frame: &Frame) -> CodedFrame {
        let mut slices = Vec::with_capacity(self.config.slices_per_frame);
        let mut slice_bits = Vec::with_capacity(self.config.slices_per_frame);
        for_each_slice_tokens(frame, &self.quant, self.config.slices_per_frame, |tokens| {
            let mut w = BitWriter::new();
            for t in tokens {
                let (code, len) = self.table.code(t.symbol.index());
                w.write(code, len);
                if t.extra_bits > 0 {
                    w.write(t.extra as u32, t.extra_bits);
                }
            }
            slice_bits.push(w.bit_len());
            slices.push(w.bytes().to_vec());
        });
        CodedFrame { slices, slice_bits }
    }

    /// Decodes a coded frame back to pels (quantisation is the only loss).
    pub fn decode_frame(&self, coded: &CodedFrame, width: usize, height: usize) -> Frame {
        let block_rows = height / 8;
        let blocks_per_row = width / 8;
        let bounds = slice_bounds(block_rows, self.config.slices_per_frame);
        let mut frame = Frame::new(width, height);
        for (slice_idx, (start_row, end_row)) in bounds.iter().enumerate() {
            let mut r = BitReader::new(&coded.slices[slice_idx]);
            let mut prev_dc = 0i16;
            for by in *start_row..*end_row {
                for bx in 0..blocks_per_row {
                    let tokens = self.read_block_tokens(&mut r);
                    let (levels, dc) = decode_block(&tokens, prev_dc);
                    prev_dc = dc;
                    let coefs = self.quant.dequantize_block(&levels);
                    let pels = inverse_dct(&coefs);
                    for row in 0..8 {
                        for col in 0..8 {
                            let v = (pels[row * 8 + col] + 128.0).round().clamp(0.0, 255.0);
                            frame.set(bx * 8 + col, by * 8 + row, v as u8);
                        }
                    }
                }
            }
        }
        frame
    }

    /// Reads one block's token list from the bitstream.
    fn read_block_tokens(&self, r: &mut BitReader<'_>) -> Vec<Token> {
        use crate::rle::Symbol;
        let mut tokens = Vec::with_capacity(20);
        // DC.
        let sym = Symbol::from_index(self.table.decode(r));
        let bits = match sym {
            Symbol::DcSize(b) => b,
            other => panic!("expected DC symbol, got {other:?}"),
        };
        let extra = if bits > 0 { r.read(bits) as u16 } else { 0 };
        tokens.push(Token { symbol: sym, extra, extra_bits: bits });
        // AC until EOB or 63 coefficients consumed.
        let mut pos = 1usize;
        while pos < 64 {
            let sym = Symbol::from_index(self.table.decode(r));
            match sym {
                Symbol::Eob => {
                    tokens.push(Token { symbol: sym, extra: 0, extra_bits: 0 });
                    break;
                }
                Symbol::Zrl => {
                    tokens.push(Token { symbol: sym, extra: 0, extra_bits: 0 });
                    pos += 16;
                }
                Symbol::AcRunSize { run, size } => {
                    let extra = r.read(size) as u16;
                    tokens.push(Token { symbol: sym, extra, extra_bits: size });
                    pos += run as usize + 1;
                }
                Symbol::DcSize(_) => panic!("unexpected DC symbol mid-block"),
            }
        }
        tokens
    }
}

/// Maps block rows to `(start, end)` ranges for each slice.
fn slice_bounds(block_rows: usize, slices: usize) -> Vec<(usize, usize)> {
    let slices = slices.min(block_rows).max(1);
    (0..slices).map(|s| (block_rows * s / slices, block_rows * (s + 1) / slices)).collect()
}

/// Iterates slices of a frame, producing the token stream per slice
/// (DC prediction resets at each slice boundary, as in JPEG restart
/// intervals).
fn for_each_slice_tokens(
    frame: &Frame,
    quant: &Quantizer,
    slices_per_frame: usize,
    mut f: impl FnMut(&[Token]),
) {
    let bounds = slice_bounds(frame.block_rows(), slices_per_frame);
    let mut tokens: Vec<Token> = Vec::new();
    for (start_row, end_row) in bounds {
        tokens.clear();
        let mut prev_dc = 0i16;
        for by in start_row..end_row {
            for bx in 0..frame.blocks_per_row() {
                let block = frame.block(bx, by);
                let coefs = forward_dct(&block);
                let levels = quant.quantize_block(&coefs);
                let (mut toks, dc) = encode_block(&levels, prev_dc);
                prev_dc = dc;
                tokens.append(&mut toks);
            }
        }
        f(&tokens);
    }
}

/// Peak signal-to-noise ratio between two frames, in dB.
pub fn psnr(a: &Frame, b: &Frame) -> f64 {
    assert_eq!(a.width(), b.width());
    assert_eq!(a.height(), b.height());
    let mse: f64 = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        / a.data().len() as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SceneSpec, SceneSynthesizer};

    fn coder_for(scene: &SceneSynthesizer, w: usize, h: usize) -> IntraframeCoder {
        let training: Vec<Frame> = (0..3).map(|t| scene.frame(t, w, h)).collect();
        IntraframeCoder::train(CoderConfig { quant_step: 16.0, slices_per_frame: 4 }, &training)
    }

    #[test]
    fn roundtrip_reconstruction_quality() {
        let scene = SceneSynthesizer::new(SceneSpec::placid(1));
        let (w, h) = (64, 64);
        let coder = coder_for(&scene, w, h);
        let frame = scene.frame(10, w, h);
        let coded = coder.code_frame(&frame);
        let recon = coder.decode_frame(&coded, w, h);
        let q = psnr(&frame, &recon);
        assert!(q > 28.0, "PSNR {q} dB too low");
    }

    #[test]
    fn busy_scene_needs_more_bytes() {
        let (w, h) = (64, 64);
        let placid = SceneSynthesizer::new(SceneSpec::placid(2));
        let action = SceneSynthesizer::new(SceneSpec::action(2));
        // One shared coder trained on both, as a real fixed-table coder.
        let mut training: Vec<Frame> = (0..2).map(|t| placid.frame(t, w, h)).collect();
        training.extend((0..2).map(|t| action.frame(t, w, h)));
        let coder = IntraframeCoder::train(
            CoderConfig { quant_step: 16.0, slices_per_frame: 4 },
            &training,
        );
        let b_placid = coder.code_frame(&placid.frame(5, w, h)).total_bytes();
        let b_action = coder.code_frame(&action.frame(5, w, h)).total_bytes();
        assert!(b_action as f64 > 1.5 * b_placid as f64, "action {b_action} vs placid {b_placid}");
    }

    #[test]
    fn flat_frame_compresses_hard() {
        let (w, h) = (64, 64);
        let scene = SceneSynthesizer::new(SceneSpec::placid(3));
        let coder = coder_for(&scene, w, h);
        let flat = Frame::from_fn(w, h, |_, _| 128);
        let bytes = coder.code_frame(&flat).total_bytes();
        // 64 blocks, each ~DC+EOB: a handful of bytes per slice.
        assert!(bytes < 200, "flat frame took {bytes} bytes");
        let raw = (w * h) as u32;
        assert!(raw / bytes > 20, "compression ratio too low");
    }

    #[test]
    fn slice_count_and_bounds() {
        assert_eq!(slice_bounds(8, 4), vec![(0, 2), (2, 4), (4, 6), (6, 8)]);
        assert_eq!(slice_bounds(60, 30).len(), 30); // the paper's geometry
        assert_eq!(slice_bounds(4, 30).len(), 4); // clamped to block rows
                                                  // Bounds tile the frame exactly.
        let b = slice_bounds(7, 3);
        assert_eq!(b.first().unwrap().0, 0);
        assert_eq!(b.last().unwrap().1, 7);
        for w in b.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn coded_frame_reports_consistent_sizes() {
        let scene = SceneSynthesizer::new(SceneSpec::action(4));
        let (w, h) = (64, 64);
        let coder = coder_for(&scene, w, h);
        let coded = coder.code_frame(&scene.frame(0, w, h));
        assert_eq!(coded.slices.len(), 4);
        assert_eq!(coded.slice_bytes().len(), 4);
        for (bits, bytes) in coded.slice_bits.iter().zip(coded.slice_bytes()) {
            assert_eq!(bytes as usize, bits.div_ceil(8));
        }
        assert_eq!(coded.total_bytes(), coded.slice_bytes().iter().sum::<u32>());
    }

    #[test]
    fn finer_quantisation_costs_more_bits_and_gains_quality() {
        let scene = SceneSynthesizer::new(SceneSpec::action(5));
        let (w, h) = (64, 64);
        let training: Vec<Frame> = (0..3).map(|t| scene.frame(t, w, h)).collect();
        let coarse = IntraframeCoder::train(
            CoderConfig { quant_step: 40.0, slices_per_frame: 4 },
            &training,
        );
        let fine =
            IntraframeCoder::train(CoderConfig { quant_step: 6.0, slices_per_frame: 4 }, &training);
        let frame = scene.frame(9, w, h);
        let cc = coarse.code_frame(&frame);
        let cf = fine.code_frame(&frame);
        assert!(cf.total_bytes() > cc.total_bytes());
        let qc = psnr(&frame, &coarse.decode_frame(&cc, w, h));
        let qf = psnr(&frame, &fine.decode_frame(&cf, w, h));
        assert!(qf > qc, "fine {qf} dB should beat coarse {qc} dB");
    }

    #[test]
    fn psnr_identical_frames_is_infinite() {
        let f = Frame::from_fn(8, 8, |x, y| (x * y) as u8);
        assert_eq!(psnr(&f, &f), f64::INFINITY);
    }
}
