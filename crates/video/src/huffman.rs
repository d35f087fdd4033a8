//! Canonical Huffman coding for the RLE symbol alphabet, plus a small
//! bit-stream writer/reader so the coded representation is a real,
//! decodable bitstream (not just a bit count).

/// A canonical Huffman code over a dense symbol alphabet.
#[derive(Debug, Clone)]
pub struct HuffmanTable {
    /// Code length in bits per symbol (0 = symbol never occurs).
    lengths: Vec<u8>,
    /// Canonical codeword per symbol (valid when `lengths > 0`).
    codes: Vec<u32>,
}

impl HuffmanTable {
    /// Builds a code from symbol frequencies.
    ///
    /// Symbols with zero frequency get length 0 (unencodable); every
    /// symbol that can occur must therefore have frequency ≥ 1 — callers
    /// usually add-one smooth their training counts.
    pub fn from_frequencies(freqs: &[u64]) -> Self {
        assert!(!freqs.is_empty());
        let lengths = huffman_lengths(freqs);
        let codes = canonical_codes(&lengths);
        HuffmanTable { lengths, codes }
    }

    /// Code length in bits for `symbol` (panics if unencodable).
    pub fn length(&self, symbol: usize) -> u8 {
        let l = self.lengths[symbol];
        assert!(l > 0, "symbol {symbol} has no codeword (zero training frequency)");
        l
    }

    /// `(codeword, length)` for `symbol`.
    pub fn code(&self, symbol: usize) -> (u32, u8) {
        (self.codes[symbol], self.length(symbol))
    }

    /// All code lengths.
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// Expected code length in bits under a frequency distribution.
    pub fn expected_length(&self, freqs: &[u64]) -> f64 {
        let total: u64 = freqs.iter().sum();
        let mut acc = 0.0;
        for (s, &f) in freqs.iter().enumerate() {
            if f > 0 {
                acc += f as f64 * self.lengths[s] as f64;
            }
        }
        acc / total as f64
    }

    /// Decodes one symbol from a bit reader.
    pub fn decode(&self, reader: &mut BitReader<'_>) -> usize {
        // Canonical decode: extend the code bit by bit and compare against
        // the first-code table per length.
        let mut code = 0u32;
        let mut len = 0u8;
        loop {
            code = (code << 1) | reader.read_bit() as u32;
            len += 1;
            assert!(len <= 32, "corrupt bitstream: no codeword found");
            for (s, (&l, &c)) in self.lengths.iter().zip(&self.codes).enumerate() {
                if l == len && c == code {
                    return s;
                }
            }
        }
    }
}

/// Computes Huffman code lengths from frequencies via the classic
/// two-queue/heap construction. Zero-frequency symbols get length 0.
fn huffman_lengths(freqs: &[u64]) -> Vec<u8> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    // Arena of tree nodes: leaves carry a symbol, internals carry children.
    enum Node {
        Leaf(usize),
        Internal(usize, usize),
    }
    let mut arena: Vec<Node> = Vec::new();

    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for (s, &f) in freqs.iter().enumerate() {
        if f > 0 {
            arena.push(Node::Leaf(s));
            heap.push(Reverse((f, arena.len() - 1)));
        }
    }
    let mut lengths = vec![0u8; freqs.len()];
    match heap.len() {
        0 => return lengths,
        1 => {
            // Single-symbol alphabet: give it a 1-bit code.
            let Reverse((_, idx)) = heap.pop().expect("heap.len() == 1 in this arm");
            if let Node::Leaf(s) = arena[idx] {
                lengths[s] = 1;
            }
            return lengths;
        }
        _ => {}
    }
    while heap.len() > 1 {
        // The loop guard guarantees two nodes to merge.
        let Reverse((f1, n1)) = heap.pop().expect("heap.len() > 1");
        let Reverse((f2, n2)) = heap.pop().expect("heap.len() > 1");
        arena.push(Node::Internal(n1, n2));
        heap.push(Reverse((f1 + f2, arena.len() - 1)));
    }
    // Each merge removes two nodes and adds one, so exactly one remains.
    let Reverse((_, root)) = heap.pop().expect("merge loop leaves one root");

    // Iterative depth-first walk assigning depths as code lengths.
    let mut stack = vec![(root, 0u8)];
    while let Some((idx, depth)) = stack.pop() {
        match arena[idx] {
            Node::Leaf(s) => lengths[s] = depth.max(1),
            Node::Internal(a, b) => {
                stack.push((a, depth + 1));
                stack.push((b, depth + 1));
            }
        }
    }
    lengths
}

/// Assigns canonical codewords given code lengths (shorter codes first,
/// ties broken by symbol index).
fn canonical_codes(lengths: &[u8]) -> Vec<u32> {
    let mut symbols: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
    symbols.sort_by_key(|&s| (lengths[s], s));
    let mut codes = vec![0u32; lengths.len()];
    let mut code = 0u32;
    let mut prev_len = 0u8;
    for &s in &symbols {
        code <<= lengths[s] - prev_len;
        codes[s] = code;
        code += 1;
        prev_len = lengths[s];
    }
    codes
}

/// Append-only bit writer (MSB-first within each codeword).
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the low `len` bits of `value`, MSB first.
    pub fn write(&mut self, value: u32, len: u8) {
        for i in (0..len).rev() {
            let bit = (value >> i) & 1;
            let byte_idx = self.bit_len / 8;
            if byte_idx == self.bytes.len() {
                self.bytes.push(0);
            }
            if bit == 1 {
                self.bytes[byte_idx] |= 1 << (7 - self.bit_len % 8);
            }
            self.bit_len += 1;
        }
    }

    /// Total bits written.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// The backing bytes (last byte zero-padded).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Bit reader over a byte slice (MSB-first).
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads one bit.
    pub fn read_bit(&mut self) -> u8 {
        let byte = self.bytes[self.pos / 8];
        let bit = (byte >> (7 - self.pos % 8)) & 1;
        self.pos += 1;
        bit
    }

    /// Reads `len` bits as an MSB-first integer.
    pub fn read(&mut self, len: u8) -> u32 {
        let mut v = 0u32;
        for _ in 0..len {
            v = (v << 1) | self.read_bit() as u32;
        }
        v
    }

    /// Current bit position.
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kraft_inequality_holds() {
        let freqs = [50u64, 30, 10, 5, 3, 1, 1];
        let t = HuffmanTable::from_frequencies(&freqs);
        let kraft: f64 =
            t.lengths().iter().filter(|&&l| l > 0).map(|&l| 2f64.powi(-(l as i32))).sum();
        assert!(kraft <= 1.0 + 1e-12, "Kraft sum {kraft}");
    }

    #[test]
    fn more_frequent_symbols_get_shorter_codes() {
        let freqs = [100u64, 50, 20, 5, 1];
        let t = HuffmanTable::from_frequencies(&freqs);
        for w in t.lengths().windows(2) {
            assert!(w[0] <= w[1], "lengths not monotone: {:?}", t.lengths());
        }
    }

    #[test]
    fn codes_are_prefix_free() {
        let freqs = [13u64, 7, 5, 5, 2, 1, 1, 1];
        let t = HuffmanTable::from_frequencies(&freqs);
        for a in 0..freqs.len() {
            for b in 0..freqs.len() {
                if a == b {
                    continue;
                }
                let (ca, la) = t.code(a);
                let (cb, lb) = t.code(b);
                if la <= lb {
                    assert_ne!(ca, cb >> (lb - la), "symbol {a} is a prefix of {b}");
                }
            }
        }
    }

    #[test]
    fn near_entropy_for_skewed_distribution() {
        let freqs = [1000u64, 500, 250, 125, 62, 31, 16, 16];
        let t = HuffmanTable::from_frequencies(&freqs);
        let total: u64 = freqs.iter().sum();
        let entropy: f64 = freqs
            .iter()
            .map(|&f| {
                let p = f as f64 / total as f64;
                -p * p.log2()
            })
            .sum();
        let avg = t.expected_length(&freqs);
        assert!(avg >= entropy - 1e-9);
        assert!(avg < entropy + 1.0, "avg {avg} vs entropy {entropy}");
    }

    #[test]
    fn bitstream_roundtrip() {
        let freqs = [40u64, 30, 20, 10, 4, 2];
        let t = HuffmanTable::from_frequencies(&freqs);
        let message = [0usize, 1, 0, 2, 3, 5, 0, 0, 4, 1, 2];
        let mut w = BitWriter::new();
        for &s in &message {
            let (c, l) = t.code(s);
            w.write(c, l);
        }
        let mut r = BitReader::new(w.bytes());
        for &s in &message {
            assert_eq!(t.decode(&mut r), s);
        }
        assert_eq!(r.position(), w.bit_len());
    }

    #[test]
    fn bit_writer_reader_raw_values() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        w.write(0b0110, 4);
        w.write(0b1, 1);
        assert_eq!(w.bit_len(), 8);
        let mut r = BitReader::new(w.bytes());
        assert_eq!(r.read(3), 0b101);
        assert_eq!(r.read(4), 0b0110);
        assert_eq!(r.read(1), 1);
    }

    #[test]
    fn single_symbol_alphabet() {
        let t = HuffmanTable::from_frequencies(&[7]);
        assert_eq!(t.length(0), 1);
    }

    #[test]
    fn zero_frequency_symbols_have_no_code() {
        let t = HuffmanTable::from_frequencies(&[10, 0, 5]);
        assert_eq!(t.lengths()[1], 0);
    }

    #[test]
    #[should_panic(expected = "no codeword")]
    fn encoding_untrained_symbol_panics() {
        let t = HuffmanTable::from_frequencies(&[10, 0, 5]);
        t.length(1);
    }
}
