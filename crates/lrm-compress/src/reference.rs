//! Scalar reference kernels: the original bit-at-a-time implementations
//! of the bitstream, Huffman decoder, LZSS coder, and ZFP plane coder.
//!
//! The production kernels in [`crate::bitstream`], [`crate::lossless`],
//! and [`crate::zfp`] were rewritten as word-level loops for throughput;
//! the byte formats they produce are frozen, and this module preserves
//! the slow-but-obviously-correct originals as the oracle for the
//! differential test suite (`tests/kernel_equivalence.rs`): fast and
//! reference kernels must produce byte-identical streams and identical
//! decodes on random and dataset-derived inputs.
//!
//! Nothing here is part of the supported API; the module is public only
//! so integration tests can reach it.

use crate::error::{DecodeError, DecodeResult};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Bitstream (scalar): one bit per iteration, exactly the original code.
// ---------------------------------------------------------------------------

/// Append-only bit writer, scalar reference (one bit per push).
#[derive(Debug, Default, Clone)]
pub struct RefBitWriter {
    bytes: Vec<u8>,
    /// Number of valid bits in the final partial byte (0..8; 0 = none).
    bit_pos: u32,
}

impl RefBitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a single bit (the LSB of `bit`).
    #[inline]
    pub fn write_bit(&mut self, bit: u64) {
        if self.bit_pos == 0 {
            self.bytes.push(0);
        }
        if bit & 1 != 0 {
            if let Some(last) = self.bytes.last_mut() {
                *last |= 1 << self.bit_pos;
            }
        }
        self.bit_pos = (self.bit_pos + 1) % 8;
    }

    /// Writes the low `n` bits of `value`, LSB first. `n` must be <= 64.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        for i in 0..n {
            self.write_bit((value >> i) & 1);
        }
    }

    /// Total number of bits written so far.
    pub fn len_bits(&self) -> usize {
        if self.bit_pos == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + self.bit_pos as usize
        }
    }

    /// Finishes the stream, zero-padding the last byte.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Bit reader over a byte slice, scalar reference (one bit per read).
#[derive(Debug, Clone)]
pub struct RefBitReader<'a> {
    bytes: &'a [u8],
    pos: usize, // absolute bit position
}

impl<'a> RefBitReader<'a> {
    /// Creates a reader positioned at the first bit.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Reads one bit; returns 0 past the end of the stream.
    #[inline]
    pub fn read_bit(&mut self) -> u64 {
        let byte = self.pos / 8;
        let bit = self.pos % 8;
        self.pos += 1;
        self.bytes.get(byte).map_or(0, |b| ((b >> bit) & 1) as u64)
    }

    /// Reads `n` bits (LSB first), zero-extended.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 64);
        let mut v = 0u64;
        for i in 0..n {
            v |= self.read_bit() << i;
        }
        v
    }

    /// Absolute bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }
}

// ---------------------------------------------------------------------------
// Huffman (scalar decode): per-bit canonical first_code walk.
// ---------------------------------------------------------------------------

/// Maximum admitted code length (mirrors `lossless::huffman`).
const MAX_CODE_LEN: u32 = 48;

use crate::lossless::varint::{decode_uvarint, encode_uvarint};

/// Canonical code table: for each symbol its (code, length), with codes
/// assigned in (length, symbol) order.
fn canonical_codes(lengths: &HashMap<u64, u32>) -> Vec<(u64, u64, u32)> {
    let mut entries: Vec<(u64, u32)> = lengths.iter().map(|(&s, &l)| (s, l)).collect();
    entries.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
    let mut out = Vec::with_capacity(entries.len());
    let mut code = 0u64;
    let mut prev_len = 0u32;
    for (sym, len) in entries {
        code <<= len - prev_len;
        out.push((sym, code, len));
        code += 1;
        prev_len = len;
    }
    out
}

/// Scalar reference decoder for streams produced by
/// [`crate::lossless::huffman_encode`]: walks the canonical first_code
/// table one bit at a time.
pub fn huffman_decode_ref(data: &[u8]) -> DecodeResult<Vec<u64>> {
    const TRUNC: DecodeError = DecodeError::Truncated {
        what: "huffman header",
    };
    let mut pos = 0;
    let nsyms = decode_uvarint(data, &mut pos).ok_or(TRUNC)? as usize;
    if nsyms > data.len() / 2 {
        return Err(DecodeError::Corrupt {
            what: "huffman symbol count exceeds stream",
        });
    }
    let mut lengths: HashMap<u64, u32> = HashMap::with_capacity(nsyms);
    for _ in 0..nsyms {
        let sym = decode_uvarint(data, &mut pos).ok_or(TRUNC)?;
        let len = decode_uvarint(data, &mut pos).ok_or(TRUNC)? as u32;
        if len == 0 || len > MAX_CODE_LEN {
            return Err(DecodeError::Corrupt {
                what: "huffman code length out of range",
            });
        }
        lengths.insert(sym, len);
    }
    let count = decode_uvarint(data, &mut pos).ok_or(TRUNC)? as usize;
    let payload_len = decode_uvarint(data, &mut pos).ok_or(TRUNC)? as usize;
    let payload = data
        .get(pos..pos.saturating_add(payload_len))
        .ok_or(DecodeError::Truncated {
            what: "huffman payload",
        })?;

    if count == 0 {
        return Ok(Vec::new());
    }
    if nsyms == 0 {
        return Err(DecodeError::Corrupt {
            what: "huffman symbols without a code table",
        });
    }
    if count > payload.len().saturating_mul(8) {
        return Err(DecodeError::Corrupt {
            what: "huffman symbol count exceeds payload bits",
        });
    }

    let table = canonical_codes(&lengths);
    let max_len = table
        .iter()
        .map(|&(_, _, l)| l)
        .max()
        .ok_or(DecodeError::Corrupt {
            what: "huffman empty code table",
        })?;
    let mut first_code = vec![0u64; (max_len + 2) as usize];
    let mut first_index = vec![0usize; (max_len + 2) as usize];
    let mut counts = vec![0usize; (max_len + 2) as usize];
    for &(_, _, l) in &table {
        // lint:allow(no-index): l <= max_len by construction; tables sized max_len + 2
        counts[l as usize] += 1;
    }
    {
        let mut code = 0u64;
        let mut index = 0usize;
        for l in 1..=max_len {
            let li = l as usize;
            // lint:allow(no-index): li <= max_len; tables sized max_len + 2
            first_code[li] = code;
            // lint:allow(no-index): li <= max_len; tables sized max_len + 2
            first_index[li] = index;
            // lint:allow(no-index): li <= max_len; tables sized max_len + 2
            code = (code + counts[li] as u64) << 1;
            // lint:allow(no-index): li <= max_len; tables sized max_len + 2
            index += counts[li];
        }
    }
    let symbols_in_order: Vec<u64> = table.iter().map(|&(s, _, _)| s).collect();

    let mut reader = RefBitReader::new(payload);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let mut code = 0u64;
        let mut len = 0u32;
        loop {
            code = (code << 1) | reader.read_bit();
            len += 1;
            if len > max_len {
                return Err(DecodeError::Corrupt {
                    what: "huffman code exceeds max length",
                });
            }
            let l = len as usize;
            // lint:allow(no-index): l <= max_len and the tables were sized max_len + 2 above
            let (cnt, fc, fi) = (counts[l], first_code[l], first_index[l]);
            if cnt > 0 && code >= fc {
                let offset = (code - fc) as usize;
                if offset < cnt {
                    let sym = symbols_in_order
                        .get(fi + offset)
                        .ok_or(DecodeError::Corrupt {
                            what: "huffman canonical table overrun",
                        })?;
                    out.push(*sym);
                    break;
                }
            }
        }
    }
    Ok(out)
}

/// Scalar reference Huffman code-length builder: the original
/// `HashMap`-based heap construction, bit-for-bit the pre-rewrite code.
pub fn code_lengths_ref(freqs: &HashMap<u64, u64>) -> HashMap<u64, u32> {
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        // Tie-break on id for determinism.
        id: usize,
        kind: NodeKind,
    }
    #[derive(PartialEq, Eq)]
    enum NodeKind {
        Leaf(u64),
        Internal(Box<Node>, Box<Node>),
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // BinaryHeap is a max-heap; invert for min-heap behaviour.
            other
                .weight
                .cmp(&self.weight)
                .then_with(|| other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut lengths = HashMap::new();
    if freqs.is_empty() {
        return lengths;
    }
    if freqs.len() == 1 {
        if let Some(&s) = freqs.keys().next() {
            lengths.insert(s, 1);
        }
        return lengths;
    }

    let mut scale = 0u32;
    loop {
        let mut heap: std::collections::BinaryHeap<Node> = std::collections::BinaryHeap::new();
        let mut id = 0;
        let mut syms: Vec<(&u64, &u64)> = freqs.iter().collect();
        syms.sort(); // determinism across HashMap orderings
        for (&s, &w) in syms {
            heap.push(Node {
                weight: (w >> scale).max(1),
                id,
                kind: NodeKind::Leaf(s),
            });
            id += 1;
        }
        while heap.len() > 1 {
            let (Some(a), Some(b)) = (heap.pop(), heap.pop()) else {
                break;
            };
            heap.push(Node {
                weight: a.weight + b.weight,
                id,
                kind: NodeKind::Internal(Box::new(a), Box::new(b)),
            });
            id += 1;
        }
        let Some(root) = heap.pop() else {
            return lengths;
        };
        lengths.clear();
        let mut max_depth = 0;
        // Iterative DFS to assign depths.
        let mut stack = vec![(&root, 0u32)];
        while let Some((node, depth)) = stack.pop() {
            match &node.kind {
                NodeKind::Leaf(s) => {
                    lengths.insert(*s, depth.max(1));
                    max_depth = max_depth.max(depth);
                }
                NodeKind::Internal(a, b) => {
                    stack.push((a, depth + 1));
                    stack.push((b, depth + 1));
                }
            }
        }
        if max_depth <= MAX_CODE_LEN {
            return lengths;
        }
        scale += 4; // flatten the distribution and retry
    }
}

/// Scalar reference encoder: `HashMap` frequency counting and per-bit
/// MSB-first code emission through [`RefBitWriter`]. The production
/// encoder must reproduce these bytes exactly.
pub fn huffman_encode_ref(symbols: &[u64]) -> Vec<u8> {
    let mut freqs: HashMap<u64, u64> = HashMap::new();
    for &s in symbols {
        *freqs.entry(s).or_insert(0) += 1;
    }
    let lengths = code_lengths_ref(&freqs);
    let table = canonical_codes(&lengths);
    let codemap: HashMap<u64, (u64, u32)> = table.iter().map(|&(s, c, l)| (s, (c, l))).collect();

    let mut out = Vec::new();
    encode_uvarint(table.len() as u64, &mut out);
    for &(sym, _, len) in &table {
        encode_uvarint(sym, &mut out);
        encode_uvarint(len as u64, &mut out);
    }
    encode_uvarint(symbols.len() as u64, &mut out);

    let mut bits = RefBitWriter::new();
    for s in symbols {
        // Every input symbol was counted into `freqs`, so it has a code.
        let Some(&(code, len)) = codemap.get(s) else {
            debug_assert!(false, "symbol missing from code table");
            continue;
        };
        // Emit MSB-first so canonical decoding can walk bit by bit.
        for i in (0..len).rev() {
            bits.write_bit((code >> i) & 1);
        }
    }
    let payload = bits.into_bytes();
    encode_uvarint(payload.len() as u64, &mut out);
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------------------
// LZSS (scalar): byte-at-a-time match comparison and copy loops.
// ---------------------------------------------------------------------------

const WINDOW: usize = 1 << 16;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = MIN_MATCH + 255;
const MAX_CHAIN: usize = 64;
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
}

/// Scalar reference for [`crate::lossless::lzss_compress`].
pub fn lzss_compress_ref(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());

    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; data.len()];

    let mut i = 0;
    let mut flags_pos = out.len();
    out.push(0);
    let mut flag_bit = 0u32;

    macro_rules! bump_flags {
        () => {
            flag_bit += 1;
            if flag_bit == 8 {
                flag_bit = 0;
                flags_pos = out.len();
                out.push(0);
            }
        };
    }

    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash4(data, i);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && i - cand < WINDOW && chain < MAX_CHAIN {
                let limit = (data.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < limit && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l == limit {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
            prev[i] = head[h];
            head[h] = i;
        }

        if best_len >= MIN_MATCH {
            out[flags_pos] |= 1 << flag_bit;
            out.extend_from_slice(&(best_dist as u16).to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            let mut j = i + 1;
            while j < end {
                let h = hash4(data, j);
                prev[j] = head[h];
                head[h] = j;
                j += 1;
            }
            i += best_len;
        } else {
            out.push(data[i]);
            i += 1;
        }
        bump_flags!();
    }
    out
}

/// Scalar reference for [`crate::lossless::lzss_decompress`]: copies
/// matches one byte at a time.
pub fn lzss_decompress_ref(data: &[u8]) -> DecodeResult<Vec<u8>> {
    let header: [u8; 4] =
        data.get(..4)
            .and_then(|s| s.try_into().ok())
            .ok_or(DecodeError::Truncated {
                what: "lzss length header",
            })?;
    let n = u32::from_le_bytes(header) as usize;
    let cap = n.min(data.len().saturating_mul(MAX_MATCH + 1));
    let mut out = Vec::with_capacity(cap);
    let mut pos = 4;
    let mut flags = 0u8;
    let mut flag_bit = 8u32;
    while out.len() < n {
        if flag_bit == 8 {
            flags = *data.get(pos).ok_or(DecodeError::Truncated {
                what: "lzss flag byte",
            })?;
            pos += 1;
            flag_bit = 0;
        }
        if flags & (1 << flag_bit) != 0 {
            let (dist, len) = match data.get(pos..pos.saturating_add(3)) {
                Some(&[d0, d1, l]) => (
                    u16::from_le_bytes([d0, d1]) as usize,
                    l as usize + MIN_MATCH,
                ),
                _ => {
                    return Err(DecodeError::Truncated {
                        what: "lzss match token",
                    })
                }
            };
            pos += 3;
            if dist < 1 || dist > out.len() {
                return Err(DecodeError::Corrupt {
                    what: "lzss match offset out of range",
                });
            }
            let start = out.len() - dist;
            for k in 0..len {
                let b = *out.get(start + k).ok_or(DecodeError::Corrupt {
                    what: "lzss match copy",
                })?;
                out.push(b);
            }
        } else {
            out.push(*data.get(pos).ok_or(DecodeError::Truncated {
                what: "lzss literal",
            })?);
            pos += 1;
        }
        flag_bit += 1;
    }
    if out.len() != n {
        return Err(DecodeError::Corrupt {
            what: "lzss decoded length mismatch",
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// ZFP plane coder (scalar): per-coefficient plane gather/scatter.
// ---------------------------------------------------------------------------

use crate::bitstream::{BitReader, BitWriter};

const INT_PREC: u32 = 64;

/// Length of the prefix of coefficients holding any set bit at plane `k`
/// or above.
fn significant_prefix(uints: &[u64], k: u32) -> usize {
    let mut n = 0;
    for (i, &u) in uints.iter().enumerate() {
        if u >> k != 0 {
            n = i + 1;
        }
    }
    n
}

/// Scalar reference for ZFP's embedded plane encoder
/// (`zfp::codec::encode_ints`): gathers each bit plane coefficient by
/// coefficient.
pub fn encode_ints_ref(uints: &[u64], maxprec: u32, out: &mut BitWriter) {
    let size = uints.len();
    let kmin = INT_PREC.saturating_sub(maxprec);
    let mut n = 0usize;
    for k in (kmin..INT_PREC).rev() {
        let mut x: u64 = 0;
        for (i, &u) in uints.iter().enumerate() {
            x |= ((u >> k) & 1) << i;
        }
        out.write_bits(x, n as u32);
        x = if n >= 64 { 0 } else { x >> n };
        let mut m = n;
        while m < size {
            let any = x != 0;
            out.write_bit(any as u64);
            if !any {
                break;
            }
            loop {
                if m == size - 1 {
                    m = size;
                    break;
                }
                let bit = x & 1;
                x >>= 1;
                m += 1;
                out.write_bit(bit);
                if bit == 1 {
                    break;
                }
            }
        }
        n = significant_prefix(uints, k);
    }
}

/// Scalar reference for ZFP's embedded plane decoder
/// (`zfp::codec::decode_ints`).
pub fn decode_ints_ref(uints: &mut [u64], maxprec: u32, input: &mut BitReader<'_>) {
    let size = uints.len();
    uints.fill(0);
    let kmin = INT_PREC.saturating_sub(maxprec);
    let mut n = 0usize;
    for k in (kmin..INT_PREC).rev() {
        let mut x = input.read_bits(n as u32);
        let mut m = n;
        while m < size {
            if input.read_bit() == 0 {
                break;
            }
            loop {
                if m == size - 1 {
                    x |= 1 << m;
                    m = size;
                    break;
                }
                let bit = input.read_bit();
                if bit == 1 {
                    x |= 1 << m;
                    m += 1;
                    break;
                }
                m += 1;
            }
        }
        for i in 0..size {
            // lint:allow(no-index): i < size = uints.len()
            uints[i] |= ((x >> i) & 1) << k;
        }
        n = significant_prefix(uints, k);
    }
}
