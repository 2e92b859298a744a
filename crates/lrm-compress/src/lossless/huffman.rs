//! Canonical Huffman coding over `u64` symbol streams.
//!
//! SZ encodes its quantization factors with Huffman coding; the alphabet is
//! sparse (most codes cluster around the zero-delta bin), so we build the
//! tree only over observed symbols and ship a compact (symbol, code-length)
//! table in the header.
//!
//! Hot-path engineering (byte layout unchanged; the scalar decoder is
//! preserved as [`crate::reference::huffman_decode_ref`] and the two are
//! held byte-identical by the `kernel_equivalence` suite):
//!
//! * code lengths come from a two-queue construction over index arrays
//!   (leaves sorted once, internal nodes queued in creation order) that
//!   pops nodes in exactly the order of the original binary heap, so the
//!   tree is the same;
//! * when the alphabet is small (the SZ quant-code case: symbols fit in
//!   `2^16 + 1`), frequencies are counted, and symbols mapped to codes,
//!   through one per-thread table that is all zero between calls; a call
//!   touches only the slots of the symbols it holds, so it costs
//!   O(n + d log d) for `n` symbols with `d` distinct. Arbitrary `u64`
//!   symbols fall back to a `HashMap`;
//! * codes are pre-reversed once so each symbol is emitted with a single
//!   `write_bits` call instead of a per-bit loop (the wire stays MSB-first
//!   within each code, as before);
//! * decode uses a primary `TABLE_BITS`-bit lookup table — one peek,
//!   one table load, one consume per symbol — falling back to the
//!   canonical per-length walk only for codes longer than the table or
//!   for corrupt (non-canonical) shipped tables.

use super::varint::{decode_uvarint, encode_uvarint};
use crate::bitstream::{BitReader, BitWriter};
use crate::error::{DecodeError, DecodeResult};
use std::cell::Cell;
use std::collections::HashMap;

/// Maximum admitted code length. Frequencies are flattened and the tree is
/// rebuilt if this depth is exceeded (only possible for pathological
/// distributions over huge alphabets).
const MAX_CODE_LEN: u32 = 48;

/// Width of the primary decode lookup table. 2^11 packed-u32 entries is
/// 8 KiB — resident in L1 — and covers every code the SZ quantizer emits
/// in practice (the hot central bins are 1..~12 bits long).
const TABLE_BITS: u32 = 11;

/// Alphabets whose max symbol is below this are counted and coded through
/// a per-thread dense table of this many `u64` slots, 1 MiB (SZ quant
/// codes max out at `2^16 + 1` under SZ's 16-bit quantizer, well within
/// range).
const DENSE_LIMIT: u64 = 1 << 17;

/// Reverses the low `len` (>= 1) bits of `code`. Codes are assigned
/// MSB-first by the canonical construction but the bitstream is packed
/// LSB-first, so both the single-call emitter and the lookup-table index
/// need the bit-reversed image.
#[inline]
fn rev_code(code: u64, len: u32) -> u64 {
    debug_assert!((1..=64).contains(&len));
    code.reverse_bits() >> (64 - len)
}

/// Computes Huffman code lengths for `freqs` (symbol, count) pairs sorted
/// by symbol.
///
/// Node `i < freqs.len()` is the leaf `freqs[i]`; internal nodes take the
/// next ids in creation order, and every merge pops the two nodes least
/// in (weight, id) order. Leaves are sorted by that key once. Internal
/// nodes are created with non-decreasing weights and rising ids, so they
/// queue in that order already, and the lesser of the two queue heads is
/// the node a binary heap would pop. The tree, and so every emitted byte,
/// is that of the heap construction kept as
/// [`crate::reference::code_lengths_ref`].
fn code_lengths(freqs: &[(u64, u64)]) -> Vec<(u64, u32)> {
    debug_assert!(freqs.windows(2).all(|w| w[0].0 < w[1].0));
    let n = freqs.len();
    if n <= 1 {
        return freqs.iter().map(|&(s, _)| (s, 1)).collect();
    }

    let mut scale = 0u32;
    loop {
        let mut leaves: Vec<(u64, usize)> = freqs
            .iter()
            .enumerate()
            .map(|(id, &(_, w))| ((w >> scale).max(1), id))
            .collect();
        leaves.sort_unstable();
        // Internal node `n + j` is `merged[j]`: its weight and children.
        let mut merged: Vec<(u64, [usize; 2])> = Vec::with_capacity(n - 1);
        let (mut next_leaf, mut next_merged) = (0, 0);
        let mut pop = |merged: &[(u64, [usize; 2])]| {
            let leaf = leaves.get(next_leaf).copied();
            let inner = merged.get(next_merged).map(|&(w, _)| (w, n + next_merged));
            match (leaf, inner) {
                (Some(l), Some(m)) if m < l => {
                    next_merged += 1;
                    Some(m)
                }
                (Some(l), _) => {
                    next_leaf += 1;
                    Some(l)
                }
                (None, m) => {
                    next_merged += 1;
                    m
                }
            }
        };
        while merged.len() < n - 1 {
            let (Some((wa, a)), Some((wb, b))) = (pop(&merged), pop(&merged)) else {
                break;
            };
            merged.push((wa + wb, [a, b]));
        }
        // A node is created after its children, so walking the internal
        // nodes from the root down sets each depth before it is read.
        let mut depth = vec![0u32; n + merged.len()];
        for (j, &(_, kids)) in merged.iter().enumerate().rev() {
            let d = depth[n + j] + 1;
            for k in kids {
                depth[k] = d;
            }
        }
        let max_depth = depth[..n].iter().copied().max().unwrap_or(0);
        if max_depth <= MAX_CODE_LEN {
            return freqs
                .iter()
                .zip(&depth)
                .map(|(&(s, _), &d)| (s, d))
                .collect();
        }
        scale += 4; // flatten the distribution and retry
    }
}

/// Canonical code table: for each symbol its (code, length), with codes
/// assigned in (length, symbol) order.
fn canonical_codes(lengths: &[(u64, u32)]) -> Vec<(u64, u64, u32)> {
    let mut entries: Vec<(u64, u32)> = lengths.to_vec();
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

thread_local! {
    /// This thread's `DENSE_LIMIT`-slot table for [`huffman_encode`]. It
    /// is all zero whenever it sits here: a call takes it out and puts it
    /// back only once it has zeroed the slots it used, so an unwinding
    /// call drops it and the next call starts from a fresh one.
    static DENSE_SLOTS: Cell<Option<Vec<u64>>> = const { Cell::new(None) };
}

/// Encodes `symbols` into a self-describing Huffman stream.
///
/// Layout: `nsyms` uvarint, then `nsyms` × (symbol uvarint, length uvarint),
/// then `count` uvarint, then the bit-packed code stream.
///
/// An alphabet below `DENSE_LIMIT` (every SZ quantization code) is counted
/// and coded through this thread's dense slot table, touching only the
/// slots of the symbols it holds: the cost is O(n + d log d) for `n`
/// symbols of which `d` are distinct. Larger symbols go through maps.
pub fn huffman_encode(symbols: &[u64]) -> Vec<u8> {
    if symbols.iter().any(|&s| s >= DENSE_LIMIT) {
        return encode_sparse(symbols);
    }
    let mut slots = DENSE_SLOTS
        .try_with(Cell::take)
        .ok()
        .flatten()
        .unwrap_or_else(|| vec![0; DENSE_LIMIT as usize]);
    let out = encode_dense(symbols, &mut slots);
    // `encode_dense` left every slot zero again.
    let _ = DENSE_SLOTS.try_with(|t| t.set(Some(slots)));
    out
}

/// [`huffman_encode`] over symbols below `DENSE_LIMIT`. `slots` is all
/// zero on entry and on return; in between, the slot of each symbol seen
/// holds its count, then its packed code `(reversed code << 6) | length`.
fn encode_dense(symbols: &[u64], slots: &mut [u64]) -> Vec<u8> {
    let mut seen = Vec::new();
    for &s in symbols {
        let slot = &mut slots[s as usize];
        if *slot == 0 {
            seen.push(s);
        }
        *slot += 1;
    }
    seen.sort_unstable();
    let freqs: Vec<(u64, u64)> = seen.iter().map(|&s| (s, slots[s as usize])).collect();
    let table = canonical_codes(&code_lengths(&freqs));
    for &(s, c, l) in &table {
        slots[s as usize] = (rev_code(c, l) << 6) | l as u64;
    }
    let out = write_stream(symbols, &table, |s| {
        let packed = slots[s as usize];
        (packed >> 6, (packed & 63) as u32)
    });
    for &s in &seen {
        slots[s as usize] = 0;
    }
    out
}

/// [`huffman_encode`] over arbitrary `u64` symbols, counted and coded
/// through maps.
fn encode_sparse(symbols: &[u64]) -> Vec<u8> {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for &s in symbols {
        *counts.entry(s).or_insert(0) += 1;
    }
    let mut freqs: Vec<(u64, u64)> = counts.into_iter().collect();
    freqs.sort_unstable();
    let table = canonical_codes(&code_lengths(&freqs));
    let codes: HashMap<u64, (u64, u32)> = table
        .iter()
        .map(|&(s, c, l)| (s, (rev_code(c, l), l)))
        .collect();
    write_stream(symbols, &table, |s| {
        codes.get(&s).copied().unwrap_or((0, 0))
    })
}

/// Writes the stream of `symbols` under the canonical `table`;
/// `code_of` gives a symbol's bit-reversed code and its length, so each
/// symbol is one `write_bits` call.
fn write_stream(
    symbols: &[u64],
    table: &[(u64, u64, u32)],
    code_of: impl Fn(u64) -> (u64, u32),
) -> Vec<u8> {
    let mut out = Vec::new();
    encode_uvarint(table.len() as u64, &mut out);
    for &(sym, _, len) in table {
        encode_uvarint(sym, &mut out);
        encode_uvarint(len as u64, &mut out);
    }
    encode_uvarint(symbols.len() as u64, &mut out);

    let mut bits = BitWriter::with_capacity_bits(symbols.len() * 4);
    for &s in symbols {
        let (rc, len) = code_of(s);
        // Every input symbol was counted into the table, so it has a code.
        debug_assert!(len > 0, "symbol missing from code table");
        bits.write_bits(rc, len);
    }
    let payload = bits.into_bytes();
    encode_uvarint(payload.len() as u64, &mut out);
    out.extend_from_slice(&payload);
    out
}

/// Canonical per-length walk, shared by the table-miss path (seeded with
/// the already-consumed prefix) and the corrupt-table fallback (seeded
/// with `code = 0, len = 0`). Returns the index into the (length,
/// symbol)-ordered table. Byte-for-byte the reference decoder's loop.
/// Kept out of line so the inlined table-hit path in
/// [`HuffmanDecoder::next_symbol`] stays small.
#[cold]
#[inline(never)]
fn walk_decode(
    reader: &mut BitReader<'_>,
    mut code: u64,
    mut len: u32,
    max_len: u32,
    counts: &[usize],
    first_code: &[u64],
    first_index: &[usize],
) -> DecodeResult<usize> {
    loop {
        code = (code << 1) | reader.read_bit();
        len += 1;
        if len > max_len {
            return Err(DecodeError::Corrupt {
                what: "huffman code exceeds max length",
            });
        }
        let l = len as usize;
        let (Some(&cnt), Some(&fc), Some(&fi)) =
            (counts.get(l), first_code.get(l), first_index.get(l))
        else {
            return Err(DecodeError::Corrupt {
                what: "huffman canonical table overrun",
            });
        };
        if cnt > 0 && code >= fc {
            let offset = (code - fc) as usize;
            if offset < cnt {
                return Ok(fi + offset);
            }
        }
    }
}

/// Streaming decoder over a [`huffman_encode`] stream: parses the header
/// and builds the decode tables once, then yields symbols one at a time.
///
/// [`huffman_decode`] is a thin collect-all wrapper around this type; SZ
/// decode drives it directly so quantization codes feed the Lorenzo
/// reconstruction as they are decoded, without materializing the full
/// `Vec<u64>` (for a 64^3 field that intermediate is 2 MiB written and
/// immediately re-read).
pub struct HuffmanDecoder<'a> {
    reader: BitReader<'a>,
    /// Symbols left to decode; [`Self::next_symbol`] past this errors.
    remaining: usize,
    table_ok: bool,
    tbits: u32,
    max_len: u32,
    counts: Vec<usize>,
    first_code: Vec<u64>,
    first_index: Vec<usize>,
    symbols_in_order: Vec<u64>,
    lut: Vec<u32>,
}

impl<'a> HuffmanDecoder<'a> {
    /// Parses the header and builds the decode tables. Error cases and
    /// ordering match the historical monolithic decoder exactly.
    pub fn new(data: &'a [u8]) -> DecodeResult<Self> {
        const TRUNC: DecodeError = DecodeError::Truncated {
            what: "huffman header",
        };
        let mut pos = 0;
        let nsyms = decode_uvarint(data, &mut pos).ok_or(TRUNC)? as usize;
        // Each table entry occupies at least two bytes (two uvarints), so a
        // count past data.len()/2 is unsatisfiable — reject before allocating.
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
        let payload =
            data.get(pos..pos.saturating_add(payload_len))
                .ok_or(DecodeError::Truncated {
                    what: "huffman payload",
                })?;

        if count == 0 {
            // Empty stream: no tables needed, `next_symbol` is never legal.
            return Ok(Self {
                reader: BitReader::new(payload),
                remaining: 0,
                table_ok: true,
                tbits: 0,
                max_len: 0,
                counts: Vec::new(),
                first_code: Vec::new(),
                first_index: Vec::new(),
                symbols_in_order: Vec::new(),
                lut: Vec::new(),
            });
        }
        if nsyms == 0 {
            return Err(DecodeError::Corrupt {
                what: "huffman symbols without a code table",
            });
        }
        // Every symbol consumes at least one payload bit.
        if count > payload.len().saturating_mul(8) {
            return Err(DecodeError::Corrupt {
                what: "huffman symbol count exceeds payload bits",
            });
        }

        let length_pairs: Vec<(u64, u32)> = lengths.into_iter().collect();
        let table = canonical_codes(&length_pairs);
        // Group by length for canonical decoding: first_code and symbols per len.
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

        // Primary lookup table over the peeked next `tbits` stream bits
        // (LSB-first, so codes are bit-reversed into the index). Each packed
        // entry is `(table_index << 6) | code_len`; 0 means "no code of
        // length <= tbits matches" (valid because code_len >= 1). A code of
        // length L fills every index whose low L bits equal its reversed
        // image. A shipped table that is not a prefix code can overflow the
        // canonical assignment (code >= 2^len); in that case the table is
        // abandoned and the per-length walk — whose behaviour on such input
        // is the reference semantics — handles the whole payload.
        let tbits = max_len.min(TABLE_BITS);
        let mut lut = vec![0u32; 1usize << tbits];
        let mut table_ok = true;
        for (i, &(_, code, len)) in table.iter().enumerate() {
            if len > tbits {
                break; // table is (length, symbol)-sorted
            }
            if code >> len != 0 {
                table_ok = false;
                break;
            }
            let entry = ((i as u32) << 6) | len;
            let mut fill = rev_code(code, len) as usize;
            let step = 1usize << len;
            while let Some(slot) = lut.get_mut(fill) {
                *slot = entry;
                fill += step;
            }
        }

        Ok(Self {
            reader: BitReader::new(payload),
            remaining: count,
            table_ok,
            tbits,
            max_len,
            counts,
            first_code,
            first_index,
            symbols_in_order,
            lut,
        })
    }

    /// Symbols not yet decoded.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Decodes the next symbol. Calling past [`Self::remaining`] is a
    /// [`DecodeError::Corrupt`]; the caller decides how many of the
    /// encoded symbols it actually needs.
    ///
    /// `inline(always)` so the reader's bit buffer lives in registers
    /// across a caller's decode loop; the cold walk paths are out of
    /// line, keeping the inlined body to peek/lookup/consume.
    #[inline(always)]
    pub fn next_symbol(&mut self) -> DecodeResult<u64> {
        if self.remaining == 0 {
            return Err(DecodeError::Corrupt {
                what: "huffman payload exhausted",
            });
        }
        self.remaining -= 1;
        let table_index = if self.table_ok {
            let peeked = self.reader.peek_bits(self.tbits);
            let entry = self.lut.get(peeked as usize).copied().unwrap_or(0);
            if entry != 0 {
                self.reader.consume_bits(entry & 63);
                (entry >> 6) as usize
            } else {
                // Longer than the table: seed the walk with the peeked
                // prefix (re-reversed into MSB-first code order).
                self.reader.consume_bits(self.tbits);
                walk_decode(
                    &mut self.reader,
                    rev_code(peeked, self.tbits),
                    self.tbits,
                    self.max_len,
                    &self.counts,
                    &self.first_code,
                    &self.first_index,
                )?
            }
        } else {
            walk_decode(
                &mut self.reader,
                0,
                0,
                self.max_len,
                &self.counts,
                &self.first_code,
                &self.first_index,
            )?
        };
        self.symbols_in_order
            .get(table_index)
            .copied()
            .ok_or(DecodeError::Corrupt {
                what: "huffman canonical table overrun",
            })
    }
}

/// Decodes a stream produced by [`huffman_encode`]. Returns a
/// [`DecodeError`] on corrupt or truncated input; never panics.
pub fn huffman_decode(data: &[u8]) -> DecodeResult<Vec<u64>> {
    let mut dec = HuffmanDecoder::new(data)?;
    let mut out = Vec::with_capacity(dec.remaining());
    while dec.remaining() > 0 {
        out.push(dec.next_symbol()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{code_lengths_ref, huffman_decode_ref, huffman_encode_ref};

    #[test]
    fn roundtrip_skewed_distribution() {
        // SZ-like: mostly the central bin with occasional excursions.
        let mut s = vec![32768u64; 5000];
        for i in 0..200 {
            s[i * 25] = 32768 + (i % 7) as u64 - 3;
        }
        let e = huffman_encode(&s);
        assert_eq!(huffman_decode(&e), Ok(s.clone()));
        // Should beat 2 bytes/symbol trivially.
        assert!(e.len() < s.len());
    }

    #[test]
    fn roundtrip_single_symbol() {
        let s = vec![7u64; 1000];
        let e = huffman_encode(&s);
        assert_eq!(huffman_decode(&e), Ok(s.clone()));
        assert!(
            e.len() < 200,
            "single-symbol stream should be ~bits: {}",
            e.len()
        );
    }

    #[test]
    fn roundtrip_empty() {
        let e = huffman_encode(&[]);
        assert_eq!(huffman_decode(&e), Ok(vec![]));
    }

    #[test]
    fn roundtrip_uniform_alphabet() {
        let s: Vec<u64> = (0..4096).map(|i| i % 256).collect();
        assert_eq!(huffman_decode(&huffman_encode(&s)), Ok(s));
    }

    #[test]
    fn roundtrip_large_symbol_values() {
        let s = vec![u64::MAX, 0, u64::MAX / 2, u64::MAX, 1];
        assert_eq!(huffman_decode(&huffman_encode(&s)), Ok(s));
    }

    #[test]
    fn decode_rejects_truncation() {
        let s: Vec<u64> = (0..100).collect();
        let e = huffman_encode(&s);
        assert!(huffman_decode(&e[..3]).is_err());
    }

    #[test]
    fn encoding_is_deterministic() {
        let s: Vec<u64> = (0..1000).map(|i| (i * i) % 50).collect();
        assert_eq!(huffman_encode(&s), huffman_encode(&s));
    }

    #[test]
    fn two_symbol_alphabet_uses_one_bit_each() {
        let s: Vec<u64> = (0..8000).map(|i| i % 2).collect();
        let e = huffman_encode(&s);
        // ~1000 bytes payload + small header.
        assert!(e.len() < 1100, "got {}", e.len());
        assert_eq!(huffman_decode(&e), Ok(s));
    }

    #[test]
    fn prop_roundtrip_random_symbols() {
        for seed in 0..48u64 {
            let mut rng = lrm_rng::Rng64::new(seed);
            let n = rng.range_usize(2000);
            let s: Vec<u64> = (0..n).map(|_| rng.range_u64(500)).collect();
            assert_eq!(huffman_decode(&huffman_encode(&s)), Ok(s));
        }
    }

    #[test]
    fn encode_matches_reference_bytes() {
        // Dense path (small alphabet), sparse path (huge symbols), and
        // the degenerate cases must all keep the original byte layout.
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![7; 321],
            (0..4096).map(|i| i % 256).collect(),
            vec![u64::MAX, 0, u64::MAX / 2, u64::MAX, 1, 1, 1],
            (0..3000).map(|i| 32768 + (i * i) % 13).collect(),
        ];
        for s in cases {
            assert_eq!(huffman_encode(&s), huffman_encode_ref(&s));
        }
        for seed in 0..16u64 {
            let mut rng = lrm_rng::Rng64::new(seed);
            let n = rng.range_usize(3000);
            let s: Vec<u64> = (0..n).map(|_| rng.range_u64(700)).collect();
            assert_eq!(huffman_encode(&s), huffman_encode_ref(&s));
        }
    }

    #[test]
    fn code_lengths_match_the_heap_builder_through_the_depth_limit() {
        // Weight tables no real input reaches: Fibonacci weights over 60
        // symbols build a 59-deep tree, past MAX_CODE_LEN, which only
        // about 10^10 input symbols could do, so the `scale` retry runs.
        let mut fib = vec![1u64, 1];
        while fib.len() < 60 {
            fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
        }
        let mut dominant = vec![(0u64, 1u64 << 40)];
        dominant.extend((1..40u64).map(|s| (s * 3, 1 + s % 3)));
        let cases: Vec<(&str, Vec<(u64, u64)>)> = vec![
            (
                "fibonacci",
                fib.iter()
                    .enumerate()
                    .map(|(s, &w)| (s as u64 * 7, w))
                    .collect(),
            ),
            (
                "fibonacci, reversed",
                fib.iter()
                    .rev()
                    .enumerate()
                    .map(|(s, &w)| (s as u64, w))
                    .collect(),
            ),
            ("all equal", (0..1000u64).map(|s| (s, 5)).collect()),
            ("one dominant", dominant),
            ("two symbols", vec![(3, 1), (u64::MAX, 9)]),
        ];
        for (what, freqs) in cases {
            let lengths = code_lengths(&freqs);
            let heap = code_lengths_ref(&freqs.iter().copied().collect());
            assert_eq!(lengths.len(), heap.len(), "{what}");
            for (s, len) in &lengths {
                assert_eq!(heap.get(s), Some(len), "{what}: symbol {s}");
            }
            assert!(lengths
                .iter()
                .all(|&(_, l)| (1..=MAX_CODE_LEN).contains(&l)));
        }
    }

    #[test]
    fn alternating_alphabets_on_one_thread_match_the_reference() {
        // The dense table is reused by every call on this thread; each
        // call must see it clean whatever the previous call counted.
        let top = DENSE_LIMIT - 1;
        let calls: Vec<Vec<u64>> = vec![
            (0..3000).map(|i| 32768 + (i * i) % 13).collect(),
            vec![top; 50],
            vec![],
            (0..5000).map(|i| i % 700).collect(),
            vec![0, top, DENSE_LIMIT, 5],
            vec![32768; 900],
            (0..4096).map(|i| (i * 37) % DENSE_LIMIT).collect(),
            (0..3000).map(|i| 32768 + (i * i) % 13).collect(),
            vec![top, 0, top],
        ];
        for symbols in calls {
            assert_eq!(huffman_encode(&symbols), huffman_encode_ref(&symbols));
        }
    }

    #[test]
    fn decode_matches_reference_including_long_codes() {
        // Fibonacci-ish weights force a deep, skewed tree whose long
        // codes exceed TABLE_BITS and exercise the walk fallback.
        let mut s = Vec::new();
        let mut w = 1u64;
        for sym in 0..24u64 {
            for _ in 0..w.min(100_000) {
                s.push(sym);
            }
            w = w.saturating_mul(2);
        }
        let e = huffman_encode(&s);
        let fast = huffman_decode(&e);
        let slow = huffman_decode_ref(&e);
        assert_eq!(fast, slow);
        assert_eq!(fast, Ok(s));
    }

    #[test]
    fn corrupt_streams_agree_with_reference() {
        let s: Vec<u64> = (0..600).map(|i| (i * 31) % 90).collect();
        let e = huffman_encode(&s);
        let mut rng = lrm_rng::Rng64::new(9);
        for _ in 0..400 {
            let mut bad = e.clone();
            let i = rng.range_usize(bad.len());
            bad[i] ^= 1 << rng.range_u64(8);
            assert_eq!(huffman_decode(&bad), huffman_decode_ref(&bad));
        }
        for cut in 0..e.len() {
            assert_eq!(huffman_decode(&e[..cut]), huffman_decode_ref(&e[..cut]));
        }
    }
}
