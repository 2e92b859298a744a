//! Bit-level I/O used by every entropy coder in this crate.
//!
//! Bits are packed LSB-first into bytes, matching the convention of ZFP's
//! stream layer: the first bit written becomes bit 0 of byte 0.
//!
//! Both endpoints are **word-buffered**: the writer accumulates up to 63
//! pending bits in a `u64` and spills eight bytes at a time, and the
//! reader keeps a cached window of up to 64 stream bits, so `write_bits`
//! and `read_bits` are single shift/mask operations instead of per-bit
//! loops. The byte layout is identical to the original scalar
//! implementation (preserved as [`crate::reference::RefBitWriter`] /
//! [`crate::reference::RefBitReader`] and enforced byte-for-byte by the
//! `kernel_equivalence` differential suite), so every previously written
//! stream still decodes. Each stream is written front to back by one
//! writer; no coder splits a stream into pieces to join afterwards.
//!
//! [`ByteReader`] is the byte-level counterpart every container, header
//! and wire payload is parsed through: it alone decides how an untrusted
//! length, float or shape becomes a value, and which typed
//! [`DecodeError`] a short or overflowing read gives.

use crate::error::{DecodeError, DecodeResult};
use crate::lossless::varint::decode_uvarint;
use crate::Shape;

/// Bounds-checked little-endian cursor over untrusted bytes. Every
/// accessor takes the `what` its call site names and returns
/// [`DecodeError::Truncated`] when the bytes run out, or
/// [`DecodeError::Corrupt`] when a claimed size overflows; none panics.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the first byte of `b`.
    pub fn new(b: &'a [u8]) -> Self {
        Self { b, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> DecodeResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(DecodeError::Corrupt { what })?;
        let s = self
            .b
            .get(self.pos..end)
            .ok_or(DecodeError::Truncated { what })?;
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self, what: &'static str) -> DecodeResult<[u8; N]> {
        self.take(N, what)?
            .try_into()
            .map_err(|_| DecodeError::Truncated { what })
    }

    /// One byte.
    pub fn u8(&mut self, what: &'static str) -> DecodeResult<u8> {
        self.array::<1>(what).map(|[v]| v)
    }

    /// A `u16`, little-endian.
    pub fn u16(&mut self, what: &'static str) -> DecodeResult<u16> {
        self.array(what).map(u16::from_le_bytes)
    }

    /// A `u32`, little-endian.
    pub fn u32(&mut self, what: &'static str) -> DecodeResult<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A `u64`, little-endian.
    pub fn u64(&mut self, what: &'static str) -> DecodeResult<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// An `f64` from its little-endian bits.
    pub fn f64(&mut self, what: &'static str) -> DecodeResult<f64> {
        self.array(what).map(f64::from_le_bytes)
    }

    /// An unsigned LEB128 varint; an over-long one (past 64 bits) reads
    /// as truncated, as in [`decode_uvarint`].
    pub fn varint(&mut self, what: &'static str) -> DecodeResult<u64> {
        decode_uvarint(self.b, &mut self.pos).ok_or(DecodeError::Truncated { what })
    }

    /// `count` little-endian `f64`s. The buffer is sized from the bytes
    /// [`ByteReader::take`] bounds-checked, never from the claimed count,
    /// so a hostile count cannot commit the decoder to a larger buffer.
    pub fn f64s(&mut self, count: usize, what: &'static str) -> DecodeResult<Vec<f64>> {
        let nbytes = count.checked_mul(8).ok_or(DecodeError::Corrupt { what })?;
        let raw = self.take(nbytes, what)?;
        let mut out = Vec::with_capacity(raw.len() / 8);
        for c in raw.chunks_exact(8) {
            let bits = c.try_into().map_err(|_| DecodeError::Truncated { what })?;
            out.push(f64::from_le_bytes(bits));
        }
        Ok(out)
    }

    /// A grid shape framed as 3 × `u32` extents. The element count is
    /// checked for overflow here, so [`Shape::len`] cannot overflow on
    /// the result.
    pub fn shape(&mut self, what: &'static str) -> DecodeResult<Shape> {
        let dims = [
            self.u32(what)? as usize,
            self.u32(what)? as usize,
            self.u32(what)? as usize,
        ];
        let [d0, d1, d2] = dims;
        d0.checked_mul(d1.max(1))
            .and_then(|p| p.checked_mul(d2.max(1)))
            .ok_or(DecodeError::Corrupt { what })?;
        Ok(Shape { dims })
    }

    /// Every remaining byte (consumes the cursor's tail).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = self.b.get(self.pos..).unwrap_or(&[]);
        self.pos = self.b.len();
        s
    }

    /// [`DecodeError::Corrupt`] unless every byte was consumed.
    pub fn finish(&self, what: &'static str) -> DecodeResult<()> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(DecodeError::Corrupt { what })
        }
    }
}

/// Append-only bit writer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    /// Completed bytes only; pending bits live in `acc`.
    bytes: Vec<u8>,
    /// Pending bits, LSB-first; low `acc_bits` bits are valid.
    acc: u64,
    /// Number of valid bits in `acc` (invariant: 0..=63 between calls).
    acc_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with pre-reserved capacity for `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bits / 8 + 8),
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Spills the full 64-bit accumulator into the byte buffer.
    #[inline]
    fn flush_word(&mut self) {
        self.bytes.extend_from_slice(&self.acc.to_le_bytes());
        self.acc = 0;
        self.acc_bits = 0;
    }

    /// Writes a single bit (the LSB of `bit`).
    #[inline]
    pub fn write_bit(&mut self, bit: u64) {
        self.acc |= (bit & 1) << self.acc_bits;
        self.acc_bits += 1;
        if self.acc_bits == 64 {
            self.flush_word();
        }
    }

    /// Writes the low `n` bits of `value`, LSB first. `n` must be <= 64.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let v = if n == 64 {
            value
        } else {
            value & ((1u64 << n) - 1)
        };
        let free = 64 - self.acc_bits; // 1..=64 by the acc_bits invariant
        self.acc |= v << self.acc_bits;
        if n >= free {
            // The accumulator is exactly full: the low `free` bits of `v`
            // landed in it. Spill, then stash the remaining high bits.
            // `free == 64` only when the accumulator was empty and n == 64,
            // in which case all of `v` was flushed (shift of 64 would be UB,
            // hence the explicit branch).
            let spilled = self.acc;
            self.bytes.extend_from_slice(&spilled.to_le_bytes());
            self.acc = if free == 64 { 0 } else { v >> free };
            self.acc_bits = n - free;
        } else {
            self.acc_bits += n;
        }
    }

    /// Total number of bits written so far.
    pub fn len_bits(&self) -> usize {
        self.bytes.len() * 8 + self.acc_bits as usize
    }

    /// Finishes the stream, zero-padding the last byte.
    pub fn into_bytes(mut self) -> Vec<u8> {
        let pending = self.acc.to_le_bytes();
        let tail = (self.acc_bits as usize).div_ceil(8);
        self.bytes.extend_from_slice(&pending[..tail]);
        self.bytes
    }

    /// Borrow of the completed byte buffer. Up to 63 pending tail bits
    /// are still buffered in the accumulator and are **not** visible
    /// here; use [`BitWriter::into_bytes`] for the full stream.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Bit reader over a byte slice, LSB-first (mirror of [`BitWriter`]).
///
/// Reads past the end of the stream yield zeros (ZFP stream semantics),
/// which lets a fixed-precision decoder stop early safely.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Cached stream bits, LSB-aligned: the next unread bit is bit 0.
    word: u64,
    /// Number of valid bits in `word` (0..=64).
    avail: u32,
    /// Index of the next byte not yet loaded into `word`.
    next_byte: usize,
    /// Bits consumed past the end of the stream (reads returned zeros).
    overrun: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            word: 0,
            avail: 0,
            next_byte: 0,
            overrun: 0,
        }
    }

    /// Tops up the cached word from the byte buffer. After this, `avail`
    /// is at least 57 unless the stream is exhausted.
    #[inline]
    fn refill(&mut self) {
        if let Some(chunk) = self
            .bytes
            .get(self.next_byte..self.next_byte.saturating_add(8))
        {
            // Whole-word load: take as many complete bytes as fit.
            let mut w = [0u8; 8];
            w.copy_from_slice(chunk);
            let loaded = u64::from_le_bytes(w);
            let take_bytes = ((64 - self.avail) / 8) as usize;
            let mask = if take_bytes == 8 {
                u64::MAX
            } else {
                (1u64 << (8 * take_bytes)) - 1
            };
            self.word |= (loaded & mask) << self.avail;
            self.avail += 8 * take_bytes as u32;
            self.next_byte += take_bytes;
        } else {
            // Near the end: load the remaining bytes one at a time.
            while self.avail <= 56 {
                let Some(&b) = self.bytes.get(self.next_byte) else {
                    break;
                };
                self.word |= (b as u64) << self.avail;
                self.avail += 8;
                self.next_byte += 1;
            }
        }
    }

    /// Reads one bit; returns 0 past the end of the stream.
    #[inline]
    pub fn read_bit(&mut self) -> u64 {
        if self.avail == 0 {
            self.refill();
            if self.avail == 0 {
                self.overrun += 1;
                return 0;
            }
        }
        let bit = self.word & 1;
        self.word >>= 1;
        self.avail -= 1;
        bit
    }

    /// Reads `n` bits (LSB first), zero-extended. `n` must be <= 64; the
    /// `n == 64` shift boundary is handled explicitly.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 64);
        if n == 0 {
            return 0;
        }
        if self.avail < n {
            self.refill();
        }
        if n <= self.avail {
            let v = if n == 64 {
                self.word
            } else {
                self.word & ((1u64 << n) - 1)
            };
            // n == 64 implies avail == 64 and the whole word is consumed;
            // shifting by 64 is UB, so branch.
            self.word = if n == 64 { 0 } else { self.word >> n };
            self.avail -= n;
            return v;
        }
        // Split read: a refill cannot always reach 64 valid bits (it only
        // loads whole bytes), and near the end of the stream fewer bits
        // remain. Take everything cached, refill, then take the rest.
        let take = self.avail;
        let lo = if take == 0 {
            0
        } else if take == 64 {
            self.word
        } else {
            self.word & ((1u64 << take) - 1)
        };
        self.word = 0;
        self.avail = 0;
        self.refill();
        let rest = n - take; // >= 1 because n > take
        if rest <= self.avail {
            let hi = if rest == 64 {
                self.word
            } else {
                self.word & ((1u64 << rest) - 1)
            };
            self.word = if rest == 64 { 0 } else { self.word >> rest };
            self.avail -= rest;
            // take <= 63 here (rest >= 1), so the shift is in range.
            lo | (hi << take)
        } else {
            // Stream exhausted: the remaining bits are zeros.
            let got = self.avail;
            let hi = self.word;
            self.word = 0;
            self.avail = 0;
            self.overrun += (rest - got) as usize;
            lo | (hi << take)
        }
    }

    /// Returns the next `n` bits (LSB first, zero-extended past the end)
    /// without consuming them. `n` must be <= 56 so a single cached word
    /// can always satisfy the peek.
    #[inline]
    pub fn peek_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 56);
        if self.avail < n {
            self.refill();
        }
        if n == 0 {
            return 0;
        }
        self.word & ((1u64 << n) - 1)
    }

    /// Consumes `n` bits (<= 56) previously examined via
    /// [`BitReader::peek_bits`]. Consuming past the end of the stream is
    /// accounted as overrun, mirroring [`BitReader::read_bit`].
    #[inline]
    pub fn consume_bits(&mut self, n: u32) {
        debug_assert!(n <= 56);
        if self.avail < n {
            self.refill();
        }
        if n <= self.avail {
            self.word >>= n; // n <= 56 < 64: shift always in range
            self.avail -= n;
        } else {
            self.overrun += (n - self.avail) as usize;
            self.word = 0;
            self.avail = 0;
        }
    }

    /// Absolute bit position (bits consumed so far, including zero reads
    /// past the end of the stream).
    pub fn bit_pos(&self) -> usize {
        self.next_byte * 8 - self.avail as usize + self.overrun
    }

    /// True when every real bit has been consumed (padding may remain).
    pub fn is_exhausted(&self) -> bool {
        self.bit_pos() >= self.bytes.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{RefBitReader, RefBitWriter};

    #[test]
    fn byte_reader_short_and_overflowing_reads_are_typed() {
        let mut r = ByteReader::new(&[1, 0, 0, 0, 0x7f]);
        assert_eq!(r.u32("a"), Ok(1));
        assert_eq!(r.u16("b"), Err(DecodeError::Truncated { what: "b" }));
        assert_eq!(
            r.take(usize::MAX, "c"),
            Err(DecodeError::Corrupt { what: "c" })
        );
        assert_eq!(
            r.f64s(usize::MAX, "d"),
            Err(DecodeError::Corrupt { what: "d" })
        );
        assert_eq!(r.f64s(1, "e"), Err(DecodeError::Truncated { what: "e" }));
        assert_eq!(r.varint("f"), Ok(0x7f));
        assert_eq!(r.finish("g"), Ok(()));
        assert_eq!(r.rest(), &[] as &[u8]);
        // 3 × u32::MAX extents: the element count overflows a usize.
        let huge = [0xff; 12];
        assert_eq!(
            ByteReader::new(&huge).shape("h"),
            Err(DecodeError::Corrupt { what: "h" })
        );
    }

    #[test]
    fn roundtrip_single_bits() {
        let mut w = BitWriter::new();
        let pattern = [1u64, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.len_bits(), pattern.len());
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), b);
        }
    }

    #[test]
    fn roundtrip_multi_bit_values() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(0x3, 2);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(32), 0xDEADBEEF);
        assert_eq!(r.read_bits(2), 0x3);
        assert_eq!(r.read_bits(64), u64::MAX);
    }

    #[test]
    fn reads_past_end_are_zero() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8), 0xFF);
        assert_eq!(r.read_bits(16), 0);
        assert!(r.is_exhausted());
    }

    #[test]
    fn zero_bit_write_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        assert_eq!(w.len_bits(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn lsb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bit(1); // bit 0 of byte 0
        w.write_bits(0, 6);
        w.write_bit(1); // bit 7 of byte 0
        assert_eq!(w.into_bytes(), vec![0b1000_0001]);
    }

    #[test]
    fn len_bits_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.len_bits(), 0);
        w.write_bits(0, 9);
        assert_eq!(w.len_bits(), 9);
        w.write_bits(0, 7);
        assert_eq!(w.len_bits(), 16);
    }

    #[test]
    fn edge_widths_roundtrip_at_every_alignment() {
        // Satellite: n ∈ {0, 1, 63, 64} on both reader and writer, at
        // every pre-write alignment so each shift-boundary branch runs.
        for pre in 0..65u32 {
            for &n in &[0u32, 1, 63, 64] {
                let mut w = BitWriter::new();
                w.write_bits(u64::MAX, pre.min(64));
                let payload = 0x9E37_79B9_7F4A_7C15u64;
                w.write_bits(payload, n);
                w.write_bits(0b101, 3); // trailer to catch misalignment
                let bytes = w.into_bytes();
                let mut r = BitReader::new(&bytes);
                assert_eq!(
                    r.read_bits(pre.min(64)),
                    if pre.min(64) == 64 {
                        u64::MAX
                    } else if pre == 0 {
                        0
                    } else {
                        (1u64 << pre.min(64)) - 1
                    }
                );
                let mask = match n {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << n) - 1,
                };
                assert_eq!(r.read_bits(n), payload & mask, "pre {pre}, n {n}");
                assert_eq!(r.read_bits(3), 0b101, "pre {pre}, n {n}");
            }
        }
    }

    #[test]
    fn read_bits_64_straddling_end_of_stream() {
        // 64-bit read with only 40 real bits left: low 40 bits real,
        // high 24 zero-extended.
        let mut w = BitWriter::new();
        w.write_bits(0xAB_CDEF_0123, 40);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64), 0xAB_CDEF_0123);
        assert!(r.is_exhausted());
        assert_eq!(r.read_bits(64), 0);
    }

    #[test]
    fn peek_then_consume_matches_read() {
        let mut w = BitWriter::new();
        let mut rng = lrm_rng::Rng64::new(3);
        let vals: Vec<(u64, u32)> = (0..200)
            .map(|_| (rng.next_u64(), 1 + rng.range_u64(56) as u32))
            .collect();
        for &(v, n) in &vals {
            w.write_bits(v, n);
        }
        let bytes = w.into_bytes();
        let mut peeker = BitReader::new(&bytes);
        let mut reader = BitReader::new(&bytes);
        for &(_, n) in &vals {
            let p = peeker.peek_bits(n);
            peeker.consume_bits(n);
            assert_eq!(p, reader.read_bits(n));
            assert_eq!(peeker.bit_pos(), reader.bit_pos());
        }
    }

    #[test]
    fn peek_past_end_is_zero_extended_and_nonconsuming() {
        let mut r = BitReader::new(&[0b0000_0101]);
        assert_eq!(r.peek_bits(16), 0b0000_0101);
        assert_eq!(r.peek_bits(16), 0b0000_0101); // still unconsumed
        r.consume_bits(3);
        assert_eq!(r.peek_bits(8), 0);
        r.consume_bits(13); // 8 past the end
        assert_eq!(r.bit_pos(), 16);
    }

    #[test]
    fn bit_pos_tracks_overrun_like_reference() {
        let bytes = [0x5Au8, 0xC3];
        let mut fast = BitReader::new(&bytes);
        let mut slow = RefBitReader::new(&bytes);
        for n in [3u32, 7, 1, 16, 64, 0, 5] {
            assert_eq!(fast.read_bits(n), slow.read_bits(n), "n {n}");
            assert_eq!(fast.bit_pos(), slow.bit_pos(), "n {n}");
        }
    }

    #[test]
    fn differential_random_ops_byte_identical() {
        // The in-crate smoke version of the kernel_equivalence suite.
        let mut rng = lrm_rng::Rng64::new(42);
        for _ in 0..50 {
            let mut fast = BitWriter::new();
            let mut slow = RefBitWriter::new();
            for _ in 0..300 {
                if rng.bool(0.3) {
                    let b = rng.range_u64(2);
                    fast.write_bit(b);
                    slow.write_bit(b);
                } else {
                    let n = rng.range_u64(65) as u32;
                    let v = rng.next_u64();
                    fast.write_bits(v, n);
                    slow.write_bits(v, n);
                }
                assert_eq!(fast.len_bits(), slow.len_bits());
            }
            assert_eq!(fast.into_bytes(), slow.into_bytes());
        }
    }
}
