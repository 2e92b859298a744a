//! Per-block coefficient coding: block-floating-point conversion,
//! negabinary mapping, and embedded (group-tested) bit-plane coding.
//!
//! This mirrors ZFP's `encode_ints`/`decode_ints`: coefficients are coded
//! one bit plane at a time from most to least significant; within a plane,
//! already-significant coefficients emit verbatim bits and the remainder
//! are covered by a unary run-length "any ones left?" test. Truncating the
//! stream after `p` planes yields the fixed-precision mode the paper uses.

use super::transform::{fwd_xform, inv_xform, sequency_perm};
use crate::bitstream::{BitReader, BitWriter};
use crate::error::{DecodeError, DecodeResult};

/// Bits in the integer representation.
pub const INT_PREC: u32 = 64;
/// Highest supported block dimensionality: 4^3 = 64 coefficients fills
/// the fixed scratch arrays exactly.
pub const MAX_BLOCK_NDIMS: usize = 3;
/// Negabinary conversion mask (alternating bits).
const NBMASK: u64 = 0xaaaa_aaaa_aaaa_aaaa;
/// Bias applied to the per-block exponent before storage.
const E_BIAS: i32 = 1100;
/// Bits used to store the biased block exponent.
const E_BITS: u32 = 12;

/// Maps a two's-complement integer to negabinary (sign-free) form.
#[inline]
pub fn int2uint(x: i64) -> u64 {
    ((x as u64).wrapping_add(NBMASK)) ^ NBMASK
}

/// Inverse of [`int2uint`].
#[inline]
pub fn uint2int(u: u64) -> i64 {
    ((u ^ NBMASK).wrapping_sub(NBMASK)) as i64
}

/// `x * 2^e` without intermediate overflow (ldexp). Splits the exponent so
/// each factor stays representable even for the extreme block exponents of
/// subnormal data.
#[inline]
pub fn ldexp(x: f64, e: i32) -> f64 {
    let a = e / 2;
    let b = e - a;
    x * pow2_small(a) * pow2_small(b)
}

/// `2^e` for |e| <= 1023 via exponent-field construction.
#[inline]
fn pow2_small(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e), "pow2_small out of range: {e}");
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Exponent of `x` in the frexp sense: smallest `e` with `|x| <= 2^e` and
/// `|x| > 2^(e-1)`... precisely, `x = f * 2^e` with `f` in `[0.5, 1)`.
/// Returns `i32::MIN` for zero.
fn exponent(x: f64) -> i32 {
    if x == 0.0 {
        return i32::MIN;
    }
    let bits = x.abs().to_bits();
    let raw_exp = ((bits >> 52) & 0x7ff) as i32;
    if raw_exp == 0 {
        // Subnormal: value = mantissa * 2^-1074, top set bit decides.
        let mantissa = bits & 0xf_ffff_ffff_ffff;
        let top = 63 - mantissa.leading_zeros() as i32;
        return top - 1074 + 1;
    }
    raw_exp - 1022
}

/// Largest frexp exponent over a block; `None` when all values are zero or
/// any value is non-finite (such blocks are stored as all-zero).
fn block_exponent(block: &[f64]) -> Option<i32> {
    let mut emax = i32::MIN;
    for &v in block {
        if !v.is_finite() {
            return None;
        }
        if v != 0.0 {
            emax = emax.max(exponent(v));
        }
    }
    if emax == i32::MIN {
        None
    } else {
        Some(emax)
    }
}

/// Reusable per-block scratch buffers. The block loops in [`crate::zfp`]
/// hold one for the whole field, so no per-block heap allocation happens
/// on the hot path; `blk` doubles as the gather/scatter staging area for
/// the caller.
#[derive(Debug, Clone)]
pub struct BlockScratch {
    /// Block values: the encoder reads its input from here and the
    /// decoder leaves its output here (first `4^ndims` entries).
    pub blk: [f64; 64],
    ints: [i64; 64],
    uints: [u64; 64],
}

impl Default for BlockScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockScratch {
    /// Creates zeroed scratch space.
    pub fn new() -> Self {
        Self {
            blk: [0.0; 64],
            ints: [0; 64],
            uints: [0; 64],
        }
    }
}

/// Encodes one 4^d block of doubles at `maxprec` bit planes.
///
/// Convenience wrapper over [`encode_block_scratch`] for one-off calls;
/// chunk loops should hold a [`BlockScratch`] and call the `_scratch`
/// variant directly.
pub fn encode_block(block: &[f64], ndims: usize, maxprec: u32, out: &mut BitWriter) {
    let n = 1usize << (2 * ndims);
    debug_assert_eq!(block.len(), n);
    let mut scratch = BlockScratch::new();
    scratch.blk[..n].copy_from_slice(block);
    encode_block_scratch(&mut scratch, ndims, maxprec, out);
}

/// Encodes the first `4^ndims` values of `scratch.blk` at `maxprec` bit
/// planes, reusing the caller's scratch buffers.
pub fn encode_block_scratch(
    scratch: &mut BlockScratch,
    ndims: usize,
    maxprec: u32,
    out: &mut BitWriter,
) {
    let n = 1usize << (2 * ndims);
    let block = &scratch.blk[..n];
    let Some(emax) = block_exponent(block) else {
        out.write_bit(0); // all-zero (or non-finite) block
        return;
    };
    out.write_bit(1);
    out.write_bits((emax + E_BIAS) as u64, E_BITS);

    // Block-floating-point: scale values (|v| < 2^emax) up to |i| < 2^62,
    // leaving two headroom bits for transform growth.
    let shift = INT_PREC as i32 - 2 - emax;
    for (i, &v) in block.iter().enumerate() {
        scratch.ints[i] = ldexp(v, shift) as i64;
    }
    fwd_xform(&mut scratch.ints[..n], ndims);

    // Negabinary in sequency order.
    let perm = sequency_perm(ndims);
    for i in 0..n {
        scratch.uints[i] = int2uint(scratch.ints[perm[i]]);
    }

    encode_ints(&scratch.uints[..n], maxprec, out);
}

/// Decodes one block previously produced by [`encode_block`]. Returns
/// a [`DecodeError`] when the stored block exponent lies outside the
/// range any finite `f64` can produce — the only way corrupt bits can
/// push the block-floating-point math out of its domain.
pub fn decode_block(
    ndims: usize,
    maxprec: u32,
    input: &mut BitReader<'_>,
    block: &mut [f64],
) -> DecodeResult<()> {
    if ndims == 0 || ndims > MAX_BLOCK_NDIMS {
        return Err(DecodeError::Corrupt {
            what: "zfp block dimensionality",
        });
    }
    let n = 1usize << (2 * ndims);
    debug_assert_eq!(block.len(), n);
    let mut scratch = BlockScratch::new();
    decode_block_scratch(&mut scratch, ndims, maxprec, input)?;
    for (dst, &src) in block.iter_mut().zip(scratch.blk.iter()) {
        *dst = src;
    }
    Ok(())
}

/// Decodes one block into `scratch.blk[..4^ndims]`, reusing the caller's
/// scratch buffers. Same error contract as [`decode_block`].
pub fn decode_block_scratch(
    scratch: &mut BlockScratch,
    ndims: usize,
    maxprec: u32,
    input: &mut BitReader<'_>,
) -> DecodeResult<()> {
    // Callers derive ndims from artifact metadata, so treat it as
    // untrusted: out of range it would shift n past the 64-entry
    // scratch arrays below.
    if ndims == 0 || ndims > MAX_BLOCK_NDIMS {
        return Err(DecodeError::Corrupt {
            what: "zfp block dimensionality",
        });
    }
    let n = 1usize << (2 * ndims);
    debug_assert!(n <= 64);
    if input.read_bit() == 0 {
        // lint:allow(no-index): n = 4^ndims <= 64 and blk is [f64; 64]
        scratch.blk[..n].fill(0.0);
        return Ok(());
    }
    let emax = input.read_bits(E_BITS) as i32 - E_BIAS;
    // frexp exponents of finite doubles span [-1073, 1024]; anything
    // else cannot have come from `encode_block` and would drive the
    // ldexp reconstruction below out of pow2_small's domain.
    if !(-1073..=1024).contains(&emax) {
        return Err(DecodeError::Corrupt {
            what: "zfp block exponent",
        });
    }

    // lint:allow(no-index): n = 4^ndims <= 64 and uints is [u64; 64]
    decode_ints(&mut scratch.uints[..n], maxprec, input);

    let perm = sequency_perm(ndims);
    for i in 0..n {
        // lint:allow(no-index): i < n <= 64; perm values < n by construction
        scratch.ints[perm[i]] = uint2int(scratch.uints[i]);
    }
    // lint:allow(no-index): n = 4^ndims <= 64 and ints is [i64; 64]
    inv_xform(&mut scratch.ints[..n], ndims);

    let shift = emax - (INT_PREC as i32 - 2);
    for i in 0..n {
        // lint:allow(no-index): i < n <= 64; blk and ints are 64-entry arrays
        scratch.blk[i] = ldexp(scratch.ints[i] as f64, shift);
    }
    Ok(())
}

/// Embedded coding of negabinary coefficients, `maxprec` planes from the
/// top. Word-level: the coded planes of the 4^d × 64-bit coefficient
/// matrix are transposed once into per-plane masks by sparse bit
/// scatter, each plane's verbatim prefix goes out in one `write_bits`
/// call, and the significant-prefix length is a running OR +
/// `leading_zeros` instead of an O(size) rescan per plane. Bit-for-bit
/// identical to [`crate::reference::encode_ints_ref`].
#[doc(hidden)]
pub fn encode_ints(uints: &[u64], maxprec: u32, out: &mut BitWriter) {
    let size = uints.len();
    debug_assert!(size <= 64);
    let kmin = INT_PREC.saturating_sub(maxprec);
    // Transpose: bit i of planes[k] = bit k of coefficient i. Negabinary
    // coefficients are sparse in the low planes, so scatter set bits
    // instead of probing all 64 planes per coefficient. Only planes
    // kmin..64 are coded; the mask drops the bits below them, which at
    // 16 or 8 planes are most of a coefficient's set bits.
    let coded = u64::MAX.checked_shl(kmin).unwrap_or(0);
    let mut planes = [0u64; 64];
    for (i, &u) in uints.iter().enumerate() {
        let mut u = u & coded;
        while u != 0 {
            let k = u.trailing_zeros() as usize;
            // lint:allow(no-index): k < 64 by trailing_zeros of a nonzero u64
            planes[k] |= 1u64 << i;
            u &= u - 1;
        }
    }
    // `sig` bit i = coefficient i has a set bit at the current plane or
    // above; its highest set bit position + 1 is the verbatim prefix
    // length `n` (what significant_prefix() recomputed per plane).
    let mut sig: u64 = 0;
    let mut n = 0usize;
    for k in (kmin..INT_PREC).rev() {
        // lint:allow(no-index): k < INT_PREC = 64 and planes is [u64; 64]
        let plane = planes[k as usize];
        // Verbatim bits of already-significant coefficients, one call.
        out.write_bits(plane, n as u32);
        let mut x = if n >= 64 { 0 } else { plane >> n };
        // Unary run-length encode the remainder: each group emits the
        // zero-run up to the next set bit plus the terminating one-bit
        // in a single write (LSB-first, so `1 << tz` is tz zeros then 1).
        let mut m = n;
        while m < size {
            let any = x != 0;
            out.write_bit(any as u64);
            if !any {
                break;
            }
            let tz = x.trailing_zeros() as usize;
            if m + tz >= size - 1 {
                // The zero-run reaches the final coefficient, whose set
                // bit is implied by the group test.
                out.write_bits(0, (size - 1 - m) as u32);
                m = size;
            } else {
                out.write_bits(1u64 << tz, tz as u32 + 1);
                x >>= tz + 1;
                m += tz + 1;
            }
        }
        sig |= plane;
        n = 64 - sig.leading_zeros() as usize;
    }
}

/// Inverse of [`encode_ints`]. Bit-for-bit identical to
/// [`crate::reference::decode_ints_ref`].
#[doc(hidden)]
pub fn decode_ints(uints: &mut [u64], maxprec: u32, input: &mut BitReader<'_>) {
    let size = uints.len();
    debug_assert!(size <= 64);
    uints.fill(0);
    let kmin = INT_PREC.saturating_sub(maxprec);
    let mut sig: u64 = 0;
    let mut n = 0usize;
    for k in (kmin..INT_PREC).rev() {
        // Verbatim prefix in one read; run-length groups stay bitwise
        // (their lengths are data-dependent), but each read_bit is now a
        // cached-word shift.
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
        // Scatter plane k back into the coefficients (sparse).
        let mut y = x;
        while y != 0 {
            let i = y.trailing_zeros() as usize;
            if let Some(u) = uints.get_mut(i) {
                *u |= 1u64 << k;
            }
            y &= y - 1;
        }
        sig |= x;
        n = 64 - sig.leading_zeros() as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_ints(uints: &[u64], maxprec: u32) -> Vec<u64> {
        let mut w = BitWriter::new();
        encode_ints(uints, maxprec, &mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = vec![0u64; uints.len()];
        decode_ints(&mut out, maxprec, &mut r);
        out
    }

    #[test]
    fn ints_roundtrip_full_precision() {
        let mut rng = lrm_rng::Rng64::new(9);
        for _ in 0..50 {
            let uints: Vec<u64> = (0..16).map(|_| rng.next_u64() >> 2).collect();
            assert_eq!(roundtrip_ints(&uints, 64), uints);
        }
    }

    #[test]
    fn ints_roundtrip_truncated_zeroes_low_planes() {
        let uints = vec![0xFFFF_FFFF_FFFF_FFFCu64 >> 2; 4];
        let out = roundtrip_ints(&uints, 8);
        for (a, b) in uints.iter().zip(&out) {
            // Top 8 planes (bits 63..56) must match exactly.
            assert_eq!(a >> 56, b >> 56);
            // Lower planes are zeroed.
            assert_eq!(b & ((1 << 56) - 1), 0);
        }
    }

    #[test]
    fn ints_roundtrip_sparse() {
        let mut uints = vec![0u64; 64];
        uints[63] = 1 << 40; // only the final coefficient is significant
        assert_eq!(roundtrip_ints(&uints, 64), uints);
        uints[0] = u64::MAX >> 2;
        assert_eq!(roundtrip_ints(&uints, 64), uints);
    }

    #[test]
    fn ints_all_zero_is_compact() {
        let uints = vec![0u64; 64];
        let mut w = BitWriter::new();
        encode_ints(&uints, 16, &mut w);
        // One group-test zero bit per plane.
        assert_eq!(w.len_bits(), 16);
        assert_eq!(roundtrip_ints(&uints, 16), uints);
    }

    #[test]
    fn negabinary_roundtrip() {
        for x in [0i64, 1, -1, 42, -42, i64::MAX / 4, i64::MIN / 4] {
            assert_eq!(uint2int(int2uint(x)), x);
        }
    }

    #[test]
    fn negabinary_small_magnitudes_have_few_bits() {
        assert_eq!(int2uint(0), 0);
        assert!(int2uint(1).leading_zeros() >= 60);
        assert!(int2uint(-1).leading_zeros() >= 60);
    }

    #[test]
    fn ldexp_extreme_exponents() {
        assert_eq!(ldexp(1.0, 10), 1024.0);
        assert_eq!(ldexp(1.0, 0), 1.0);
        assert_eq!(ldexp(4.0, -2), 1.0);
        // Would overflow if computed as x * 2^e in one step.
        let v = ldexp(1e-300, 1135);
        assert!(v.is_finite() && v > 0.0);
        assert!((ldexp(v, -1135) - 1e-300).abs() < 1e-310);
    }

    #[test]
    fn exponent_matches_frexp_semantics() {
        assert_eq!(exponent(1.0), 1); // 1.0 = 0.5 * 2^1
        assert_eq!(exponent(0.5), 0);
        assert_eq!(exponent(0.75), 0);
        assert_eq!(exponent(2.0), 2);
        assert_eq!(exponent(3.0), 2);
        assert_eq!(exponent(-4.0), 3);
        assert_eq!(exponent(0.0), i32::MIN);
    }

    #[test]
    fn full_precision_block_roundtrip_is_near_lossless() {
        let block: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut w = BitWriter::new();
        encode_block(&block, 2, 64, &mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = vec![0.0; 16];
        decode_block(2, 64, &mut r, &mut out).expect("decode");
        for (a, b) in block.iter().zip(&out) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_block_is_one_bit() {
        let block = vec![0.0; 64];
        let mut w = BitWriter::new();
        encode_block(&block, 3, 16, &mut w);
        assert_eq!(w.len_bits(), 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = vec![1.0; 64];
        decode_block(3, 16, &mut r, &mut out).expect("decode");
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn precision_controls_error() {
        let block: Vec<f64> = (0..64)
            .map(|i| 100.0 * ((i % 4) as f64 * 0.31).cos() * ((i / 16) as f64 - 1.5))
            .collect();
        let mut errs = Vec::new();
        for &prec in &[8u32, 16, 32] {
            let mut w = BitWriter::new();
            encode_block(&block, 3, prec, &mut w);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            let mut out = vec![0.0; 64];
            decode_block(3, prec, &mut r, &mut out).expect("decode");
            let e: f64 = block
                .iter()
                .zip(&out)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            errs.push(e);
        }
        assert!(errs[0] >= errs[1] && errs[1] >= errs[2], "errors {errs:?}");
        assert!(errs[2] < 1e-3);
    }

    #[test]
    fn nonfinite_block_decodes_to_zeros() {
        let mut block = vec![1.0; 16];
        block[3] = f64::NAN;
        let mut w = BitWriter::new();
        encode_block(&block, 2, 16, &mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = vec![9.0; 16];
        decode_block(2, 16, &mut r, &mut out).expect("decode");
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn subnormal_block_roundtrips() {
        let block = vec![1e-310f64, -2e-310, 3e-310, 0.0];
        let mut w = BitWriter::new();
        encode_block(&block, 1, 64, &mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = vec![0.0; 4];
        decode_block(1, 64, &mut r, &mut out).expect("decode");
        for (a, b) in block.iter().zip(&out) {
            assert!((a - b).abs() < 1e-320, "{a} vs {b}");
        }
    }

    #[test]
    fn prop_ints_roundtrip_randomized() {
        for seed in 0..32u64 {
            let mut rng = lrm_rng::Rng64::new(seed);
            let vals: Vec<u64> = (0..16).map(|_| rng.range_u64(1u64 << 62)).collect();
            assert_eq!(roundtrip_ints(&vals, 64), vals);
        }
    }

    #[test]
    fn prop_block_roundtrip_bounded_error() {
        for seed in 0..32u64 {
            let mut rng = lrm_rng::Rng64::new(seed);
            let vals = rng.vec_f64(-1000.0, 1000.0, 64);
            let mut w = BitWriter::new();
            encode_block(&vals, 3, 40, &mut w);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            let mut out = vec![0.0; 64];
            decode_block(3, 40, &mut r, &mut out).expect("decode");
            let maxv = vals.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
            for (a, b) in vals.iter().zip(&out) {
                assert!((a - b).abs() <= maxv * 1e-9 + 1e-12);
            }
        }
    }
}
