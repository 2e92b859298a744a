//! SZ-like prediction-based lossy compressor.
//!
//! Reproduces the SZ 1.4 pipeline (Di & Cappello, IPDPS 2016):
//!
//! 1. **Prediction** — each point is predicted by the Lorenzo predictor
//!    over already-reconstructed neighbors (so encoder and decoder stay in
//!    lock-step).
//! 2. **Linear-scaling quantization** — the prediction error is quantized
//!    to a 16-bit code; a hit encodes the error as a bin index,
//!    guaranteeing the bound.
//! 3. **Binary representation analysis** — prediction misses store the
//!    value with exactly enough mantissa bits to honor the bound.
//! 4. **Entropy stages** — codes are Huffman-encoded and the result passes
//!    through an LZSS dictionary stage.
//!
//! Two bound modes are provided:
//!
//! * [`SzErrorBound::Abs`] — uniform absolute bound.
//! * [`SzErrorBound::BlockRel`] — SZ 1.4.11's **block-based point-wise
//!   relative** mode, the one the paper's evaluation uses (rel `1e-5` for
//!   originals, `1e-3` for deltas): the scan order is cut into blocks of
//!   [`BLOCK_LEN`] values and each block gets an absolute bound
//!   `2^⌊log2(rel · max|block|)⌋ ≤ rel · max|block|`. All-zero blocks are
//!   stored as a flag and reproduce **exactly** — important for sparse
//!   fields like the paper's *Fish*. This is how SZ keeps *deltas* cheap:
//!   blocks near the base plane have tiny magnitudes, hence tiny bounds,
//!   but blocks of small values embedded in large-scale structure are not
//!   penalized point by point.
//!
//! A stream's first byte names its mode: 0 is absolute and 2 is
//! block-relative. Tag 1 named a strict per-point relative mode that no
//! `LossyCodec` could select; it stays unassigned, so a stream carrying
//! it is [`DecodeError::UnknownTag`] rather than decoded under another
//! mode's layout. The decoding [`Sz`] decides the mode and the bound: a
//! stream whose header names another mode or bound is
//! [`DecodeError::Corrupt`]. A block-relative body carries its own
//! per-block exponent table, so after decoding, every block's exponent
//! `e` is checked against the bound as well: `2^e` may not exceed
//! `rel · (max|x̂_block| + 2^e)`, which every block the encoder writes
//! meets. A stream encoded under a looser bound whose header bits were
//! rewritten is corrupt too.

pub mod predictor;

use crate::bitstream::{BitReader, BitWriter, ByteReader};
use crate::error::{DecodeError, DecodeResult};
use crate::lossless::varint::encode_uvarint;
use crate::lossless::{huffman_encode, pipeline_compress, pipeline_decompress, HuffmanDecoder};
use crate::{Codec, Shape};
use predictor::{lorenzo_predict, lorenzo_predict_interior};

/// Scan-order block length for [`SzErrorBound::BlockRel`].
pub const BLOCK_LEN: usize = 256;

/// Sentinel exponent marking an all-zero block.
const ZERO_BLOCK: i16 = i16::MIN;

/// The encoder clamps every other block exponent into
/// `MIN_BLOCK_EXP..=MAX_BLOCK_EXP`, so `2^e` is always a normal number.
const MIN_BLOCK_EXP: i16 = -1020;
const MAX_BLOCK_EXP: i16 = 1020;

/// Relative slack on the decoder's exponent check, for the rounding in
/// the encoder's `⌊log2(rel · max)⌋`.
const EXP_CHECK_SLACK: f64 = 1e-9;

/// Width of a quantization code. The stream does not record it, so
/// encoder and decoder share this one value.
const QUANT_BITS: u32 = 16;

/// Error-bound mode for [`Sz`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SzErrorBound {
    /// Absolute bound: `|v' - v| <= e` for every point.
    Abs(f64),
    /// Block-based point-wise relative bound (SZ 1.4.11 semantics):
    /// `|v' - v| <= rel * max|block|` for every point, with exact
    /// reproduction of all-zero blocks.
    BlockRel(f64),
}

/// SZ-like codec; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sz {
    bound: SzErrorBound,
}

impl Sz {
    /// Codec with an absolute error bound `e > 0`.
    pub fn absolute(e: f64) -> Self {
        assert!(e > 0.0 && e.is_finite(), "sz: bound must be positive");
        Self {
            bound: SzErrorBound::Abs(e),
        }
    }

    /// Codec with SZ 1.4.11's block-based point-wise relative bound (the
    /// paper's mode; e.g. `1e-5`).
    pub fn block_rel(rel: f64) -> Self {
        assert!(rel > 0.0 && rel.is_finite(), "sz: bound must be positive");
        Self {
            bound: SzErrorBound::BlockRel(rel),
        }
    }

    /// The configured error bound.
    pub fn bound(&self) -> SzErrorBound {
        self.bound
    }
}

/// Per-point bound source shared by encoder and decoder.
enum Bounds<'a> {
    Uniform(f64),
    /// Power-of-two bound exponents per scan-order block; `ZERO_BLOCK`
    /// marks an all-zero block.
    PerBlock(&'a [i16]),
}

impl Bounds<'_> {
    /// Bound for point `i`; `None` means "inside an all-zero block".
    #[inline]
    fn at(&self, i: usize) -> Option<f64> {
        match self {
            Bounds::Uniform(e) => Some(*e),
            Bounds::PerBlock(exps) => {
                // lint:allow(no-index): decoder validates the exponent-table
                // length against the shape before constructing PerBlock
                let e = exps[i / BLOCK_LEN];
                if e == ZERO_BLOCK {
                    None
                } else {
                    Some(exp2i(e))
                }
            }
        }
    }
}

/// Sequential-scan view of [`Bounds`]: the scan order visits indices in
/// increasing order, so the block bound is resolved once per [`BLOCK_LEN`]
/// run instead of per point (a divide, a match, and an `exp2` each time).
struct BoundCursor<'a> {
    bounds: &'a Bounds<'a>,
    cur: Option<f64>,
    /// `⌊log2 e⌋` for the current bound, cached because the outlier path
    /// needs it per miss and `f64::log2` is a libm call. For per-block
    /// bounds `e = 2^k` so this is the stored exponent itself.
    exp: i32,
    /// First index at which `cur` must be refreshed.
    until: usize,
}

impl<'a> BoundCursor<'a> {
    fn new(bounds: &'a Bounds<'a>) -> Self {
        Self {
            bounds,
            cur: None,
            exp: 0,
            until: 0,
        }
    }

    /// Bound for point `i`; `None` means "inside an all-zero block".
    /// Callers must present indices in non-decreasing order.
    #[inline]
    fn at(&mut self, i: usize) -> Option<f64> {
        if i >= self.until {
            self.cur = self.bounds.at(i);
            self.until = match self.bounds {
                Bounds::Uniform(_) => usize::MAX,
                Bounds::PerBlock(_) => (i / BLOCK_LEN + 1) * BLOCK_LEN,
            };
            self.exp = match (self.bounds, self.cur) {
                (Bounds::Uniform(e), _) => e.log2().floor() as i32,
                // exp2i(k) = 2^k exactly, so log2().floor() would
                // reproduce k; skip the libm round-trip.
                // lint:allow(no-index): same index Bounds::at just used
                (Bounds::PerBlock(exps), Some(_)) => exps[i / BLOCK_LEN] as i32,
                (Bounds::PerBlock(_), None) => 0, // zero block: never read
            };
        }
        self.cur
    }

    /// `⌊log2 e⌋` for the bound last returned by [`Self::at`]; only
    /// meaningful while that result was `Some`.
    #[inline]
    fn bound_exp(&self) -> i32 {
        self.exp
    }

    /// Exclusive end of the run over which the last [`Self::at`] result
    /// stays valid; lets the scan skip all-zero blocks wholesale.
    #[inline]
    fn run_end(&self) -> usize {
        self.until
    }
}

/// `2^e` for clamped exponents (always normal, never zero).
#[inline]
fn exp2i(e: i16) -> f64 {
    f64::from_bits(((e as i64 + 1023) as u64) << 52)
}

/// Per-block bound exponents for BlockRel mode.
fn block_exponents(data: &[f64], rel: f64) -> Vec<i16> {
    let nblocks = data.len().div_ceil(BLOCK_LEN);
    let mut exps = Vec::with_capacity(nblocks);
    for b in 0..nblocks {
        let lo = b * BLOCK_LEN;
        let hi = (lo + BLOCK_LEN).min(data.len());
        let mut maxv = 0.0f64;
        for &v in &data[lo..hi] {
            if v.is_finite() {
                maxv = maxv.max(v.abs());
            } else {
                // Non-finite values force the outlier path; give the block
                // a generous bound so neighbors stay cheap.
                maxv = maxv.max(1.0);
            }
        }
        if maxv == 0.0 {
            exps.push(ZERO_BLOCK);
        } else {
            let e = (rel * maxv)
                .log2()
                .floor()
                .clamp(MIN_BLOCK_EXP.into(), MAX_BLOCK_EXP.into()) as i16;
            exps.push(e);
        }
    }
    exps
}

/// Number of mantissa bits needed to store `v` with absolute error <= e/2,
/// given `ee = ⌊log2 e⌋` (cached per block by [`BoundCursor`]).
fn mantissa_bits_needed(v: f64, ee: i32) -> u32 {
    let bits = v.abs().to_bits();
    let raw_exp = ((bits >> 52) & 0x7ff) as i32;
    if raw_exp == 0x7ff || raw_exp == 0 {
        return 52; // non-finite or subnormal: store everything
    }
    let ev = raw_exp - 1023; // v in [2^ev, 2^(ev+1))
    (ev - ee + 1).clamp(0, 52) as u32
}

/// Core compressor over a shaped field with per-point bounds.
fn core_compress(data: &[f64], shape: Shape, bounds: &Bounds<'_>) -> Vec<u8> {
    let radius: i64 = 1i64 << (QUANT_BITS - 1);
    let mut codes: Vec<u64> = Vec::with_capacity(data.len());
    let mut outliers = BitWriter::new();
    let mut recon = vec![0.0f64; data.len()];
    let mut bounds = BoundCursor::new(bounds);

    let [nx, ny, nz] = shape.dims;
    let ndims = shape.ndims();
    let sxy = nx * ny;
    let xmin = if ndims == 1 { 2 } else { 1 };
    for z in 0..nz {
        for y in 0..ny {
            // Rows with a full complement of preceding neighbors take the
            // interior predictor (bit-identical, incremental indices).
            let row_interior = match ndims {
                1 => true,
                2 => y >= 1,
                _ => y >= 1 && z >= 1,
            };
            let base = shape.idx(0, y, z);
            let mut x = 0;
            while x < nx {
                let i = base + x;
                let Some(e) = bounds.at(i) else {
                    // All-zero block: nothing stored, recon stays 0 — skip
                    // the rest of the run (clamped to this row) wholesale.
                    x = bounds.run_end().min(base + nx) - base;
                    continue;
                };
                let v = data[i];
                let pred = if row_interior && x >= xmin {
                    lorenzo_predict_interior(&recon, i, nx, sxy, ndims)
                } else {
                    lorenzo_predict(&recon, shape, x, y, z)
                };
                let q = if v.is_finite() && pred.is_finite() {
                    ((v - pred) / (2.0 * e)).round()
                } else {
                    f64::INFINITY
                };
                let hit = q.is_finite() && q.abs() < (radius - 1) as f64 && {
                    let r = pred + q * 2.0 * e;
                    (r - v).abs() <= e
                };
                if hit {
                    let qi = q as i64;
                    codes.push((qi + radius) as u64);
                    recon[i] = pred + qi as f64 * 2.0 * e;
                } else {
                    // Prediction miss: binary-representation analysis.
                    codes.push(0);
                    let vb = v.to_bits();
                    let sign = vb >> 63;
                    let raw_exp = (vb >> 52) & 0x7ff;
                    let mb = mantissa_bits_needed(v, bounds.bound_exp());
                    outliers.write_bit(sign);
                    outliers.write_bits(raw_exp, 11);
                    // Store the TOP mb mantissa bits.
                    let mantissa = vb & 0xf_ffff_ffff_ffff;
                    outliers.write_bits(mantissa >> (52 - mb), mb);
                    let stored =
                        (sign << 63) | (raw_exp << 52) | ((mantissa >> (52 - mb)) << (52 - mb));
                    let sv = f64::from_bits(stored);
                    recon[i] = if sv.is_finite() { sv } else { 0.0 };
                }
                x += 1;
            }
        }
    }

    // Entropy stages: Huffman over codes, then LZSS over everything.
    let huff = huffman_encode(&codes);
    let outlier_bytes = outliers.into_bytes();
    let mut body = Vec::with_capacity(huff.len() + outlier_bytes.len() + 32);
    encode_uvarint(huff.len() as u64, &mut body);
    body.extend_from_slice(&huff);
    encode_uvarint(outlier_bytes.len() as u64, &mut body);
    body.extend_from_slice(&outlier_bytes);
    pipeline_compress(&body)
}

/// Inverse of [`core_compress`].
fn core_decompress(bytes: &[u8], shape: Shape, bounds: &Bounds<'_>) -> DecodeResult<Vec<f64>> {
    let radius: i64 = 1i64 << (QUANT_BITS - 1);
    let body = pipeline_decompress(bytes)?;
    let mut r = ByteReader::new(&body);
    let hlen = r.varint("sz huffman length")? as usize;
    let mut codes = HuffmanDecoder::new(r.take(hlen, "sz huffman block")?)?;
    let olen = r.varint("sz outlier length")? as usize;
    let mut outliers = BitReader::new(r.take(olen, "sz outlier block")?);

    let mut recon = vec![0.0f64; shape.len()];
    // The returned field differs from the reconstruction buffer only at
    // non-finite outliers (prediction must see 0.0 there); those rare
    // positions are patched in after the scan instead of maintaining a
    // second full-size output array.
    let mut patches: Vec<(usize, f64)> = Vec::new();
    let mut bounds = BoundCursor::new(bounds);
    let [nx, ny, nz] = shape.dims;
    let ndims = shape.ndims();
    let sxy = nx * ny;
    let xmin = if ndims == 1 { 2 } else { 1 };
    for z in 0..nz {
        for y in 0..ny {
            // Rows with a full complement of preceding neighbors take the
            // interior predictor (bit-identical, incremental indices).
            let row_interior = match ndims {
                1 => true,
                2 => y >= 1,
                _ => y >= 1 && z >= 1,
            };
            let base = shape.idx(0, y, z);
            let mut x = 0;
            while x < nx {
                let i = base + x;
                let Some(e) = bounds.at(i) else {
                    // All-zero block: skip the run (clamped to this row).
                    x = bounds.run_end().min(base + nx) - base;
                    continue;
                };
                if codes.remaining() == 0 {
                    return Err(DecodeError::Corrupt {
                        what: "sz quantization codes exhausted",
                    });
                }
                let code = codes.next_symbol()?;
                if code != 0 {
                    let q = (code as i64).wrapping_sub(radius);
                    let pred = if row_interior && x >= xmin {
                        lorenzo_predict_interior(&recon, i, nx, sxy, ndims)
                    } else {
                        lorenzo_predict(&recon, shape, x, y, z)
                    };
                    let v = pred + q as f64 * 2.0 * e;
                    // lint:allow(no-index): i = shape.idx(x, y, z) < shape.len() = recon.len()
                    recon[i] = v;
                } else {
                    let sign = outliers.read_bit();
                    let raw_exp = outliers.read_bits(11);
                    // Recompute mb from the exponent exactly as the encoder.
                    let mb = if raw_exp == 0x7ff || raw_exp == 0 {
                        52
                    } else {
                        let ev = raw_exp as i32 - 1023;
                        let ee = bounds.bound_exp();
                        (ev - ee + 1).clamp(0, 52) as u32
                    };
                    let top = outliers.read_bits(mb);
                    let vb = (sign << 63) | (raw_exp << 52) | (top << (52 - mb));
                    let v = f64::from_bits(vb);
                    if v.is_finite() {
                        // lint:allow(no-index): i = shape.idx(x, y, z) < shape.len() = recon.len()
                        recon[i] = v;
                    } else {
                        patches.push((i, v));
                    }
                }
                x += 1;
            }
        }
    }
    for &(i, v) in &patches {
        // lint:allow(no-index): i was produced by the scan loop above
        recon[i] = v;
    }
    Ok(recon)
}

/// Checks a block-relative body's exponent table against `rel`, given
/// the field it decoded to.
///
/// The encoder picks `2^e <= rel · max|x_block|` and keeps every point
/// within `2^e` of the original, so `max|x_block| <= max|x̂_block| + 2^e`
/// and every honest block has `2^e <= rel · (max|x̂_block| + 2^e)`: some
/// point of it reaches `2^e / rel − 2^e`. A block is not checked when it
/// is all zero or when its exponent sits at the encoder's floor (the true
/// bound may be smaller still), and one that decoded to a NaN or an
/// infinity passes (the encoder bounds such blocks by 1).
fn check_block_exponents(recon: &[f64], exps: &[i16], rel: f64) -> DecodeResult<()> {
    for (block, &e) in recon.chunks(BLOCK_LEN).zip(exps) {
        if e == ZERO_BLOCK || e == MIN_BLOCK_EXP {
            continue;
        }
        let bound = exp2i(e);
        let reach = bound / (rel * (1.0 + EXP_CHECK_SLACK)) - bound;
        // A NaN or an infinity is not below `reach`, so its block passes.
        if block.iter().all(|v| v.abs() < reach) {
            return Err(DecodeError::Corrupt {
                what: "sz block exponent looser than the codec's bound",
            });
        }
    }
    Ok(())
}

/// Header tags for the bound modes (tag 1 is unassigned).
const TAG_ABS: u8 = 0;
const TAG_BLOCKREL: u8 = 2;

impl Codec for Sz {
    fn name(&self) -> &'static str {
        "SZ"
    }

    fn compress(&self, data: &[f64], shape: Shape) -> Vec<u8> {
        assert_eq!(data.len(), shape.len(), "sz: data/shape mismatch");
        let mut out = Vec::new();
        match self.bound {
            SzErrorBound::Abs(e) => {
                out.push(TAG_ABS);
                out.extend_from_slice(&e.to_le_bytes());
                out.extend_from_slice(&core_compress(data, shape, &Bounds::Uniform(e)));
            }
            SzErrorBound::BlockRel(rel) => {
                out.push(TAG_BLOCKREL);
                out.extend_from_slice(&rel.to_le_bytes());
                let exps = block_exponents(data, rel);
                // Exponent table, LZSS-compressed (it is highly regular).
                let mut raw = Vec::with_capacity(exps.len() * 2);
                for &e in &exps {
                    raw.extend_from_slice(&e.to_le_bytes());
                }
                let table = pipeline_compress(&raw);
                encode_uvarint(table.len() as u64, &mut out);
                out.extend_from_slice(&table);
                out.extend_from_slice(&core_compress(data, shape, &Bounds::PerBlock(&exps)));
            }
        }
        out
    }

    fn decompress(&self, bytes: &[u8], shape: Shape) -> DecodeResult<Vec<f64>> {
        let mut r = ByteReader::new(bytes);
        let tag = r.u8("sz mode tag")?;
        let param = r.f64("sz bound parameter")?;
        if tag != TAG_ABS && tag != TAG_BLOCKREL {
            return Err(DecodeError::UnknownTag {
                what: "sz mode",
                tag,
            });
        }
        // The codec, built from the artifact's descriptor, decides the
        // mode and the bound; a stream that names others is corrupt.
        let (own_tag, own_bound) = match self.bound {
            SzErrorBound::Abs(e) => (TAG_ABS, e),
            SzErrorBound::BlockRel(rel) => (TAG_BLOCKREL, rel),
        };
        if tag != own_tag || param.to_bits() != own_bound.to_bits() {
            return Err(DecodeError::Corrupt {
                what: "sz stream mode or bound differs from the codec",
            });
        }
        match self.bound {
            SzErrorBound::Abs(e) => core_decompress(r.rest(), shape, &Bounds::Uniform(e)),
            SzErrorBound::BlockRel(rel) => {
                let tlen = r.varint("sz exponent-table length")? as usize;
                let raw = pipeline_decompress(r.take(tlen, "sz exponent table")?)?;
                let exps: Vec<i16> = raw
                    .chunks_exact(2)
                    // lint:allow(no-index): chunks_exact(2) yields exactly 2-byte slices
                    .map(|c| i16::from_le_bytes([c[0], c[1]]))
                    .collect();
                // Bounds::at indexes this table blindly; reject any stream
                // whose table does not cover every scan-order block.
                if exps.len() != shape.len().div_ceil(BLOCK_LEN) {
                    return Err(DecodeError::Corrupt {
                        what: "sz exponent table size",
                    });
                }
                // The encoder writes no exponent outside its clamp.
                let in_range = MIN_BLOCK_EXP..=MAX_BLOCK_EXP;
                if exps
                    .iter()
                    .any(|e| *e != ZERO_BLOCK && !in_range.contains(e))
                {
                    return Err(DecodeError::Corrupt {
                        what: "sz block exponent out of range",
                    });
                }
                let recon = core_decompress(r.rest(), shape, &Bounds::PerBlock(&exps))?;
                check_block_exponents(&recon, &exps, rel)?;
                Ok(recon)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_3d(n: usize) -> (Vec<f64>, Shape) {
        let shape = Shape::d3(n, n, n);
        let mut v = vec![0.0; shape.len()];
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    v[shape.idx(x, y, z)] = 300.0
                        + 50.0
                            * ((x as f64 * 0.1).sin()
                                + (y as f64 * 0.13).cos()
                                + (z as f64 * 0.09).sin());
                }
            }
        }
        (v, shape)
    }

    #[test]
    fn abs_bound_is_honored() {
        let (v, shape) = smooth_3d(12);
        for &e in &[1e-1, 1e-3, 1e-6] {
            let sz = Sz::absolute(e);
            let d = sz
                .decompress(&sz.compress(&v, shape), shape)
                .expect("decode");
            for (a, b) in v.iter().zip(&d) {
                assert!((a - b).abs() <= e * 1.000001, "e={e}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn block_rel_bound_is_honored_blockwise() {
        let (v, shape) = smooth_3d(10);
        for &rel in &[1e-3, 1e-5] {
            let sz = Sz::block_rel(rel);
            let d = sz
                .decompress(&sz.compress(&v, shape), shape)
                .expect("decode");
            // Per-block guarantee: error <= rel * max|block|.
            for (b, chunk) in v.chunks(BLOCK_LEN).enumerate() {
                let maxv = chunk.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
                for (j, &a) in chunk.iter().enumerate() {
                    let got = d[b * BLOCK_LEN + j];
                    assert!(
                        (a - got).abs() <= rel * maxv * 1.000001,
                        "rel={rel}: {a} vs {got} (block max {maxv})"
                    );
                }
            }
        }
    }

    #[test]
    fn block_rel_preserves_all_zero_blocks_exactly() {
        let shape = Shape::d2(64, 16); // 1024 points = 4 blocks
        let mut v = vec![0.0; shape.len()];
        // Only the second block carries data.
        for i in BLOCK_LEN..2 * BLOCK_LEN {
            v[i] = (i as f64 * 0.1).sin() + 3.0;
        }
        let sz = Sz::block_rel(1e-4);
        let d = sz
            .decompress(&sz.compress(&v, shape), shape)
            .expect("decode");
        for i in 0..BLOCK_LEN {
            assert_eq!(d[i], 0.0);
        }
        for i in 2 * BLOCK_LEN..shape.len() {
            assert_eq!(d[i], 0.0);
        }
    }

    #[test]
    fn unassigned_mode_tags_are_unknown() {
        // Tag 1 belonged to a removed strict point-wise relative mode; it
        // stays unassigned, so a stream carrying it is rejected rather
        // than decoded under some other mode's layout.
        let (v, shape) = smooth_3d(6);
        let valid = Sz::absolute(1e-3).compress(&v, shape);
        for tag in [1u8, 3, 255] {
            let mut bytes = valid.clone();
            bytes[0] = tag;
            assert!(
                matches!(
                    Sz::absolute(1e-3).decompress(&bytes, shape),
                    Err(DecodeError::UnknownTag { what: "sz mode", tag: t }) if t == tag
                ),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn block_rel_body_looser_than_its_header_is_corrupt() {
        // A block_rel(1e-3) stream whose header bits were rewritten to
        // 1e-5: the header matches the codec, but the exponent table lets
        // every point err by about 80x what 1e-5 promises.
        let shape = Shape::d1(4096);
        let v: Vec<f64> = (0..4096)
            .map(|i| (i as f64 * 0.01).sin() * 50.0 + 80.0)
            .collect();
        let mut bytes = Sz::block_rel(1e-3).compress(&v, shape);
        bytes[1..9].copy_from_slice(&1e-5f64.to_le_bytes());
        assert_eq!(
            Sz::block_rel(1e-5).decompress(&bytes, shape),
            Err(DecodeError::Corrupt {
                what: "sz block exponent looser than the codec's bound"
            })
        );
    }

    #[test]
    fn block_rel_exponent_outside_the_encoders_clamp_is_corrupt() {
        // One block's exponent rewritten past the clamp: 1024 and up make
        // `exp2i` infinite or wrap, so the table is rejected before any
        // point is decoded under it.
        let shape = Shape::d1(1000);
        let v: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.02).cos() + 2.0).collect();
        let sz = Sz::block_rel(1e-3);
        let honest = sz.compress(&v, shape);
        let mut r = ByteReader::new(&honest[9..]);
        let tlen = r.varint("len").expect("table length") as usize;
        let raw = pipeline_decompress(r.take(tlen, "table").expect("table")).expect("table");
        let body = r.rest();
        for e in [1021, 1024, i16::MAX, -1021, i16::MIN + 1] {
            let mut exps = raw.clone();
            exps[2..4].copy_from_slice(&e.to_le_bytes());
            let table = pipeline_compress(&exps);
            let mut bytes = honest[..9].to_vec();
            encode_uvarint(table.len() as u64, &mut bytes);
            bytes.extend_from_slice(&table);
            bytes.extend_from_slice(body);
            assert_eq!(
                sz.decompress(&bytes, shape),
                Err(DecodeError::Corrupt {
                    what: "sz block exponent out of range"
                }),
                "exponent {e}"
            );
        }
    }

    #[test]
    fn block_rel_exponent_check_passes_honest_edge_cases() {
        // Clamped exponents (subnormals), blocks the encoder bounds by 1
        // although their finite values are far smaller (a NaN or an inf
        // among them), every bit pattern, and exponents at the ceiling.
        let mut rng = lrm_rng::Rng64::new(17);
        let subnormal: Vec<f64> = (0..700u64)
            .map(|i| f64::from_bits(1 + i * 0x0123_4567_89ab))
            .collect();
        let mut non_finite: Vec<f64> = (0..700).map(|i| (i as f64 * 0.3).sin() * 1e-3).collect();
        non_finite[10] = f64::NAN;
        non_finite[300] = f64::INFINITY;
        non_finite[600] = f64::NEG_INFINITY;
        let random_bits: Vec<f64> = (0..2000).map(|_| rng.any_f64_bits()).collect();
        let near_max: Vec<f64> = (0..700)
            .map(|i| f64::MAX * (1.0 - i as f64 * 1e-4) * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        for rel in [1e-5, 1e-3, 0.5, 1.0, 3.0] {
            for (what, v) in [
                ("subnormal", &subnormal),
                ("non-finite", &non_finite),
                ("random bits", &random_bits),
                ("near f64::MAX", &near_max),
            ] {
                let sz = Sz::block_rel(rel);
                let shape = Shape::d1(v.len());
                let d = sz.decompress(&sz.compress(v, shape), shape);
                assert!(d.is_ok(), "{what}, rel {rel}: {:?}", d.map(|d| d.len()));
            }
        }
    }

    #[test]
    fn smooth_data_beats_4x_at_1e5() {
        let (v, shape) = smooth_3d(24);
        let sz = Sz::block_rel(1e-5);
        let ratio = sz.ratio(&v, shape);
        assert!(ratio > 4.0, "ratio {ratio}");
    }

    #[test]
    fn smoother_data_compresses_better() {
        // The premise of the whole paper: smoothness drives SZ ratios.
        let shape = Shape::d1(4096);
        let smooth: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.001).sin()).collect();
        let mut rng = lrm_rng::Rng64::new(2);
        let rough: Vec<f64> = rng.vec_f64(-1.0, 1.0, 4096);
        let sz = Sz::absolute(1e-6);
        assert!(sz.ratio(&smooth, shape) > 2.0 * sz.ratio(&rough, shape));
    }

    #[test]
    fn random_data_roundtrips_within_bound() {
        let mut rng = lrm_rng::Rng64::new(4);
        let shape = Shape::d2(37, 23);
        let v: Vec<f64> = rng.vec_f64(-1e9, 1e9, shape.len());
        let sz = Sz::absolute(0.5);
        let d = sz
            .decompress(&sz.compress(&v, shape), shape)
            .expect("decode");
        for (a, b) in v.iter().zip(&d) {
            assert!((a - b).abs() <= 0.5 * 1.000001, "{a} vs {b}");
        }
    }

    #[test]
    fn constant_field_compresses_extremely() {
        let shape = Shape::d3(16, 16, 16);
        let v = vec![42.0; shape.len()];
        let sz = Sz::absolute(1e-9);
        let c = sz.compress(&v, shape);
        assert!(
            (v.len() * 8) as f64 / c.len() as f64 > 100.0,
            "constant field ratio too low: {}",
            (v.len() * 8) as f64 / c.len() as f64
        );
    }

    #[test]
    fn prop_abs_bound() {
        for seed in 0..32u64 {
            let mut rng = lrm_rng::Rng64::new(seed);
            let n = 1 + rng.range_usize(299);
            let vals = rng.vec_f64(-1e6, 1e6, n);
            let shape = Shape::d1(vals.len());
            let sz = Sz::absolute(1e-3);
            let d = sz
                .decompress(&sz.compress(&vals, shape), shape)
                .expect("decode");
            for (a, b) in vals.iter().zip(&d) {
                assert!((a - b).abs() <= 1e-3 * 1.000001);
            }
        }
    }

    #[test]
    fn prop_block_rel_bound() {
        for seed in 0..32u64 {
            let mut rng = lrm_rng::Rng64::new(seed);
            let n = 1 + rng.range_usize(599);
            let vals = rng.vec_f64(-1e3, 1e3, n);
            let shape = Shape::d1(vals.len());
            let sz = Sz::block_rel(1e-4);
            let d = sz
                .decompress(&sz.compress(&vals, shape), shape)
                .expect("decode");
            for (b, chunk) in vals.chunks(BLOCK_LEN).enumerate() {
                let maxv = chunk.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
                for (j, &a) in chunk.iter().enumerate() {
                    let got = d[b * BLOCK_LEN + j];
                    assert!((a - got).abs() <= 1e-4 * maxv * 1.000001);
                }
            }
        }
    }
}
