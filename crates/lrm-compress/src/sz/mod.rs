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
//! The scan is split the way SZ3 splits a prediction compressor, without
//! changing SZ 1.4's bytes. [`predictor::lorenzo_walk`] visits the points
//! in scan order and predicts each one, reading interior neighbors from
//! row slices and carrying the previous value in a register. The encoder
//! and the decoder are each a per-point [`predictor::PointCoder`] driven
//! by that one walk. The quantizer multiplies by the exact reciprocal of
//! `2e` when `2e` is a normal power of two (every block-relative bound),
//! and rounds inline: no division and no libm call sit on the Lorenzo
//! recurrence.
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
use predictor::{lorenzo_walk, PointCoder};
use std::convert::Infallible;

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

/// The 52 mantissa bits of an `f64`.
const MANTISSA_MASK: u64 = (1 << 52) - 1;

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
    /// The quantizer of the run of scan-order points that holds point `i`,
    /// and the run's exclusive end: the whole field for a uniform bound,
    /// else `i`'s block. `None` marks an all-zero block, whose points are
    /// not coded and reconstruct as zero.
    fn run_at(&self, i: usize) -> (Option<Quantizer>, usize) {
        match self {
            Bounds::Uniform(e) => (
                Some(Quantizer::new(*e, e.log2().floor() as i32)),
                usize::MAX,
            ),
            Bounds::PerBlock(exps) => {
                let block = i / BLOCK_LEN;
                let end = (block + 1) * BLOCK_LEN;
                match exps.get(block) {
                    // ⌊log2 2^k⌋ is k itself: no libm call.
                    Some(&k) if k != ZERO_BLOCK => (Some(Quantizer::new(exp2i(k), k.into())), end),
                    _ => (None, end),
                }
            }
        }
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

/// Offset of a hit's quantization code: a hit stores `q + RADIUS`, and
/// code 0 marks an outlier.
const RADIUS: i64 = 1 << (QUANT_BITS - 1);

/// A hit needs `|round(y)| < RADIUS − 1`, which for round-half-away is
/// `|y| < RADIUS − 1.5`. The test comes before the rounding, which is
/// exact only for `|y| < 2^51`.
const QUANT_LIMIT: f64 = (RADIUS - 1) as f64 - 0.5;

/// Linear-scaling quantization under one absolute bound `e`: a point is a
/// hit when its prediction error rounds to `q` steps of `2e`, `|q|` is
/// below `RADIUS − 1`, and the reconstruction `pred + q · 2e` lies within
/// `e` of the value.
#[derive(Debug, Clone, Copy)]
struct Quantizer {
    e: f64,
    /// `2e`.
    step: f64,
    /// `1 / 2e` when `2e` is a normal power of two, else 0. The reciprocal
    /// of such a step is exact, and IEEE rounds `d · (1 / 2e)` and
    /// `d / 2e` from the same real number, so the scan multiplies where
    /// SZ divides. That covers every block-relative bound and any
    /// power-of-two absolute bound; other bounds keep the division.
    inv_step: f64,
    /// `⌊log2 e⌋`, which sizes every outlier's mantissa.
    exp: i32,
}

impl Quantizer {
    fn new(e: f64, exp: i32) -> Self {
        let step = 2.0 * e;
        let pow2 = step.is_normal() && step.to_bits() & MANTISSA_MASK == 0;
        Self {
            e,
            step,
            inv_step: if pow2 { 1.0 / step } else { 0.0 },
            exp,
        }
    }

    /// The code and the reconstruction of `v` predicted as `pred`, or
    /// `None` when `v` is stored as an outlier.
    #[inline(always)]
    fn quantize(&self, v: f64, pred: f64) -> Option<(u64, f64)> {
        let d = v - pred;
        let y = if self.inv_step != 0.0 {
            d * self.inv_step
        } else {
            d / self.step
        };
        // A NaN or an infinity in `v`, in `pred` or in `y` fails this too.
        if y.abs() < QUANT_LIMIT {
            let q = round_half_away(y);
            let r = self.dequantize(pred, q);
            if (r - v).abs() <= self.e {
                return Some(((q as i64 + RADIUS) as u64, r));
            }
        }
        None
    }

    /// The reconstruction of a hit `q` steps from `pred`. While `2e` is
    /// finite, `q · 2e` equals `(q · 2) · e`, the product SZ forms; a
    /// bound whose `2e` overflows keeps SZ's order.
    #[inline(always)]
    fn dequantize(&self, pred: f64, q: f64) -> f64 {
        if self.inv_step != 0.0 {
            pred + q * self.step
        } else {
            pred + q * 2.0 * self.e
        }
    }
}

/// `y` rounded to the nearest integer, ties away from zero, without the
/// libm call: for `|y| < 2^51` this is `y.round() as i64 as f64` bit for
/// bit. Adding and subtracting `1.5 · 2^52` rounds to the nearest integer
/// with ties to even, and an exact tie then moves away from zero. A `y`
/// in `(−0.5, 0]` gives `+0.0`, as the integer conversion does, where
/// `y.round()` gives `−0.0`: SZ reconstructs a hit from the integer code,
/// so the encoder's `pred + q · 2e` and the decoder's agree even in the
/// sign of a zero.
#[inline(always)]
fn round_half_away(y: f64) -> f64 {
    const SHIFTER: f64 = 6_755_399_441_055_744.0;
    let t = (y + SHIFTER) - SHIFTER;
    if (y - t).abs() == 0.5 {
        y + 0.5f64.copysign(y)
    } else {
        t
    }
}

/// Mantissa bits an outlier with biased exponent `raw_exp` keeps so that
/// it errs by at most `e/2`, given `bound_exp = ⌊log2 e⌋`. A subnormal or
/// non-finite value keeps all 52.
fn mantissa_bits(raw_exp: u64, bound_exp: i32) -> u32 {
    if raw_exp == 0x7ff || raw_exp == 0 {
        return 52;
    }
    let ev = raw_exp as i32 - 1023; // |v| in [2^ev, 2^(ev+1))
    (ev - bound_exp + 1).clamp(0, 52) as u32
}

/// Stores an outlier by binary-representation analysis: its sign, its
/// exponent and the top [`mantissa_bits`] of its mantissa. Returns the
/// value the decoder's predictor will see: the stored value, or 0.0 in
/// place of a non-finite one.
#[cold]
fn write_outlier(out: &mut BitWriter, v: f64, bound_exp: i32) -> f64 {
    let vb = v.to_bits();
    let sign = vb >> 63;
    let raw_exp = (vb >> 52) & 0x7ff;
    let mb = mantissa_bits(raw_exp, bound_exp);
    let top = (vb & MANTISSA_MASK) >> (52 - mb);
    out.write_bit(sign);
    out.write_bits(raw_exp, 11);
    out.write_bits(top, mb);
    let stored = f64::from_bits((sign << 63) | (raw_exp << 52) | (top << (52 - mb)));
    if stored.is_finite() {
        stored
    } else {
        0.0
    }
}

/// Inverse of [`write_outlier`]; the mantissa width is recomputed from
/// the exponent exactly as the encoder computed it.
fn read_outlier(outliers: &mut BitReader<'_>, bound_exp: i32) -> f64 {
    let sign = outliers.read_bit();
    let raw_exp = outliers.read_bits(11);
    let mb = mantissa_bits(raw_exp, bound_exp);
    let top = outliers.read_bits(mb);
    f64::from_bits((sign << 63) | (raw_exp << 52) | (top << (52 - mb)))
}

/// SZ's encoder at each point: quantize, or store an outlier.
struct Encoder<'a> {
    data: &'a [f64],
    bounds: &'a Bounds<'a>,
    codes: Vec<u64>,
    outliers: BitWriter,
}

impl PointCoder for Encoder<'_> {
    type Run = Quantizer;
    type Input = f64;
    type Error = Infallible;

    fn run_at(&self, i: usize) -> (Option<Quantizer>, usize) {
        self.bounds.run_at(i)
    }

    #[inline(always)]
    fn input(&mut self, i: usize, _: &Quantizer) -> Result<f64, Infallible> {
        Ok(self.data[i])
    }

    #[inline(always)]
    fn value(&mut self, _: usize, v: f64, pred: f64, quant: &Quantizer) -> f64 {
        match quant.quantize(v, pred) {
            Some((code, r)) => {
                self.codes.push(code);
                r
            }
            None => {
                self.codes.push(0);
                write_outlier(&mut self.outliers, v, quant.exp)
            }
        }
    }
}

/// Core compressor over a shaped field with per-point bounds.
fn core_compress(data: &[f64], shape: Shape, bounds: &Bounds<'_>) -> Vec<u8> {
    let mut encoder = Encoder {
        data,
        bounds,
        codes: Vec::with_capacity(data.len()),
        outliers: BitWriter::new(),
    };
    let mut recon = vec![0.0f64; data.len()];
    let Ok(()) = lorenzo_walk(&mut recon, shape, &mut encoder);

    // Entropy stages: Huffman over codes, then LZSS over everything.
    let huff = huffman_encode(&encoder.codes);
    let outlier_bytes = encoder.outliers.into_bytes();
    let mut body = Vec::with_capacity(huff.len() + outlier_bytes.len() + 32);
    encode_uvarint(huff.len() as u64, &mut body);
    body.extend_from_slice(&huff);
    encode_uvarint(outlier_bytes.len() as u64, &mut body);
    body.extend_from_slice(&outlier_bytes);
    pipeline_compress(&body)
}

/// SZ's decoder at each point: a quantization code, or an outlier.
struct Decoder<'a> {
    bounds: &'a Bounds<'a>,
    codes: HuffmanDecoder<'a>,
    outliers: BitReader<'a>,
    /// Non-finite outliers: the predictor sees 0.0 at these positions, and
    /// they are patched into the field after the walk, so no second
    /// full-size output array is kept.
    patches: Vec<(usize, f64)>,
}

/// A point as the decoder reads it, before its prediction is known.
enum Coded {
    /// A hit `q` steps of `2e` from the prediction.
    Hit(i64),
    /// An outlier, as the predictor sees it.
    Outlier(f64),
}

impl PointCoder for Decoder<'_> {
    type Run = Quantizer;
    type Input = Coded;
    type Error = DecodeError;

    fn run_at(&self, i: usize) -> (Option<Quantizer>, usize) {
        self.bounds.run_at(i)
    }

    #[inline(always)]
    fn input(&mut self, i: usize, quant: &Quantizer) -> DecodeResult<Coded> {
        if self.codes.remaining() == 0 {
            return Err(DecodeError::Corrupt {
                what: "sz quantization codes exhausted",
            });
        }
        let code = self.codes.next_symbol()?;
        if code != 0 {
            return Ok(Coded::Hit((code as i64).wrapping_sub(RADIUS)));
        }
        let v = read_outlier(&mut self.outliers, quant.exp);
        if !v.is_finite() {
            self.patches.push((i, v));
            return Ok(Coded::Outlier(0.0));
        }
        Ok(Coded::Outlier(v))
    }

    #[inline(always)]
    fn value(&mut self, _: usize, coded: Coded, pred: f64, quant: &Quantizer) -> f64 {
        match coded {
            Coded::Hit(q) => quant.dequantize(pred, q as f64),
            Coded::Outlier(v) => v,
        }
    }
}

/// Inverse of [`core_compress`].
fn core_decompress(bytes: &[u8], shape: Shape, bounds: &Bounds<'_>) -> DecodeResult<Vec<f64>> {
    let body = pipeline_decompress(bytes)?;
    let mut r = ByteReader::new(&body);
    let hlen = r.varint("sz huffman length")? as usize;
    let codes = HuffmanDecoder::new(r.take(hlen, "sz huffman block")?)?;
    let olen = r.varint("sz outlier length")? as usize;
    let outliers = BitReader::new(r.take(olen, "sz outlier block")?);
    let mut decoder = Decoder {
        bounds,
        codes,
        outliers,
        patches: Vec::new(),
    };
    let mut recon = vec![0.0f64; shape.len()];
    lorenzo_walk(&mut recon, shape, &mut decoder)?;
    for (i, v) in decoder.patches {
        if let Some(slot) = recon.get_mut(i) {
            *slot = v;
        }
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

    /// A random `|y| < 2^51` of any magnitude, sign and fraction.
    fn any_y(rng: &mut lrm_rng::Rng64) -> f64 {
        let mag = f64::from_bits(rng.next_u64() >> 12 | 0x3ff0_0000_0000_0000) - 1.0;
        let y = mag * 2f64.powi(rng.range_u64(112) as i32 - 60);
        if rng.bool(0.5) {
            -y
        } else {
            y
        }
    }

    #[test]
    fn round_half_away_is_the_integer_round_trip_of_round() {
        let mut ys = vec![0.0, -0.0, 5e-324, -5e-324, 0.49999999999999994, 0.5];
        ys.extend([
            1.5,
            2.5,
            3.5,
            32765.5,
            32766.5,
            32767.5,
            2f64.powi(50) + 0.5,
        ]);
        for y in ys.clone() {
            ys.extend([-y, y.next_up(), y.next_down(), -y.next_up(), -y.next_down()]);
        }
        let mut rng = lrm_rng::Rng64::new(0x20D);
        for _ in 0..200_000 {
            let y = any_y(&mut rng);
            // Half-integers and their neighbors, up to 2^50.
            let tie = (rng.next_u64() >> (14 + rng.range_u64(50))) as f64 + 0.5;
            ys.extend([y, tie, tie.next_up(), tie.next_down(), -tie]);
        }
        for y in ys {
            let got = round_half_away(y);
            let want = y.round();
            assert_eq!(got.to_bits(), (want as i64 as f64).to_bits(), "y = {y:e}");
            if want != 0.0 {
                assert_eq!(got.to_bits(), want.to_bits(), "y = {y:e}");
            }
        }
        // A y that rounds to zero gives +0.0, as `qi as f64` did.
        assert_eq!(round_half_away(-0.3).to_bits(), 0);
        assert_eq!(round_half_away(-0.0).to_bits(), 0);
    }

    #[test]
    fn reciprocal_of_a_power_of_two_step_divides_exactly() {
        // Every normal power-of-two step takes the multiply, and its
        // products equal the quotients, subnormal ones included.
        let mut rng = lrm_rng::Rng64::new(0x2E);
        for k in -1022..=1023 {
            let step = 2f64.powi(k);
            let quant = Quantizer::new(step / 2.0, k - 1);
            assert_eq!(quant.step, step);
            assert_ne!(quant.inv_step, 0.0, "2^{k}");
            for _ in 0..300 {
                let d = f64::from_bits(rng.next_u64() & !(1 << 62));
                let small = d * 2f64.powi(-1000);
                for d in [d, -d, small, -small] {
                    assert_eq!(
                        (d * quant.inv_step).to_bits(),
                        (d / step).to_bits(),
                        "d = {d:e}, 2e = 2^{k}"
                    );
                }
            }
        }
        for e in [0.3, 1e-3, 0.75, f64::MAX, 2f64.powi(1023), 5e-324, 1e-320] {
            assert_eq!(Quantizer::new(e, 0).inv_step, 0.0, "e = {e:e}");
        }
    }

    /// SZ 1.4's quantization as this crate wrote it before the scan was
    /// split: the code and the encoder's reconstruction of a hit.
    fn sz14_quantize(v: f64, pred: f64, e: f64) -> Option<(u64, f64)> {
        let q = if v.is_finite() && pred.is_finite() {
            ((v - pred) / (2.0 * e)).round()
        } else {
            f64::INFINITY
        };
        let hit = q.is_finite() && q.abs() < (RADIUS - 1) as f64 && {
            let r = pred + q * 2.0 * e;
            (r - v).abs() <= e
        };
        hit.then(|| {
            let qi = q as i64;
            ((qi + RADIUS) as u64, pred + qi as f64 * 2.0 * e)
        })
    }

    #[test]
    fn quantizer_matches_sz14_and_the_decoder_bit_for_bit() {
        let mut bounds: Vec<f64> = [-1074, -1073, -1023, -1022, -1021, -500, -20, -1, 0]
            .iter()
            .chain(&[1, 20, 500, 1021, 1022, 1023])
            .map(|&j| 2f64.powi(j))
            .collect();
        bounds.extend([0.3, 1e-3, 0.75, 1e300, f64::MAX, 3.0 * f64::MIN_POSITIVE]);
        let fractions = [0.0, 0.5, -0.5, 0.49999999999999994, -0.49999999999999994];
        let mut rng = lrm_rng::Rng64::new(0x5214);
        for e in bounds {
            let quant = Quantizer::new(e, e.log2().floor() as i32);
            let mut cases = vec![
                // pred = −0.0 with a hit of zero steps: SZ reconstructs
                // +0.0 from the integer code.
                (-(1e-30_f64.min(e / 4.0)), -0.0),
                (-0.0, -0.0),
                (0.0, -0.0),
                (f64::NAN, 1.0),
                (f64::INFINITY, 1.0),
                (1.0, f64::NEG_INFINITY),
                (f64::MAX, -f64::MAX),
            ];
            // The edges of the code range: |q| = 32766 is a hit, 32767 not.
            for n in [32766.0, 32767.0, -32766.0, -32767.0] {
                for f in fractions {
                    cases.push((1.0 + (n + f) * 2.0 * e, 1.0));
                }
            }
            for _ in 0..3_000 {
                let pred = match rng.range_u64(4) {
                    0 => any_y(&mut rng),
                    1 => any_y(&mut rng) * e,
                    2 => rng.any_f64_bits(),
                    _ => 0.0,
                };
                let n = rng.range_u64(80_000) as f64 - 40_000.0;
                let f = fractions[rng.range_usize(fractions.len())];
                let f = if rng.bool(0.5) {
                    f
                } else {
                    rng.next_f64() - 0.5
                };
                cases.push((pred + (n + f) * 2.0 * e, pred));
                cases.push((rng.any_f64_bits(), pred));
            }
            for (v, pred) in cases {
                let got = quant.quantize(v, pred);
                let want = sz14_quantize(v, pred, e);
                let bits = |c: Option<(u64, f64)>| c.map(|(code, r)| (code, r.to_bits()));
                assert_eq!(
                    bits(got),
                    bits(want),
                    "e = {e:e}, v = {v:e}, pred = {pred:e}"
                );
                if let Some((code, r)) = got {
                    let q = code as i64 - RADIUS;
                    let decoded = quant.dequantize(pred, q as f64);
                    assert_eq!(decoded.to_bits(), r.to_bits(), "e = {e:e}, v = {v:e}");
                    assert_eq!(decoded.to_bits(), (pred + q as f64 * 2.0 * e).to_bits());
                }
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
