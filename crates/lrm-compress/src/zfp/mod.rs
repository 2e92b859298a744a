//! ZFP-like transform-based lossy compressor.
//!
//! Pipeline (per 4^d block, following Lindstrom's fixed-rate compressed
//! floating-point arrays): align block values to a common exponent,
//! convert to 62-bit fixed point, apply the reversible decorrelating
//! lifting transform, reorder by total sequency, map to negabinary, and
//! emit bit planes with embedded group-testing coding.
//!
//! The paper uses ZFP's **fixed-precision** mode: 16 bits of precision for
//! original data, 8 bits for deltas, and an 8..=32 sweep for the Fig. 11
//! rate-distortion comparison. That is the only mode implemented: every
//! block encodes the same number of bit planes.
//!
//! Both directions run on the caller's thread, block after block, into
//! and out of one bit stream. The codec starts no threads: the pipeline
//! engine and the server own the parallelism, so their thread counts
//! bound the threads ZFP runs on.

pub mod block;
pub mod codec;
pub mod transform;

use crate::bitstream::{BitReader, BitWriter, ByteReader};
use crate::error::{DecodeError, DecodeResult};
use crate::lossless::varint::encode_uvarint;
use crate::{Codec, Shape};
pub use codec::ldexp;

/// ZFP-like codec in fixed-precision mode. See the module docs for the
/// algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zfp {
    /// Bit planes encoded per block (1..=64).
    precision: u32,
}

impl Zfp {
    /// Creates a codec that encodes `bits` planes per block (clamped to
    /// 1..=64).
    pub fn fixed_precision(bits: u32) -> Self {
        Self {
            precision: bits.clamp(1, 64),
        }
    }
}

impl Codec for Zfp {
    fn name(&self) -> &'static str {
        "ZFP"
    }

    fn compress(&self, data: &[f64], shape: Shape) -> Vec<u8> {
        assert_eq!(data.len(), shape.len(), "zfp: data/shape mismatch");
        let ndims = shape.ndims();
        let bsize = 1usize << (2 * ndims);
        let mut stream = BitWriter::with_capacity_bits(data.len() * 20);
        let mut scratch = codec::BlockScratch::new();
        for b in block::block_coords(shape) {
            block::gather(data, shape, b, &mut scratch.blk[..bsize]);
            codec::encode_block_scratch(&mut scratch, ndims, self.precision, &mut stream);
        }
        let total_bits = stream.len_bits();
        // Frame the stream with its exact bit length so the decoder can
        // tell a truncated stream apart from one whose tail planes are
        // legitimately zero (BitReader reads zeros past the end).
        let payload = stream.into_bytes();
        let mut out = Vec::with_capacity(payload.len() + 10);
        encode_uvarint(total_bits as u64, &mut out);
        out.extend_from_slice(&payload);
        out
    }

    fn decompress(&self, bytes: &[u8], shape: Shape) -> DecodeResult<Vec<f64>> {
        let mut r = ByteReader::new(bytes);
        let total_bits = r.varint("zfp bit-count header")?;
        let payload = r.rest();
        if (payload.len() as u64).saturating_mul(8) < total_bits {
            return Err(DecodeError::Truncated {
                what: "zfp bit stream",
            });
        }
        let ndims = shape.ndims();
        let bsize = 1usize << (2 * ndims);
        let mut reader = BitReader::new(payload);
        let mut data = vec![0.0f64; shape.len()];
        let mut scratch = codec::BlockScratch::new();
        for b in block::block_coords(shape) {
            codec::decode_block_scratch(&mut scratch, ndims, self.precision, &mut reader)?;
            let blk = scratch.blk.get(..bsize).ok_or(DecodeError::Corrupt {
                what: "zfp block size exceeds scratch",
            })?;
            block::scatter(blk, shape, b, &mut data);
        }
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_field_2d(nx: usize, ny: usize) -> (Vec<f64>, Shape) {
        let shape = Shape::d2(nx, ny);
        let mut v = vec![0.0; shape.len()];
        for y in 0..ny {
            for x in 0..nx {
                v[shape.idx(x, y, 0)] =
                    ((x as f64) * 0.07).sin() * ((y as f64) * 0.05).cos() * 40.0 + 100.0;
            }
        }
        (v, shape)
    }

    #[test]
    fn roundtrip_2d_smooth_bounded_error() {
        let (v, shape) = smooth_field_2d(33, 29);
        let z = Zfp::fixed_precision(32);
        let c = z.compress(&v, shape);
        let d = z.decompress(&c, shape).expect("decode");
        let range = 80.0;
        for (a, b) in v.iter().zip(&d) {
            assert!((a - b).abs() < range * 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn smooth_data_compresses_well_at_16_bits() {
        let (v, shape) = smooth_field_2d(64, 64);
        let z = Zfp::fixed_precision(16);
        let ratio = z.ratio(&v, shape);
        // The paper's ZFP baseline gets ~4x on raw HPC data; smooth
        // synthetic data should beat that.
        assert!(ratio > 4.0, "ratio {ratio}");
    }

    #[test]
    fn constant_field_compresses_extremely() {
        let shape = Shape::d3(16, 16, 16);
        let v = vec![0.0; shape.len()];
        let z = Zfp::fixed_precision(16);
        let c = z.compress(&v, shape);
        assert!(
            c.len() < 32,
            "all-zero field should be ~1 bit/block: {}",
            c.len()
        );
        assert_eq!(z.decompress(&c, shape).expect("decode"), v);
    }

    #[test]
    fn roundtrip_1d_and_3d() {
        let z = Zfp::fixed_precision(40);
        let s1 = Shape::d1(100);
        let v1: Vec<f64> = (0..100).map(|i| (i as f64 * 0.2).sin()).collect();
        let d1 = z.decompress(&z.compress(&v1, s1), s1).expect("decode");
        for (a, b) in v1.iter().zip(&d1) {
            assert!((a - b).abs() < 1e-8);
        }
        let s3 = Shape::d3(9, 10, 11);
        let v3: Vec<f64> = (0..s3.len())
            .map(|i| (i as f64 * 0.01).cos() * 5.0)
            .collect();
        let d3 = z.decompress(&z.compress(&v3, s3), s3).expect("decode");
        for (a, b) in v3.iter().zip(&d3) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn higher_precision_means_bigger_output_and_smaller_error() {
        let (v, shape) = smooth_field_2d(48, 48);
        let mut last_len = 0usize;
        let mut last_err = f64::INFINITY;
        for &p in &[8u32, 16, 24, 32] {
            let z = Zfp::fixed_precision(p);
            let c = z.compress(&v, shape);
            let d = z.decompress(&c, shape).expect("decode");
            let err = lrm_err(&v, &d);
            assert!(c.len() >= last_len, "precision {p}");
            assert!(err <= last_err * 1.01, "precision {p}: {err} vs {last_err}");
            last_len = c.len();
            last_err = err;
        }
    }

    fn lrm_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn negative_and_mixed_sign_data_roundtrip() {
        let shape = Shape::d2(20, 20);
        let v: Vec<f64> = (0..400).map(|i| ((i as f64) - 200.0) * 0.3).collect();
        let z = Zfp::fixed_precision(48);
        let d = z.decompress(&z.compress(&v, shape), shape).expect("decode");
        for (a, b) in v.iter().zip(&d) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "data/shape mismatch")]
    fn compress_rejects_wrong_length() {
        Zfp::fixed_precision(16).compress(&[1.0, 2.0], Shape::d1(3));
    }

    #[test]
    fn parallel_group_stitching_roundtrips_across_group_boundaries() {
        // 40³ = 1000 blocks in one stream: the name is from when the
        // encoder split blocks into groups of 256 and joined their bits.
        let shape = Shape::d3(40, 40, 40);
        let v: Vec<f64> = (0..shape.len())
            .map(|i| ((i % 977) as f64 * 0.13).sin() * 25.0 + (i / 1600) as f64)
            .collect();
        let z = Zfp::fixed_precision(32);
        let d = z.decompress(&z.compress(&v, shape), shape).expect("decode");
        let maxv = v.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        for (a, b) in v.iter().zip(&d) {
            assert!((a - b).abs() <= maxv * 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn prop_roundtrip_error_bounded() {
        for seed in 0..32u64 {
            let mut rng = lrm_rng::Rng64::new(seed);
            let n = 1 + rng.range_usize(199);
            let vals = rng.vec_f64(-1e6, 1e6, n);
            let shape = Shape::d1(vals.len());
            let z = Zfp::fixed_precision(48);
            let d = z
                .decompress(&z.compress(&vals, shape), shape)
                .expect("decode");
            let maxv = vals.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
            for (a, b) in vals.iter().zip(&d) {
                assert!((a - b).abs() <= maxv * 1e-10 + 1e-12);
            }
        }
    }
}
