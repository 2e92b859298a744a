//! Floating-point compressors reproducing the paper's substrate.
//!
//! The paper evaluates its preconditioning strategies against three
//! compressors, all reimplemented here from their published algorithms:
//!
//! * [`Zfp`] — transform-based lossy compressor (Lindstrom, TVCG 2014):
//!   4^d blocks, common-exponent block-float conversion, lifted
//!   decorrelating transform, negabinary, embedded bit-plane coding.
//!   Supports the fixed-precision mode the paper uses (16 bits for
//!   original data, 8 bits for deltas; 8..=32 for the Fig. 11 sweep).
//! * [`Sz`] — prediction-based lossy compressor (Di & Cappello, IPDPS
//!   2016): Lorenzo prediction, linear-scaling quantization, Huffman +
//!   LZSS entropy stages, with point-wise relative and absolute error
//!   bounds (the paper uses rel 1e-5 for original data, 1e-3 for deltas).
//! * [`Fpc`] — lossless double compressor (Burtscher & Ratanaworabhan,
//!   TC 2009): FCM/DFCM predictors + leading-zero-byte encoding
//!   (the paper uses level 20 with a 2^24-byte table).
//!
//! All codecs implement [`Codec`] over a [`Shape`]-annotated `f64` slice.

// Index-symmetric loops read more clearly than iterator chains in
// numerical kernels; silence the pedantic lint crate-wide.
#![allow(clippy::needless_range_loop)]
// Decode paths consume untrusted bytes and must surface failures as
// `DecodeError`, never abort. Promoted per the decode-path contract in
// DESIGN.md; test code may still panic freely.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod bitstream;
pub mod error;
pub mod fpc;
pub mod lossless;
#[doc(hidden)]
pub mod reference;
pub mod sz;
pub mod zfp;

pub use bitstream::ByteReader;
pub use error::{DecodeError, DecodeResult};
pub use fpc::Fpc;
pub use sz::{Sz, SzErrorBound};
pub use zfp::Zfp;

/// Logical shape of a 1-D/2-D/3-D scalar field stored in row-major
/// (x fastest) order. Higher dimensions hold size 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Extents `[nx, ny, nz]`; unused trailing dimensions are 1.
    pub dims: [usize; 3],
}

impl Shape {
    /// 1-D shape of length `nx`.
    pub fn d1(nx: usize) -> Self {
        Self { dims: [nx, 1, 1] }
    }
    /// 2-D shape `nx × ny` (x fastest).
    pub fn d2(nx: usize, ny: usize) -> Self {
        Self { dims: [nx, ny, 1] }
    }
    /// 3-D shape `nx × ny × nz` (x fastest).
    pub fn d3(nx: usize, ny: usize, nz: usize) -> Self {
        Self { dims: [nx, ny, nz] }
    }
    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }
    /// True when the field holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Dimensionality: 1, 2, or 3 (a trailing extent of 1 is not counted,
    /// except that a fully scalar shape reports 1).
    pub fn ndims(&self) -> usize {
        if self.dims[2] > 1 {
            3
        } else if self.dims[1] > 1 {
            2
        } else {
            1
        }
    }
    /// Row-major linear index of `(x, y, z)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.dims[1] + y) * self.dims[0] + x
    }
}

/// A lossy or lossless compressor for shaped `f64` fields.
pub trait Codec {
    /// Human-readable codec name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Compresses `data`, which must contain exactly `shape.len()` values.
    fn compress(&self, data: &[f64], shape: Shape) -> Vec<u8>;

    /// Decompresses a buffer produced by [`Codec::compress`] with the same
    /// `shape`. Malformed or truncated input yields a [`DecodeError`];
    /// decoders must never panic on untrusted bytes.
    fn decompress(&self, bytes: &[u8], shape: Shape) -> DecodeResult<Vec<f64>>;

    /// Compression ratio achieved on `data`: original bytes / compressed
    /// bytes.
    fn ratio(&self, data: &[f64], shape: Shape) -> f64 {
        let c = self.compress(data, shape);
        (data.len() * 8) as f64 / c.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_len_and_idx() {
        let s = Shape::d3(4, 3, 2);
        assert_eq!(s.len(), 24);
        assert_eq!(s.ndims(), 3);
        assert_eq!(s.idx(0, 0, 0), 0);
        assert_eq!(s.idx(3, 2, 1), 23);
        assert_eq!(s.idx(1, 1, 1), 12 + 4 + 1);
    }

    #[test]
    fn shape_ndims() {
        assert_eq!(Shape::d1(10).ndims(), 1);
        assert_eq!(Shape::d2(10, 2).ndims(), 2);
        assert_eq!(Shape::d3(10, 1, 2).ndims(), 3);
        assert_eq!(Shape::d1(1).ndims(), 1);
    }
}
