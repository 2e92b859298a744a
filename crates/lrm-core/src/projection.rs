//! Projection-based reduced models (Section IV): *one-base*,
//! *multi-base*, and *DuoModel*.
//!
//! All three identify a small reference ("base") inside or beside the
//! full-model output, compress the reference, and precondition the field
//! by subtracting the reference's *reconstruction* — so the final error
//! is governed solely by the delta codec's bound.
//!
//! One-base and multi-base are one slab walk. A field of at least two
//! dimensions is `count` slabs of `width` values along its slowest
//! axis: the rows of a 2-D field or the z-planes of a 3-D one. The walk
//! cuts the slabs into blocks, takes each block's middle slab as its
//! base, and subtracts it from every slab of the block. One-base is the
//! walk with one block; multi-base is the walk with several.

use crate::codec::LossyCodec;
use crate::pipeline::Reduction;
use lrm_compress::{DecodeError, DecodeResult, Shape};
use lrm_datasets::Field;

/// The blocks of slabs of one field: `g` blocks over `count` slabs of
/// `width` values, block `b` covering slabs `[b·count/g, (b+1)·count/g)`
/// with its middle slab as its base. The representation is the stack of
/// the `g` bases, of shape `stack`.
struct SlabWalk {
    width: usize,
    count: usize,
    g: usize,
    stack: Shape,
}

impl SlabWalk {
    /// The walk over `shape`, which must be at least 2-D, in `blocks`
    /// blocks, clamped to at least one and at most one per slab.
    fn new(shape: Shape, blocks: usize) -> Self {
        let [nx, ny, nz] = shape.dims;
        if shape.ndims() == 2 {
            let g = blocks.clamp(1, ny);
            SlabWalk {
                width: nx,
                count: ny,
                g,
                stack: Shape::d2(nx, g),
            }
        } else {
            let g = blocks.clamp(1, nz);
            SlabWalk {
                width: nx * ny,
                count: nz,
                g,
                stack: Shape::d3(nx, ny, g),
            }
        }
    }

    /// The block, and so the base, of slab `s`.
    fn base_of(&self, s: usize) -> usize {
        (s * self.g / self.count).min(self.g - 1)
    }
}

/// *One-base* (Algorithm 1): the mid-plane along the slowest dimension is
/// the reduced model, and every plane of the field subtracts it. On a
/// 3-D field the base is the mid z-plane; on a 2-D field it is the mid
/// y-row (the paper applies the same scheme to the 2-D Laplace output).
/// This is multi-base with one block.
pub fn one_base_precondition(field: &Field, orig_codec: &LossyCodec) -> Reduction {
    multi_base_precondition(field, 1, orig_codec)
}

/// Reconstructs a field from the one-base representation and a decoded
/// delta: multi-base with one block.
pub fn one_base_reconstruct(
    rep_bytes: &[u8],
    delta: &[f64],
    shape: Shape,
    orig_codec: &LossyCodec,
) -> DecodeResult<Vec<f64>> {
    multi_base_reconstruct(rep_bytes, delta, shape, 1, orig_codec)
}

/// *Multi-base*: the field's slabs are split into `blocks` blocks along
/// the slowest axis (the paper's per-subdomain view collapsed onto the
/// one axis the bases vary along); each block's middle slab is part of
/// the reduced model and is subtracted only within its block. The
/// representation is the stack of the bases: `nx × g` rows of a 2-D
/// field, `nx × ny × g` planes of a 3-D one.
///
/// # Panics
/// Panics if the field is not at least 2-D.
pub fn multi_base_precondition(field: &Field, blocks: usize, orig_codec: &LossyCodec) -> Reduction {
    assert!(
        field.shape.ndims() >= 2,
        "one-base and multi-base: field must be at least 2-D"
    );
    let walk = SlabWalk::new(field.shape, blocks);
    let slab = |s: usize| &field.data[s * walk.width..(s + 1) * walk.width];
    let mut bases = Vec::with_capacity(walk.width * walk.g);
    for b in 0..walk.g {
        let (s0, s1) = (b * walk.count / walk.g, (b + 1) * walk.count / walk.g);
        bases.extend_from_slice(slab((s0 + s1) / 2));
    }
    let rep_bytes = orig_codec.compress(&bases, walk.stack);
    let bases = orig_codec.decompress_own(&rep_bytes, walk.stack);

    let mut delta = Vec::with_capacity(field.len());
    for s in 0..walk.count {
        let base = &bases[walk.base_of(s) * walk.width..][..walk.width];
        delta.extend(slab(s).iter().zip(base).map(|(x, b)| x - b));
    }
    Reduction {
        rep_bytes,
        delta,
        rep_shape: walk.stack,
        k: 0,
    }
}

/// The encoder's precondition on a projection model's field, checked on
/// the shape an artifact declares: one-base and multi-base take fields
/// of at least two dimensions.
fn check_projection_shape(shape: Shape) -> DecodeResult<()> {
    if shape.ndims() < 2 {
        return Err(DecodeError::Corrupt {
            what: "projection model on a field below 2-D",
        });
    }
    Ok(())
}

/// Inverse of [`multi_base_precondition`].
pub fn multi_base_reconstruct(
    rep_bytes: &[u8],
    delta: &[f64],
    shape: Shape,
    blocks: usize,
    orig_codec: &LossyCodec,
) -> DecodeResult<Vec<f64>> {
    check_projection_shape(shape)?;
    let walk = SlabWalk::new(shape, blocks);
    let bases = orig_codec.decompress(rep_bytes, walk.stack)?;
    reconstruct_from_bases(delta, &bases, walk.width, |s| walk.base_of(s))
}

/// Adds the bases back onto the delta one slab of `width` values at a
/// time: delta slab `i` gets base slab `base_of(i)`, element by element.
fn reconstruct_from_bases(
    delta: &[f64],
    bases: &[f64],
    width: usize,
    base_of: impl Fn(usize) -> usize,
) -> DecodeResult<Vec<f64>> {
    let width = width.max(1);
    let mut out = Vec::with_capacity(delta.len());
    for (i, slab) in delta.chunks(width).enumerate() {
        let base = bases
            .chunks(width)
            .nth(base_of(i))
            .ok_or(DecodeError::Corrupt {
                what: "projection base slab",
            })?;
        out.extend(slab.iter().zip(base).map(|(d, b)| d + b));
    }
    Ok(out)
}

/// Trilinear upsampling of a coarse field onto `target` extents
/// (DuoModel's "linear constructed data").
pub fn upsample(coarse: &[f64], cshape: Shape, target: Shape) -> Vec<f64> {
    let [cx, cy, cz] = cshape.dims;
    let [tx, ty, tz] = target.dims;
    let mut out = Vec::with_capacity(target.len());
    let scale = |t: usize, tn: usize, cn: usize| -> (usize, usize, f64) {
        if tn <= 1 || cn <= 1 {
            return (0, 0, 0.0);
        }
        let f = t as f64 * (cn - 1) as f64 / (tn - 1) as f64;
        let i0 = (f.floor().max(0.0) as usize).min(cn - 1);
        let i1 = (i0 + 1).min(cn - 1);
        (i0, i1, f - i0 as f64)
    };
    for z in 0..tz {
        let (z0, z1, fz) = scale(z, tz, cz);
        for y in 0..ty {
            let (y0, y1, fy) = scale(y, ty, cy);
            for x in 0..tx {
                let (x0, x1, fx) = scale(x, tx, cx);
                let g = |xi: usize, yi: usize, zi: usize| coarse[cshape.idx(xi, yi, zi)];
                let c00 = g(x0, y0, z0) * (1.0 - fx) + g(x1, y0, z0) * fx;
                let c10 = g(x0, y1, z0) * (1.0 - fx) + g(x1, y1, z0) * fx;
                let c01 = g(x0, y0, z1) * (1.0 - fx) + g(x1, y0, z1) * fx;
                let c11 = g(x0, y1, z1) * (1.0 - fx) + g(x1, y1, z1) * fx;
                let c0 = c00 * (1.0 - fy) + c10 * fy;
                let c1 = c01 * (1.0 - fy) + c11 * fy;
                out.push(c0 * (1.0 - fz) + c1 * fz);
            }
        }
    }
    out
}

/// *DuoModel*: the reduced model is a separately-simulated coarse run;
/// the delta is against its (compressed) trilinear upsampling.
pub fn duo_model_precondition(field: &Field, coarse: &Field, orig_codec: &LossyCodec) -> Reduction {
    let rep_bytes = orig_codec.compress(&coarse.data, coarse.shape);
    let coarse_recon = orig_codec.decompress_own(&rep_bytes, coarse.shape);
    let up = upsample(&coarse_recon, coarse.shape, field.shape);
    let delta: Vec<f64> = field.data.iter().zip(&up).map(|(a, b)| a - b).collect();
    Reduction {
        rep_bytes,
        delta,
        rep_shape: coarse.shape,
        k: 0,
    }
}

/// Inverse of [`duo_model_precondition`].
pub fn duo_model_reconstruct(
    rep_bytes: &[u8],
    delta: &[f64],
    shape: Shape,
    coarse_shape: Shape,
    orig_codec: &LossyCodec,
) -> DecodeResult<Vec<f64>> {
    // `upsample` reads the coarse field at every target point.
    if coarse_shape.is_empty() && !shape.is_empty() {
        return Err(DecodeError::Corrupt {
            what: "DuoModel coarse field is empty",
        });
    }
    let coarse = orig_codec.decompress(rep_bytes, coarse_shape)?;
    let up = upsample(&coarse, coarse_shape, shape);
    Ok(delta.iter().zip(&up).map(|(d, b)| d + b).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heat_like_field(n: usize) -> Field {
        // Smooth in z with a symmetric profile: one-base's sweet spot.
        let shape = Shape::d3(n, n, n);
        let mut data = Vec::with_capacity(shape.len());
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let zf = z as f64 / (n - 1) as f64;
                    data.push(
                        100.0 * (std::f64::consts::PI * zf).sin()
                            + (x as f64 * 0.2).sin() * 3.0
                            + (y as f64 * 0.15).cos() * 2.0,
                    );
                }
            }
        }
        Field::new("heatlike", data, shape)
    }

    #[test]
    fn one_base_roundtrip_is_lossless_with_lossless_delta() {
        let f = heat_like_field(12);
        let codec = LossyCodec::SzRel(1e-6);
        let out = one_base_precondition(&f, &codec);
        // Reconstruct with the exact delta: error must be zero.
        let rec =
            one_base_reconstruct(&out.rep_bytes, &out.delta, f.shape, &codec).expect("decode");
        for (a, b) in f.data.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn one_base_delta_is_smoother_than_original() {
        // The paper's premise: variations in the delta are smaller than in
        // the raw field, making it more compressible.
        let f = heat_like_field(16);
        let codec = LossyCodec::SzRel(1e-6);
        let out = one_base_precondition(&f, &codec);
        let spread = |d: &[f64]| {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &v in d {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            hi - lo
        };
        assert!(spread(&out.delta) < spread(&f.data));
    }

    #[test]
    fn multi_base_roundtrip() {
        let f = heat_like_field(12);
        let codec = LossyCodec::ZfpPrecision(40);
        let out = multi_base_precondition(&f, 3, &codec);
        let rec =
            multi_base_reconstruct(&out.rep_bytes, &out.delta, f.shape, 3, &codec).expect("decode");
        for (a, b) in f.data.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn multi_base_deltas_are_smaller_than_one_base() {
        // Bases closer to every plane -> smaller absolute deltas.
        let f = heat_like_field(16);
        let codec = LossyCodec::SzRel(1e-6);
        let one = one_base_precondition(&f, &codec);
        let multi = multi_base_precondition(&f, 4, &codec);
        let energy = |d: &[f64]| d.iter().map(|v| v * v).sum::<f64>();
        assert!(energy(&multi.delta) < energy(&one.delta));
    }

    #[test]
    fn multi_base_rep_is_larger_than_one_base() {
        // The paper's explanation of why multi-base doesn't dominate:
        // more planes to store offset the smaller deltas.
        let f = heat_like_field(16);
        let codec = LossyCodec::SzRel(1e-6);
        let one = one_base_precondition(&f, &codec);
        let multi = multi_base_precondition(&f, 4, &codec);
        assert!(multi.rep_bytes.len() > one.rep_bytes.len());
    }

    #[test]
    fn upsample_reproduces_linear_fields_exactly() {
        let cshape = Shape::d3(3, 3, 3);
        let coarse: Vec<f64> = (0..27)
            .map(|i| {
                let (x, y, z) = (i % 3, (i / 3) % 3, i / 9);
                1.0 + x as f64 * 2.0 + y as f64 * 3.0 + z as f64 * 4.0
            })
            .collect();
        let tshape = Shape::d3(5, 5, 5);
        let up = upsample(&coarse, cshape, tshape);
        for z in 0..5 {
            for y in 0..5 {
                for x in 0..5 {
                    let want = 1.0 + x as f64 + y as f64 * 1.5 + z as f64 * 2.0;
                    let got = up[tshape.idx(x, y, z)];
                    assert!((got - want).abs() < 1e-12, "({x},{y},{z}): {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn upsample_identity_when_shapes_match() {
        let shape = Shape::d2(4, 3);
        let data: Vec<f64> = (0..12).map(|i| i as f64).collect();
        assert_eq!(upsample(&data, shape, shape), data);
    }

    #[test]
    fn duo_model_roundtrip() {
        let f = heat_like_field(12);
        // Coarse variant: sample every other point (a stand-in for a
        // coarse simulation).
        let cshape = Shape::d3(6, 6, 6);
        let mut coarse = Vec::with_capacity(cshape.len());
        for z in 0..6 {
            for y in 0..6 {
                for x in 0..6 {
                    coarse.push(f.at(x * 2, y * 2, z * 2));
                }
            }
        }
        let cf = Field::new("coarse", coarse, cshape);
        let codec = LossyCodec::SzRel(1e-6);
        let out = duo_model_precondition(&f, &cf, &codec);
        let rec = duo_model_reconstruct(&out.rep_bytes, &out.delta, f.shape, cshape, &codec)
            .expect("decode");
        for (a, b) in f.data.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2-D")]
    fn one_base_rejects_1d() {
        let f = Field::new("line", vec![0.0; 16], Shape::d1(16));
        one_base_precondition(&f, &LossyCodec::SzRel(1e-5));
    }

    #[test]
    fn one_base_2d_roundtrip() {
        let shape = Shape::d2(12, 10);
        let mut data = Vec::with_capacity(shape.len());
        for y in 0..10 {
            for x in 0..12 {
                data.push((x as f64 * 0.4).sin() * 5.0 + y as f64);
            }
        }
        let f = Field::new("lap", data, shape);
        let codec = LossyCodec::SzRel(1e-6);
        let out = one_base_precondition(&f, &codec);
        let rec = one_base_reconstruct(&out.rep_bytes, &out.delta, shape, &codec).expect("decode");
        for (a, b) in f.data.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn multi_base_2d_roundtrip() {
        let shape = Shape::d2(16, 12);
        let data: Vec<f64> = (0..shape.len())
            .map(|i| (i as f64 * 0.17).cos() * 3.0)
            .collect();
        let f = Field::new("lap", data, shape);
        let codec = LossyCodec::ZfpPrecision(48);
        let out = multi_base_precondition(&f, 3, &codec);
        let rec =
            multi_base_reconstruct(&out.rep_bytes, &out.delta, shape, 3, &codec).expect("decode");
        for (a, b) in f.data.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
