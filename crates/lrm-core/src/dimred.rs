//! Dimension-reduction reduced models (Section V): PCA, SVD, Wavelet.
//!
//! The field is viewed as an `m × n` matrix (higher dimensions flattened
//! into rows, x as columns — the paper's "linear combinations of the
//! original data in columns"). Each technique produces a *reduced
//! representation* and the delta of the original against the
//! representation's reconstruction:
//!
//! * **PCA** — scores on the top-k principal components (k chosen by the
//!   95 % cumulative-variance rule) plus the eigenvectors and column
//!   means. The scores (the bulk) are lossy-compressed; the small basis
//!   is stored raw.
//! * **SVD** — top-k singular triplets; `U_k` (the bulk) is
//!   lossy-compressed, `σ` and `V_k` stored raw.
//! * **Wavelet** — thresholded 2-D Haar coefficients stored as a sparse
//!   matrix (lossless; its sparsity *is* the reduction).
//!
//! This module owns the PCA and SVD representation of one matrix, its
//! *body*: `k`, the raw small factors (means and basis, or `σ` and
//! `V_k`), then the length-prefixed lossy stream. `fit_pca`/`fit_svd`
//! write a body and `rebuild_pca`/`rebuild_svd` read one back. The
//! whole-field models write `m, n` before it; [`crate::partitioned`]
//! writes one body per row block, after the block's row count.
//!
//! Every decoder checks the header against the delta before sizing
//! anything from it: `m·n` must equal the delta's length, and `k` may
//! not exceed `n` (PCA) or `min(m, n)` (SVD).

use crate::codec::LossyCodec;
use crate::pipeline::Reduction;
use lrm_compress::{ByteReader, DecodeError, DecodeResult, Shape};
use lrm_datasets::Field;
use lrm_linalg::svd::{rank_for_energy, svd_truncated};
use lrm_linalg::{Matrix, Pca};
use lrm_wavelet::WaveletModel;

pub(crate) fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn put_f64s(out: &mut Vec<u8>, vals: &[f64]) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends `bytes` behind a `u32` length prefix.
fn put_stream(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Reads a whole-field `m, n` header and checks it against the length
/// of the delta the base is added to.
fn get_dims(r: &mut ByteReader<'_>, len: usize) -> DecodeResult<(usize, usize)> {
    let m = r.u32("reduced-model rows")? as usize;
    let n = r.u32("reduced-model columns")? as usize;
    if m.checked_mul(n) != Some(len) {
        return Err(DecodeError::Corrupt {
            what: "reduced-model extents do not match the delta",
        });
    }
    Ok((m, n))
}

/// Reads a rank `k` and checks it against its ceiling `max`.
fn get_k(r: &mut ByteReader<'_>, max: usize) -> DecodeResult<usize> {
    let k = r.u32("reduced-model rank")? as usize;
    if k > max {
        return Err(DecodeError::Corrupt {
            what: "reduced-model rank exceeds the matrix",
        });
    }
    Ok(k)
}

fn minus(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

pub(crate) fn plus(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// One matrix's fitted PCA or SVD representation.
pub(crate) struct Factors {
    /// `k`, the raw small factors, then the length-prefixed lossy
    /// stream: everything after the caller's header.
    pub body: Vec<u8>,
    /// The base rebuilt from the *decoded* stream, as the decoder will,
    /// row-major `m × n`.
    pub approx: Vec<f64>,
    /// Retained components.
    pub k: usize,
}

/// Fits PCA to `mat`, keeping `k` components by the `variance_fraction`
/// rule; the `m × k` scores go through `codec`.
pub(crate) fn fit_pca(mat: &Matrix, variance_fraction: f64, codec: &LossyCodec) -> Factors {
    let (m, n) = (mat.rows(), mat.cols());
    let pca = Pca::fit(mat);
    let k = pca.components_for_variance(variance_fraction).max(1).min(n);
    let shape = Shape::d2(k, m); // row-major m rows of k scores
    let stream = codec.compress(pca.transform(mat, k).as_slice(), shape);
    let basis = pca.components.take_cols(k);
    let mut body = Vec::new();
    put_u32(&mut body, k);
    put_f64s(&mut body, &pca.means);
    put_f64s(&mut body, basis.as_slice());
    put_stream(&mut body, &stream);
    let scores = Matrix::from_vec(m, k, codec.decompress_own(&stream, shape));
    Factors {
        body,
        approx: pca_base(&scores, &basis, &pca.means),
        k,
    }
}

/// Decodes the [`fit_pca`] body at `r` into the `m × n` base.
pub(crate) fn rebuild_pca(
    r: &mut ByteReader<'_>,
    m: usize,
    n: usize,
    codec: &LossyCodec,
) -> DecodeResult<Vec<f64>> {
    let k = get_k(r, n)?;
    let means = r.f64s(n, "pca means")?;
    let basis = Matrix::from_vec(n, k, r.f64s(n.saturating_mul(k), "pca basis")?);
    let len = r.u32("pca score stream")? as usize;
    let stream = r.take(len, "pca score stream")?;
    let scores = Matrix::from_vec(m, k, codec.decompress(stream, Shape::d2(k, m))?);
    Ok(pca_base(&scores, &basis, &means))
}

/// `scores · basisᵀ` plus the column means.
fn pca_base(scores: &Matrix, basis: &Matrix, means: &[f64]) -> Vec<f64> {
    let mut approx = scores.matmul(&basis.transpose()).into_vec();
    for row in approx.chunks_exact_mut(means.len().max(1)) {
        for (v, mean) in row.iter_mut().zip(means) {
            *v += mean;
        }
    }
    approx
}

/// Fits a truncated SVD to `mat`, keeping the top-k singular triplets by
/// the `energy_fraction` singular-value-sum rule, and forming only those
/// `k` columns of `U` and `V`; `U_k` goes through `codec`.
pub(crate) fn fit_svd(mat: &Matrix, energy_fraction: f64, codec: &LossyCodec) -> Factors {
    let m = mat.rows();
    let dec = svd_truncated(mat, |sigma| rank_for_energy(sigma, energy_fraction).max(1));
    let k = dec.u.cols();
    let sigma = &dec.sigma[..k];
    let shape = Shape::d2(k, m);
    let stream = codec.compress(dec.u.as_slice(), shape);
    let mut body = Vec::new();
    put_u32(&mut body, k);
    put_f64s(&mut body, sigma);
    put_f64s(&mut body, dec.v.as_slice());
    put_stream(&mut body, &stream);
    Factors {
        body,
        approx: svd_base(codec.decompress_own(&stream, shape), m, sigma, &dec.v),
        k,
    }
}

/// Decodes the [`fit_svd`] body at `r` into the `m × n` base.
pub(crate) fn rebuild_svd(
    r: &mut ByteReader<'_>,
    m: usize,
    n: usize,
    codec: &LossyCodec,
) -> DecodeResult<Vec<f64>> {
    let k = get_k(r, m.min(n))?;
    let sigma = r.f64s(k, "svd sigma")?;
    let vk = Matrix::from_vec(n, k, r.f64s(n.saturating_mul(k), "svd v")?);
    let len = r.u32("svd u stream")? as usize;
    let stream = r.take(len, "svd u stream")?;
    let u = codec.decompress(stream, Shape::d2(k, m))?;
    Ok(svd_base(u, m, &sigma, &vk))
}

/// `U diag(σ) Vᵀ` for the row-major `m × k` `u`.
fn svd_base(mut u: Vec<f64>, m: usize, sigma: &[f64], v: &Matrix) -> Vec<f64> {
    for row in u.chunks_exact_mut(sigma.len().max(1)) {
        for (x, s) in row.iter_mut().zip(sigma) {
            *x *= s;
        }
    }
    Matrix::from_vec(m, sigma.len(), u)
        .matmul(&v.transpose())
        .into_vec()
}

/// Writes the whole-field layout — `m, n`, then the body — and the delta.
fn whole_field(field: &Field, fit: Factors) -> Reduction {
    let (m, n) = field.matrix_dims();
    let mut rep = Vec::with_capacity(8 + fit.body.len());
    put_u32(&mut rep, m);
    put_u32(&mut rep, n);
    rep.extend_from_slice(&fit.body);
    Reduction {
        rep_bytes: rep,
        delta: minus(&field.data, &fit.approx),
        rep_shape: Shape::d1(0),
        k: fit.k,
    }
}

fn field_matrix(field: &Field) -> Matrix {
    let (m, n) = field.matrix_dims();
    Matrix::from_vec(m, n, field.data.clone())
}

/// PCA preconditioning of `field` with the paper's `variance_fraction`
/// rule (0.95) and the `orig_codec` bound on the score matrix.
pub fn pca_precondition(
    field: &Field,
    variance_fraction: f64,
    orig_codec: &LossyCodec,
) -> Reduction {
    let fit = fit_pca(&field_matrix(field), variance_fraction, orig_codec);
    whole_field(field, fit)
}

/// Rebuilds the PCA base reconstruction from `rep_bytes` and adds `delta`.
pub fn pca_reconstruct(
    rep_bytes: &[u8],
    delta: &[f64],
    orig_codec: &LossyCodec,
) -> DecodeResult<Vec<f64>> {
    let mut r = ByteReader::new(rep_bytes);
    let (m, n) = get_dims(&mut r, delta.len())?;
    let base = rebuild_pca(&mut r, m, n, orig_codec)?;
    Ok(plus(&base, delta))
}

/// SVD preconditioning: keep the top-k singular triplets by the 95 %
/// singular-value-sum rule; `U_k` is lossy-compressed.
pub fn svd_precondition(field: &Field, energy_fraction: f64, orig_codec: &LossyCodec) -> Reduction {
    let fit = fit_svd(&field_matrix(field), energy_fraction, orig_codec);
    whole_field(field, fit)
}

/// Inverse of [`svd_precondition`]'s representation, plus delta.
pub fn svd_reconstruct(
    rep_bytes: &[u8],
    delta: &[f64],
    orig_codec: &LossyCodec,
) -> DecodeResult<Vec<f64>> {
    let mut r = ByteReader::new(rep_bytes);
    let (m, n) = get_dims(&mut r, delta.len())?;
    let base = rebuild_svd(&mut r, m, n, orig_codec)?;
    Ok(plus(&base, delta))
}

/// Wavelet preconditioning with threshold θ = `theta_fraction` × max
/// coefficient (paper: 0.05). The sparse representation is lossless.
pub fn wavelet_precondition(field: &Field, theta_fraction: f64) -> Reduction {
    let (m, n) = field.matrix_dims();
    let model = WaveletModel::fit(&field.data, m, n, theta_fraction);
    let mut rep = Vec::new();
    put_u32(&mut rep, m);
    put_u32(&mut rep, n);
    put_stream(&mut rep, &model.coeffs.to_bytes());
    Reduction {
        rep_bytes: rep,
        delta: minus(&field.data, &model.reconstruct()),
        rep_shape: Shape::d1(0),
        k: 0,
    }
}

/// Inverse of [`wavelet_precondition`]'s representation, plus delta.
pub fn wavelet_reconstruct(rep_bytes: &[u8], delta: &[f64]) -> DecodeResult<Vec<f64>> {
    let mut r = ByteReader::new(rep_bytes);
    let (m, n) = get_dims(&mut r, delta.len())?;
    let len = r.u32("wavelet sparse block")? as usize;
    let sparse_bytes = r.take(len, "wavelet sparse block")?;
    let coeffs =
        lrm_wavelet::SparseMatrix::from_bytes(sparse_bytes).ok_or(DecodeError::Corrupt {
            what: "wavelet sparse block",
        })?;
    // The encoder pads each extent to a power of two (at least 1); the
    // inverse transform asserts on any other grid.
    let (pr, pc) = coeffs.shape();
    if !pr.is_power_of_two() || !pc.is_power_of_two() {
        return Err(DecodeError::Corrupt {
            what: "wavelet coefficient grid is not a power of two",
        });
    }
    // The padded coefficient grid must cover the stored extents, or
    // cropping the inverse transform would assert.
    if m > pr || n > pc {
        return Err(DecodeError::Corrupt {
            what: "wavelet extents exceed coefficient grid",
        });
    }
    // A valid grid pads each extent to the next power of two, so its area
    // is under 4x the field; anything larger is corrupt (and would make
    // the inverse transform allocate absurdly).
    if pr.saturating_mul(pc) > delta.len().saturating_mul(4).max(64) {
        return Err(DecodeError::Corrupt {
            what: "wavelet coefficient grid too large",
        });
    }
    let model = WaveletModel {
        coeffs,
        rows: m,
        cols: n,
    };
    Ok(plus(&model.reconstruct(), delta))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column_correlated_field() -> Field {
        // Rows are scaled copies of one profile: a rank-1-ish matrix where
        // PCA/SVD shine.
        let (m, n) = (40, 24);
        let shape = Shape::d2(n, m);
        let mut data = Vec::with_capacity(m * n);
        for r in 0..m {
            let scale = 1.0 + 0.5 * (r as f64 * 0.1).sin();
            for c in 0..n {
                data.push(scale * (c as f64 * 0.3).cos() * 10.0 + 0.01 * ((r * c) as f64).sin());
            }
        }
        Field::new("corr", data, shape)
    }

    #[test]
    fn pca_roundtrip_exact_with_raw_delta() {
        let f = column_correlated_field();
        let codec = LossyCodec::SzRel(1e-6);
        let out = pca_precondition(&f, 0.95, &codec);
        let rec = pca_reconstruct(&out.rep_bytes, &out.delta, &codec).expect("decode");
        for (a, b) in f.data.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn pca_selects_few_components_for_correlated_data() {
        let f = column_correlated_field();
        let out = pca_precondition(&f, 0.95, &LossyCodec::SzRel(1e-6));
        assert!(out.k <= 3, "k = {}", out.k);
    }

    #[test]
    fn pca_delta_magnitude_is_small_for_correlated_data() {
        let f = column_correlated_field();
        let out = pca_precondition(&f, 0.95, &LossyCodec::SzRel(1e-6));
        let max_delta = out.delta.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let max_orig = f.data.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max_delta < 0.2 * max_orig, "{max_delta} vs {max_orig}");
    }

    #[test]
    fn svd_roundtrip() {
        let f = column_correlated_field();
        let codec = LossyCodec::ZfpPrecision(40);
        let out = svd_precondition(&f, 0.95, &codec);
        let rec = svd_reconstruct(&out.rep_bytes, &out.delta, &codec).expect("decode");
        for (a, b) in f.data.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn svd_k_is_small_for_low_rank_data() {
        let f = column_correlated_field();
        let out = svd_precondition(&f, 0.95, &LossyCodec::SzRel(1e-6));
        assert!(out.k <= 3, "k = {}", out.k);
    }

    #[test]
    fn wavelet_roundtrip() {
        let f = column_correlated_field();
        let out = wavelet_precondition(&f, 0.05);
        let rec = wavelet_reconstruct(&out.rep_bytes, &out.delta).expect("decode");
        for (a, b) in f.data.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn wavelet_zero_threshold_gives_zero_delta() {
        let f = column_correlated_field();
        let out = wavelet_precondition(&f, 0.0);
        let max_delta = out.delta.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max_delta < 1e-10, "max delta {max_delta}");
    }

    #[test]
    fn rep_sizes_reflect_paper_ordering() {
        // Fig. 9: wavelet representations are much bigger than PCA/SVD
        // when the data are column-correlated but oscillatory — rank-1 for
        // PCA/SVD, yet full of above-threshold detail coefficients for the
        // Haar transform.
        let (m, n) = (64, 32);
        let shape = Shape::d2(n, m);
        let mut data = Vec::with_capacity(m * n);
        for r in 0..m {
            let scale = 1.0 + 0.5 * (r as f64 * 0.9).sin();
            for c in 0..n {
                data.push(scale * (c as f64 * 2.7).cos() * 10.0);
            }
        }
        let f = Field::new("osc", data, shape);
        let codec = LossyCodec::SzRel(1e-5);
        let p = pca_precondition(&f, 0.95, &codec);
        let s = svd_precondition(&f, 0.95, &codec);
        let w = wavelet_precondition(&f, 0.05);
        assert!(
            p.k <= 2 && s.k <= 2,
            "rank-1-ish data: k = {}, {}",
            p.k,
            s.k
        );
        assert!(w.rep_bytes.len() > p.rep_bytes.len());
        assert!(w.rep_bytes.len() > s.rep_bytes.len());
    }

    #[test]
    fn works_on_1d_fields() {
        let shape = Shape::d1(64);
        let data: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin()).collect();
        let f = Field::new("wave1d", data, shape);
        let codec = LossyCodec::SzRel(1e-6);
        // m = 1 row; PCA degenerates but must not crash.
        let out = pca_precondition(&f, 0.95, &codec);
        let rec = pca_reconstruct(&out.rep_bytes, &out.delta, &codec).expect("decode");
        for (a, b) in f.data.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
