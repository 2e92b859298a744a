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

use crate::codec::LossyCodec;
use lrm_compress::{DecodeError, DecodeResult, Shape};
use lrm_datasets::Field;
use lrm_linalg::{svd, Matrix, Pca};
use lrm_wavelet::WaveletModel;

/// Output of a dimension-reduction preconditioner.
pub struct DimRedOutput {
    /// Serialized reduced representation (self-contained).
    pub rep_bytes: Vec<u8>,
    /// Delta of the original against the representation reconstruction.
    pub delta: Vec<f64>,
    /// Number of retained components (k), 0 for wavelet.
    pub k: usize,
}

fn field_matrix(field: &Field) -> (Matrix, usize, usize) {
    let (m, n) = field.matrix_dims();
    (Matrix::from_vec(m, n, field.data.clone()), m, n)
}

fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn get_u32(b: &[u8], pos: &mut usize) -> DecodeResult<usize> {
    let s = b
        .get(*pos..pos.saturating_add(4))
        .ok_or(DecodeError::Truncated {
            what: "reduced-model header field",
        })?;
    *pos += 4;
    Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]) as usize)
}

fn put_f64s(out: &mut Vec<u8>, vals: &[f64]) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn get_f64s(b: &[u8], pos: &mut usize, count: usize) -> DecodeResult<Vec<f64>> {
    let nbytes = count.checked_mul(8).ok_or(DecodeError::Corrupt {
        what: "reduced-model block size overflow",
    })?;
    let s = b
        .get(*pos..pos.saturating_add(nbytes))
        .ok_or(DecodeError::Truncated {
            what: "reduced-model f64 block",
        })?;
    *pos += nbytes;
    Ok(s.chunks_exact(8)
        .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect())
}

/// PCA preconditioning of `field` with the paper's `variance_fraction`
/// rule (0.95) and the `orig_codec` bound on the score matrix.
pub fn pca_precondition(
    field: &Field,
    variance_fraction: f64,
    orig_codec: &LossyCodec,
) -> DimRedOutput {
    let (mat, m, n) = field_matrix(field);
    let pca = Pca::fit(&mat);
    let k = pca.components_for_variance(variance_fraction).max(1).min(n);
    let scores = pca.transform(&mat, k);

    // Representation layout: m, n, k, means (n), basis (n*k),
    // compressed-scores length + bytes.
    let scores_shape = Shape::d2(k, m); // row-major m rows of k scores
    let scores_bytes = orig_codec.compress(scores.as_slice(), scores_shape);
    let mut rep = Vec::new();
    put_u32(&mut rep, m);
    put_u32(&mut rep, n);
    put_u32(&mut rep, k);
    put_f64s(&mut rep, &pca.means);
    let basis = pca.components.take_cols(k);
    put_f64s(&mut rep, basis.as_slice());
    put_u32(&mut rep, scores_bytes.len());
    rep.extend_from_slice(&scores_bytes);

    // Reconstruct from the *lossy* scores, as the decoder will.
    let scores_recon =
        Matrix::from_vec(m, k, orig_codec.decompress_own(&scores_bytes, scores_shape));
    let approx = pca_rebuild(&scores_recon, &basis, &pca.means);
    let delta: Vec<f64> = field
        .data
        .iter()
        .zip(approx.as_slice())
        .map(|(a, b)| a - b)
        .collect();
    DimRedOutput {
        rep_bytes: rep,
        delta,
        k,
    }
}

fn pca_rebuild(scores: &Matrix, basis: &Matrix, means: &[f64]) -> Matrix {
    let approx = scores.matmul(&basis.transpose());
    Matrix::from_fn(approx.rows(), approx.cols(), |r, c| {
        approx.get(r, c) + means[c]
    })
}

/// Rebuilds the PCA base reconstruction from `rep_bytes` and adds `delta`.
pub fn pca_reconstruct(
    rep_bytes: &[u8],
    delta: &[f64],
    orig_codec: &LossyCodec,
) -> DecodeResult<Vec<f64>> {
    let mut pos = 0usize;
    let m = get_u32(rep_bytes, &mut pos)?;
    let n = get_u32(rep_bytes, &mut pos)?;
    let k = get_u32(rep_bytes, &mut pos)?;
    let nk = n.checked_mul(k).ok_or(DecodeError::Corrupt {
        what: "pca basis size overflow",
    })?;
    let means = get_f64s(rep_bytes, &mut pos, n)?;
    let basis = Matrix::from_vec(n, k, get_f64s(rep_bytes, &mut pos, nk)?);
    let slen = get_u32(rep_bytes, &mut pos)?;
    let scores_shape = Shape::d2(k, m);
    let scores_bytes =
        rep_bytes
            .get(pos..pos.saturating_add(slen))
            .ok_or(DecodeError::Truncated {
                what: "pca score stream",
            })?;
    let scores = Matrix::from_vec(m, k, orig_codec.decompress(scores_bytes, scores_shape)?);
    let approx = pca_rebuild(&scores, &basis, &means);
    Ok(approx
        .as_slice()
        .iter()
        .zip(delta)
        .map(|(b, d)| b + d)
        .collect())
}

/// SVD preconditioning: keep the top-k singular triplets by the 95 %
/// singular-value-sum rule; `U_k` is lossy-compressed.
pub fn svd_precondition(
    field: &Field,
    energy_fraction: f64,
    orig_codec: &LossyCodec,
) -> DimRedOutput {
    let (mat, m, n) = field_matrix(field);
    let dec = svd(&mat);
    let k = dec.rank_for_energy(energy_fraction).max(1).min(n.min(m));

    let uk = dec.u.take_cols(k);
    let vk = dec.v.take_cols(k);
    let sigma = &dec.sigma[..k];

    let u_shape = Shape::d2(k, m);
    let u_bytes = orig_codec.compress(uk.as_slice(), u_shape);

    let mut rep = Vec::new();
    put_u32(&mut rep, m);
    put_u32(&mut rep, n);
    put_u32(&mut rep, k);
    put_f64s(&mut rep, sigma);
    put_f64s(&mut rep, vk.as_slice());
    put_u32(&mut rep, u_bytes.len());
    rep.extend_from_slice(&u_bytes);

    let u_recon = Matrix::from_vec(m, k, orig_codec.decompress_own(&u_bytes, u_shape));
    let approx = svd_rebuild(&u_recon, sigma, &vk);
    let delta: Vec<f64> = field
        .data
        .iter()
        .zip(approx.as_slice())
        .map(|(a, b)| a - b)
        .collect();
    DimRedOutput {
        rep_bytes: rep,
        delta,
        k,
    }
}

fn svd_rebuild(u: &Matrix, sigma: &[f64], v: &Matrix) -> Matrix {
    // U diag(σ) Vᵀ.
    let k = sigma.len();
    let us = Matrix::from_fn(u.rows(), k, |r, c| u.get(r, c) * sigma[c]);
    us.matmul(&v.transpose())
}

/// Inverse of [`svd_precondition`]'s representation, plus delta.
pub fn svd_reconstruct(
    rep_bytes: &[u8],
    delta: &[f64],
    orig_codec: &LossyCodec,
) -> DecodeResult<Vec<f64>> {
    let mut pos = 0usize;
    let m = get_u32(rep_bytes, &mut pos)?;
    let n = get_u32(rep_bytes, &mut pos)?;
    let k = get_u32(rep_bytes, &mut pos)?;
    let nk = n.checked_mul(k).ok_or(DecodeError::Corrupt {
        what: "svd basis size overflow",
    })?;
    let sigma = get_f64s(rep_bytes, &mut pos, k)?;
    let vk = Matrix::from_vec(n, k, get_f64s(rep_bytes, &mut pos, nk)?);
    let ulen = get_u32(rep_bytes, &mut pos)?;
    let u_bytes = rep_bytes
        .get(pos..pos.saturating_add(ulen))
        .ok_or(DecodeError::Truncated {
            what: "svd u stream",
        })?;
    let u = Matrix::from_vec(m, k, orig_codec.decompress(u_bytes, Shape::d2(k, m))?);
    let approx = svd_rebuild(&u, &sigma, &vk);
    Ok(approx
        .as_slice()
        .iter()
        .zip(delta)
        .map(|(b, d)| b + d)
        .collect())
}

/// Randomized-SVD preconditioning (extension): like
/// [`svd_precondition`] but the decomposition is the
/// Halko–Martinsson–Tropp sketch: `O(mn(k+p))` passes over the matrix
/// instead of the exact SVD's `O(mn²)` QR and `O(n³)`-per-sweep Jacobi.
/// The representation format is identical, so [`svd_reconstruct`]
/// decodes it.
pub fn svd_randomized_precondition(
    field: &Field,
    energy_fraction: f64,
    orig_codec: &LossyCodec,
) -> DimRedOutput {
    use lrm_linalg::{randomized_svd, RsvdConfig};
    let (mat, m, n) = field_matrix(field);
    // Probe enough of the spectrum to apply the 95% rule: the rule is
    // evaluated over the sketched leading singular values only, which
    // overestimates their share — acceptable for a fast path and noted
    // in the docs.
    let probe = RsvdConfig::rank(n.min(m).min(32));
    let dec = randomized_svd(&mat, &probe);
    let k = dec
        .rank_for_energy(energy_fraction)
        .max(1)
        .min(dec.sigma.len());

    let uk = dec.u.take_cols(k);
    let vk = dec.v.take_cols(k);
    let sigma = &dec.sigma[..k];

    let u_shape = Shape::d2(k, m);
    let u_bytes = orig_codec.compress(uk.as_slice(), u_shape);

    let mut rep = Vec::new();
    put_u32(&mut rep, m);
    put_u32(&mut rep, n);
    put_u32(&mut rep, k);
    put_f64s(&mut rep, sigma);
    put_f64s(&mut rep, vk.as_slice());
    put_u32(&mut rep, u_bytes.len());
    rep.extend_from_slice(&u_bytes);

    let u_recon = Matrix::from_vec(m, k, orig_codec.decompress_own(&u_bytes, u_shape));
    let approx = svd_rebuild(&u_recon, sigma, &vk);
    let delta: Vec<f64> = field
        .data
        .iter()
        .zip(approx.as_slice())
        .map(|(a, b)| a - b)
        .collect();
    DimRedOutput {
        rep_bytes: rep,
        delta,
        k,
    }
}

/// Wavelet preconditioning with threshold θ = `theta_fraction` × max
/// coefficient (paper: 0.05). The sparse representation is lossless.
pub fn wavelet_precondition(field: &Field, theta_fraction: f64) -> DimRedOutput {
    let (m, n) = field.matrix_dims();
    let model = WaveletModel::fit(&field.data, m, n, theta_fraction);
    let approx = model.reconstruct();
    let delta: Vec<f64> = field.data.iter().zip(&approx).map(|(a, b)| a - b).collect();
    let mut rep = Vec::new();
    put_u32(&mut rep, m);
    put_u32(&mut rep, n);
    let sb = model.coeffs.to_bytes();
    put_u32(&mut rep, sb.len());
    rep.extend_from_slice(&sb);
    DimRedOutput {
        rep_bytes: rep,
        delta,
        k: 0,
    }
}

/// Inverse of [`wavelet_precondition`]'s representation, plus delta.
pub fn wavelet_reconstruct(rep_bytes: &[u8], delta: &[f64]) -> DecodeResult<Vec<f64>> {
    let mut pos = 0usize;
    let m = get_u32(rep_bytes, &mut pos)?;
    let n = get_u32(rep_bytes, &mut pos)?;
    let slen = get_u32(rep_bytes, &mut pos)?;
    let sparse_bytes =
        rep_bytes
            .get(pos..pos.saturating_add(slen))
            .ok_or(DecodeError::Truncated {
                what: "wavelet sparse block",
            })?;
    let coeffs =
        lrm_wavelet::SparseMatrix::from_bytes(sparse_bytes).ok_or(DecodeError::Corrupt {
            what: "wavelet sparse block",
        })?;
    // The padded coefficient grid must cover the stored extents, or
    // cropping the inverse transform would assert.
    let (pr, pc) = coeffs.shape();
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
    let approx = model.reconstruct();
    Ok(approx.iter().zip(delta).map(|(b, d)| b + d).collect())
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
    fn randomized_svd_roundtrip_and_agreement() {
        let f = column_correlated_field();
        let codec = LossyCodec::SzRel(1e-6);
        let fast = svd_randomized_precondition(&f, 0.95, &codec);
        let rec = svd_reconstruct(&fast.rep_bytes, &fast.delta, &codec).expect("decode");
        for (a, b) in f.data.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // On low-rank data the sketch chooses the same k as exact SVD.
        let exact = svd_precondition(&f, 0.95, &codec);
        assert_eq!(fast.k, exact.k);
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
