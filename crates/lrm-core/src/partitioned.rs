//! Partitioned-matrix dimension reduction — the paper's future work #1.
//!
//! "The first [future direction] is to implement the proposed reduced
//! methods in partitioned matrix to further reduce the compression
//! overhead."
//!
//! The field's matrix view is cut into row blocks; PCA/SVD is fitted per
//! block, and the blocks are processed **in parallel on the workspace
//! worker pool**, so wall-clock shrinks by up to the core count. Total
//! work does not shrink: an m×n SVD costs `O(m·n²)` once for its QR plus
//! `O(n³)` per Jacobi sweep, and `B` row blocks split the first term but
//! each pays the second (as each pays PCA's `O(n³)` eigensolve).
//!
//! The quality trade-off (each block fits its own basis, so `k` per block
//! may exceed the global `k`) was measured by the since-removed
//! `ablation_partitioned` bench; its numbers in EXPERIMENTS.md predate
//! the SVD's QR step.

use crate::codec::LossyCodec;
use crate::dimred::DimRedOutput;
use lrm_compress::{DecodeError, DecodeResult, Shape};
use lrm_datasets::Field;
use lrm_linalg::{svd, Matrix, Pca};
use lrm_parallel::WorkerPool;

fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn get_u32(b: &[u8], pos: &mut usize) -> DecodeResult<usize> {
    let s = b
        .get(*pos..pos.saturating_add(4))
        .ok_or(DecodeError::Truncated {
            what: "partitioned header field",
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
        what: "partitioned block size overflow",
    })?;
    let s = b
        .get(*pos..pos.saturating_add(nbytes))
        .ok_or(DecodeError::Truncated {
            what: "partitioned f64 block",
        })?;
    *pos += nbytes;
    Ok(s.chunks_exact(8)
        .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect())
}

/// Row ranges of the `blocks` partitions of an `m`-row matrix.
fn row_blocks(m: usize, blocks: usize) -> Vec<(usize, usize)> {
    let b = blocks.clamp(1, m.max(1));
    (0..b).map(|i| (i * m / b, (i + 1) * m / b)).collect()
}

/// One fitted block: its reduced representation plus the base
/// reconstruction of its rows.
struct BlockFit {
    rep: Vec<u8>,
    approx: Vec<f64>, // row-major rows of this block
    k: usize,
}

/// Fits PCA on one row block and serializes its representation.
fn fit_pca_block(
    rows: &[f64],
    mrows: usize,
    n: usize,
    variance_fraction: f64,
    codec: &LossyCodec,
) -> BlockFit {
    let mat = Matrix::from_vec(mrows, n, rows.to_vec());
    let pca = Pca::fit(&mat);
    let k = pca.components_for_variance(variance_fraction).max(1).min(n);
    let scores = pca.transform(&mat, k);
    let scores_shape = Shape::d2(k, mrows);
    let scores_bytes = codec.compress(scores.as_slice(), scores_shape);

    let mut rep = Vec::new();
    put_u32(&mut rep, mrows);
    put_u32(&mut rep, k);
    put_f64s(&mut rep, &pca.means);
    let basis = pca.components.take_cols(k);
    put_f64s(&mut rep, basis.as_slice());
    put_u32(&mut rep, scores_bytes.len());
    rep.extend_from_slice(&scores_bytes);

    let scores_recon =
        Matrix::from_vec(mrows, k, codec.decompress_own(&scores_bytes, scores_shape));
    let approx = scores_recon.matmul(&basis.transpose());
    let approx: Vec<f64> = approx
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, v)| v + pca.means[i % n])
        .collect();
    BlockFit { rep, approx, k }
}

/// Fits truncated SVD on one row block and serializes its representation.
fn fit_svd_block(
    rows: &[f64],
    mrows: usize,
    n: usize,
    energy_fraction: f64,
    codec: &LossyCodec,
) -> BlockFit {
    let mat = Matrix::from_vec(mrows, n, rows.to_vec());
    let dec = svd(&mat);
    let k = dec
        .rank_for_energy(energy_fraction)
        .max(1)
        .min(n.min(mrows));
    let uk = dec.u.take_cols(k);
    let vk = dec.v.take_cols(k);
    let sigma = &dec.sigma[..k];

    let u_shape = Shape::d2(k, mrows);
    let u_bytes = codec.compress(uk.as_slice(), u_shape);

    let mut rep = Vec::new();
    put_u32(&mut rep, mrows);
    put_u32(&mut rep, k);
    put_f64s(&mut rep, sigma);
    put_f64s(&mut rep, vk.as_slice());
    put_u32(&mut rep, u_bytes.len());
    rep.extend_from_slice(&u_bytes);

    let u_recon = Matrix::from_vec(mrows, k, codec.decompress_own(&u_bytes, u_shape));
    let us = Matrix::from_fn(mrows, k, |r, c| u_recon.get(r, c) * sigma[c]);
    let approx = us.matmul(&vk.transpose());
    BlockFit {
        rep,
        approx: approx.into_vec(),
        k,
    }
}

/// Which decomposition a partitioned fit uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionedMethod {
    /// Blocked PCA.
    Pca,
    /// Blocked truncated SVD.
    Svd,
}

/// Partitioned preconditioning: splits the matrix view into `blocks` row
/// blocks, fits them in parallel, and concatenates the representations.
pub fn partitioned_precondition(
    field: &Field,
    method: PartitionedMethod,
    blocks: usize,
    variance_fraction: f64,
    codec: &LossyCodec,
) -> DimRedOutput {
    let (m, n) = field.matrix_dims();
    let ranges = row_blocks(m, blocks);

    let fits: Vec<BlockFit> = WorkerPool::auto().run(ranges.clone(), |_, (r0, r1)| {
        let rows = &field.data[r0 * n..r1 * n];
        match method {
            PartitionedMethod::Pca => fit_pca_block(rows, r1 - r0, n, variance_fraction, codec),
            PartitionedMethod::Svd => fit_svd_block(rows, r1 - r0, n, variance_fraction, codec),
        }
    });

    // Representation: method tag, n, block count, then length-prefixed
    // per-block representations.
    let mut rep = Vec::new();
    rep.push(match method {
        PartitionedMethod::Pca => 0u8,
        PartitionedMethod::Svd => 1u8,
    });
    put_u32(&mut rep, n);
    put_u32(&mut rep, fits.len());
    for f in &fits {
        put_u32(&mut rep, f.rep.len());
        rep.extend_from_slice(&f.rep);
    }

    let mut approx = Vec::with_capacity(field.len());
    for f in &fits {
        approx.extend_from_slice(&f.approx);
    }
    let delta: Vec<f64> = field.data.iter().zip(&approx).map(|(a, b)| a - b).collect();
    let k_max = fits.iter().map(|f| f.k).max().unwrap_or(0);
    DimRedOutput {
        rep_bytes: rep,
        delta,
        k: k_max,
    }
}

/// Rebuilds the base reconstruction from a partitioned representation and
/// adds the delta.
pub fn partitioned_reconstruct(
    rep_bytes: &[u8],
    delta: &[f64],
    codec: &LossyCodec,
) -> DecodeResult<Vec<f64>> {
    let method = *rep_bytes.first().ok_or(DecodeError::Truncated {
        what: "partitioned method tag",
    })?;
    if method > 1 {
        return Err(DecodeError::UnknownTag {
            what: "partitioned method",
            tag: method,
        });
    }
    let mut pos = 1usize;
    let n = get_u32(rep_bytes, &mut pos)?;
    let nblocks = get_u32(rep_bytes, &mut pos)?;
    let mut approx = Vec::with_capacity(delta.len());
    for _ in 0..nblocks {
        let blen = get_u32(rep_bytes, &mut pos)?;
        let block = rep_bytes
            .get(pos..pos.saturating_add(blen))
            .ok_or(DecodeError::Truncated {
                what: "partitioned block",
            })?;
        pos += blen;
        let mut bp = 0usize;
        let mrows = get_u32(block, &mut bp)?;
        let k = get_u32(block, &mut bp)?;
        let nk = n.checked_mul(k).ok_or(DecodeError::Corrupt {
            what: "partitioned basis size overflow",
        })?;
        if method == 0 {
            let means = get_f64s(block, &mut bp, n)?;
            let basis = Matrix::from_vec(n, k, get_f64s(block, &mut bp, nk)?);
            let slen = get_u32(block, &mut bp)?;
            let scores_bytes =
                block
                    .get(bp..bp.saturating_add(slen))
                    .ok_or(DecodeError::Truncated {
                        what: "partitioned score stream",
                    })?;
            let scores = Matrix::from_vec(
                mrows,
                k,
                codec.decompress(scores_bytes, Shape::d2(k, mrows))?,
            );
            let a = scores.matmul(&basis.transpose());
            approx.extend(
                a.as_slice()
                    .iter()
                    .enumerate()
                    .map(|(i, v)| v + means[i % n]),
            );
        } else {
            let sigma = get_f64s(block, &mut bp, k)?;
            let vk = Matrix::from_vec(n, k, get_f64s(block, &mut bp, nk)?);
            let ulen = get_u32(block, &mut bp)?;
            let u_bytes = block
                .get(bp..bp.saturating_add(ulen))
                .ok_or(DecodeError::Truncated {
                    what: "partitioned u stream",
                })?;
            let u = Matrix::from_vec(mrows, k, codec.decompress(u_bytes, Shape::d2(k, mrows))?);
            let us = Matrix::from_fn(mrows, k, |r, c| u.get(r, c) * sigma[c]);
            approx.extend_from_slice(us.matmul(&vk.transpose()).as_slice());
        }
    }
    Ok(approx.iter().zip(delta).map(|(b, d)| b + d).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_field() -> Field {
        let (m, n) = (64, 24);
        let shape = Shape::d2(n, m);
        let mut data = Vec::with_capacity(m * n);
        for r in 0..m {
            let s = 1.0 + 0.4 * (r as f64 * 0.15).sin();
            for c in 0..n {
                data.push(s * (c as f64 * 0.35).cos() * 8.0 + 0.02 * ((r * c) as f64).sin());
            }
        }
        Field::new("part", data, shape)
    }

    #[test]
    fn partitioned_pca_roundtrips() {
        let f = test_field();
        let codec = LossyCodec::SzRel(1e-6);
        for blocks in [1, 2, 4, 7] {
            let out = partitioned_precondition(&f, PartitionedMethod::Pca, blocks, 0.95, &codec);
            let rec = partitioned_reconstruct(&out.rep_bytes, &out.delta, &codec).expect("decode");
            for (a, b) in f.data.iter().zip(&rec) {
                assert!((a - b).abs() < 1e-9, "blocks {blocks}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn partitioned_svd_roundtrips() {
        let f = test_field();
        let codec = LossyCodec::ZfpPrecision(44);
        for blocks in [1, 3, 8] {
            let out = partitioned_precondition(&f, PartitionedMethod::Svd, blocks, 0.95, &codec);
            let rec = partitioned_reconstruct(&out.rep_bytes, &out.delta, &codec).expect("decode");
            for (a, b) in f.data.iter().zip(&rec) {
                assert!((a - b).abs() < 1e-8, "blocks {blocks}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn single_block_matches_monolithic_structure() {
        // blocks = 1 is the plain method modulo header framing.
        let f = test_field();
        let codec = LossyCodec::SzRel(1e-6);
        let part = partitioned_precondition(&f, PartitionedMethod::Pca, 1, 0.95, &codec);
        let mono = crate::dimred::pca_precondition(&f, 0.95, &codec);
        assert_eq!(part.k, mono.k);
        // Deltas describe the same residual structure.
        let e_part: f64 = part.delta.iter().map(|v| v * v).sum();
        let e_mono: f64 = mono.delta.iter().map(|v| v * v).sum();
        assert!((e_part - e_mono).abs() <= 1e-6 * (e_mono + 1e-12));
    }

    #[test]
    fn more_blocks_keep_delta_quality() {
        // Each block fits its own basis, so per-block residuals cannot be
        // much worse than the global fit on correlated data.
        let f = test_field();
        let codec = LossyCodec::SzRel(1e-6);
        let one = partitioned_precondition(&f, PartitionedMethod::Pca, 1, 0.95, &codec);
        let many = partitioned_precondition(&f, PartitionedMethod::Pca, 8, 0.95, &codec);
        let energy = |d: &[f64]| d.iter().map(|v| v * v).sum::<f64>();
        assert!(energy(&many.delta) <= 4.0 * energy(&one.delta) + 1e-9);
    }

    #[test]
    fn block_count_is_clamped() {
        let f = test_field();
        let codec = LossyCodec::SzRel(1e-5);
        // More blocks than rows must not panic.
        let out = partitioned_precondition(&f, PartitionedMethod::Pca, 10_000, 0.95, &codec);
        let rec = partitioned_reconstruct(&out.rep_bytes, &out.delta, &codec).expect("decode");
        assert_eq!(rec.len(), f.len());
    }
}
