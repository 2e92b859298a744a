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
//!
//! Each block is fitted and encoded by [`crate::dimred`]'s PCA/SVD
//! codec; this module owns only the row blocking, the worker pool and
//! the framing around the blocks.

use crate::codec::LossyCodec;
use crate::dimred::{fit_pca, fit_svd, plus, put_u32, rebuild_pca, rebuild_svd, Factors};
use crate::pipeline::Reduction;
use lrm_compress::{ByteReader, DecodeError, DecodeResult, Shape};
use lrm_datasets::Field;
use lrm_linalg::Matrix;
use lrm_parallel::WorkerPool;

/// Row ranges of the `blocks` partitions of an `m`-row matrix.
fn row_blocks(m: usize, blocks: usize) -> Vec<(usize, usize)> {
    let b = blocks.clamp(1, m.max(1));
    (0..b).map(|i| (i * m / b, (i + 1) * m / b)).collect()
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
) -> Reduction {
    let (m, n) = field.matrix_dims();
    let ranges = row_blocks(m, blocks);

    let fits: Vec<Factors> = WorkerPool::auto().run(ranges.clone(), |_, (r0, r1)| {
        let rows = Matrix::from_vec(r1 - r0, n, field.data[r0 * n..r1 * n].to_vec());
        match method {
            PartitionedMethod::Pca => fit_pca(&rows, variance_fraction, codec),
            PartitionedMethod::Svd => fit_svd(&rows, variance_fraction, codec),
        }
    });

    // Representation: method tag, n, block count, then each block behind
    // a length prefix: its row count, then its body.
    let mut rep = Vec::new();
    rep.push(match method {
        PartitionedMethod::Pca => 0u8,
        PartitionedMethod::Svd => 1u8,
    });
    put_u32(&mut rep, n);
    put_u32(&mut rep, fits.len());
    for (fit, (r0, r1)) in fits.iter().zip(&ranges) {
        put_u32(&mut rep, 4 + fit.body.len());
        put_u32(&mut rep, r1 - r0);
        rep.extend_from_slice(&fit.body);
    }

    let approx = fits.iter().flat_map(|f| &f.approx);
    let delta: Vec<f64> = field.data.iter().zip(approx).map(|(a, b)| a - b).collect();
    let k_max = fits.iter().map(|f| f.k).max().unwrap_or(0);
    Reduction {
        rep_bytes: rep,
        delta,
        rep_shape: Shape::d1(0),
        k: k_max,
    }
}

/// Rebuilds the base reconstruction from a partitioned representation and
/// adds the delta. The blocks must tile the delta exactly.
pub fn partitioned_reconstruct(
    rep_bytes: &[u8],
    delta: &[f64],
    codec: &LossyCodec,
) -> DecodeResult<Vec<f64>> {
    let mut r = ByteReader::new(rep_bytes);
    let method = match r.u8("partitioned method tag")? {
        0 => PartitionedMethod::Pca,
        1 => PartitionedMethod::Svd,
        tag => {
            return Err(DecodeError::UnknownTag {
                what: "partitioned method",
                tag,
            })
        }
    };
    let n = r.u32("partitioned columns")? as usize;
    let nblocks = r.u32("partitioned block count")?;
    let mut approx = Vec::with_capacity(delta.len());
    for _ in 0..nblocks {
        let len = r.u32("partitioned block")? as usize;
        let mut block = ByteReader::new(r.take(len, "partitioned block")?);
        let mrows = block.u32("partitioned block rows")? as usize;
        let left = delta.len().saturating_sub(approx.len());
        if mrows.saturating_mul(n) > left {
            return Err(DecodeError::Corrupt {
                what: "partitioned blocks overrun the delta",
            });
        }
        approx.extend(match method {
            PartitionedMethod::Pca => rebuild_pca(&mut block, mrows, n, codec)?,
            PartitionedMethod::Svd => rebuild_svd(&mut block, mrows, n, codec)?,
        });
    }
    if approx.len() != delta.len() {
        return Err(DecodeError::Corrupt {
            what: "partitioned blocks do not cover the delta",
        });
    }
    Ok(plus(&approx, delta))
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
