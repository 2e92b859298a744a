//! Sparse (thresholded) coefficient storage.
//!
//! After the Haar transform, entries with `|c| < θ` are zeroed (the paper
//! sets θ to 5 % of the maximum coefficient); the surviving entries form
//! the wavelet *reduced representation*. They are serialized as
//! delta-varint positions plus raw values, which is the storage cost
//! Fig. 9 compares against PCA's and SVD's factors.

use lrm_compress::lossless::encode_uvarint;
use lrm_compress::ByteReader;

/// A sparse view of a row-major matrix: sorted linear positions plus
/// values.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    positions: Vec<u64>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds a sparse matrix from the entries of `dense` whose magnitude
    /// is at least `threshold`.
    pub fn from_dense(dense: &[f64], rows: usize, cols: usize, threshold: f64) -> Self {
        assert_eq!(dense.len(), rows * cols, "sparse: buffer mismatch");
        let mut positions = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in dense.iter().enumerate() {
            if v.abs() >= threshold && v != 0.0 {
                positions.push(i as u64);
                values.push(v);
            }
        }
        Self {
            rows,
            cols,
            positions,
            values,
        }
    }

    /// Number of stored (nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Matrix extents.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Fraction of entries stored.
    pub fn density(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// Expands back to a dense row-major buffer (zeros elsewhere).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.rows * self.cols];
        for (&p, &v) in self.positions.iter().zip(&self.values) {
            out[p as usize] = v;
        }
        out
    }

    /// Serializes to bytes: header, delta-varint positions, raw `f64`
    /// values. This is the byte size used for the Fig. 9 comparison.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.nnz() * 10);
        out.extend_from_slice(&(self.rows as u32).to_le_bytes());
        out.extend_from_slice(&(self.cols as u32).to_le_bytes());
        out.extend_from_slice(&(self.nnz() as u64).to_le_bytes());
        let mut prev = 0u64;
        for &p in &self.positions {
            encode_uvarint(p - prev, &mut out);
            prev = p;
        }
        for &v in &self.values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Inverse of [`SparseMatrix::to_bytes`]. Returns `None` on corrupt
    /// input, including a position that overflows or falls outside the
    /// grid (an empty grid holds no position).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(bytes);
        let rows = r.u32("sparse rows").ok()? as usize;
        let cols = r.u32("sparse cols").ok()? as usize;
        let nnz = r.u64("sparse entry count").ok()? as usize;
        // Every entry costs at least 9 bytes (1 varint byte + 8 value
        // bytes); reject impossible counts before allocating for them.
        if nnz > bytes.len() {
            return None;
        }
        let mut positions = Vec::with_capacity(nnz);
        let mut prev = 0u64;
        for _ in 0..nnz {
            prev = prev.checked_add(r.varint("sparse position").ok()?)?;
            if prev >= (rows * cols) as u64 {
                return None;
            }
            positions.push(prev);
        }
        let values = r.f64s(nnz, "sparse values").ok()?;
        Some(Self {
            rows,
            cols,
            positions,
            values,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dense_thresholds() {
        let dense = vec![0.0, 0.5, -2.0, 0.01, 3.0, -0.3];
        let s = SparseMatrix::from_dense(&dense, 2, 3, 0.4);
        assert_eq!(s.nnz(), 3); // 0.5, -2.0, 3.0
        let back = s.to_dense();
        assert_eq!(back, vec![0.0, 0.5, -2.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn bytes_roundtrip() {
        let dense: Vec<f64> = (0..100)
            .map(|i| if i % 7 == 0 { i as f64 } else { 0.0 })
            .collect();
        let s = SparseMatrix::from_dense(&dense, 10, 10, 0.5);
        let b = s.to_bytes();
        let s2 = SparseMatrix::from_bytes(&b).expect("roundtrip");
        assert_eq!(s, s2);
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let s = SparseMatrix::from_dense(&[], 0, 0, 1.0);
        let s2 = SparseMatrix::from_bytes(&s.to_bytes()).expect("roundtrip");
        assert_eq!(s.nnz(), 0);
        assert_eq!(s, s2);
    }

    #[test]
    fn density_and_shape() {
        let dense = vec![1.0, 0.0, 0.0, 0.0];
        let s = SparseMatrix::from_dense(&dense, 2, 2, 0.5);
        assert_eq!(s.shape(), (2, 2));
        assert!((s.density() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn sparse_storage_is_compact() {
        let mut dense = vec![0.0; 10_000];
        dense[37] = 1.0;
        dense[9_999] = -2.0;
        let s = SparseMatrix::from_dense(&dense, 100, 100, 0.5);
        assert!(s.to_bytes().len() < 48);
    }

    #[test]
    fn corrupt_bytes_return_none() {
        assert!(SparseMatrix::from_bytes(&[1, 2, 3]).is_none());
        let dense = vec![5.0; 4];
        let mut b = SparseMatrix::from_dense(&dense, 2, 2, 0.0).to_bytes();
        b.truncate(b.len() - 4); // chop a value
        assert!(SparseMatrix::from_bytes(&b).is_none());
        // rows, cols, nnz, the varint position deltas, one f64 per entry.
        let craft = |rows: u32, cols: u32, varints: &[u8], nnz: u64| {
            let mut b = Vec::new();
            b.extend_from_slice(&rows.to_le_bytes());
            b.extend_from_slice(&cols.to_le_bytes());
            b.extend_from_slice(&nnz.to_le_bytes());
            b.extend_from_slice(varints);
            b.resize(b.len() + 8 * nnz as usize, 0);
            b
        };
        // Position 0 of an empty grid.
        assert!(SparseMatrix::from_bytes(&craft(0, 1, &[0], 1)).is_none());
        // Deltas 1 and u64::MAX: the running position wraps to 0.
        let wrap = [
            1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
        ];
        assert!(SparseMatrix::from_bytes(&craft(4, 8, &wrap, 2)).is_none());
    }

    #[test]
    fn exact_zero_entries_are_dropped_even_at_zero_threshold() {
        let dense = vec![0.0, 1.0];
        let s = SparseMatrix::from_dense(&dense, 1, 2, 0.0);
        assert_eq!(s.nnz(), 1);
    }
}
