//! Haar discrete wavelet transform with threshold sparsification.
//!
//! This is the paper's third dimension-reduction technique (Section
//! V-A3): transform the field with the 2-D Haar wavelet, zero every
//! coefficient below a threshold θ (5 % of the maximum coefficient in the
//! paper's runs), and keep the resulting sparse matrix as the reduced
//! representation. Reconstruction inverts the transform on the sparse
//! coefficients; the delta against the original field is compressed
//! separately by the pipeline in `lrm-core`.

// Index-symmetric loops read more clearly than iterator chains in
// numerical kernels; silence the pedantic lint crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod haar;
pub mod sparse;

pub use haar::{crop, fwd_1d, fwd_2d, inv_1d, inv_2d, next_pow2, pad_pow2};
pub use sparse::SparseMatrix;

/// A complete wavelet reduced model of a 2-D field: thresholded transform
/// coefficients plus the original extents (for unpadding).
#[derive(Debug, Clone)]
pub struct WaveletModel {
    /// Sparse transform coefficients over the padded grid.
    pub coeffs: SparseMatrix,
    /// Original (pre-padding) extents.
    pub rows: usize,
    /// Original (pre-padding) columns.
    pub cols: usize,
}

impl WaveletModel {
    /// Transforms `data` (row-major `rows × cols`) and keeps coefficients
    /// with magnitude at least `theta_fraction` of the maximum coefficient
    /// (the paper uses `0.05`).
    pub fn fit(data: &[f64], rows: usize, cols: usize, theta_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&theta_fraction),
            "wavelet: theta fraction must be in [0, 1]"
        );
        let (mut padded, pr, pc) = pad_pow2(data, rows, cols);
        fwd_2d(&mut padded, pr, pc);
        let maxc = padded.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let theta = theta_fraction * maxc;
        let coeffs = SparseMatrix::from_dense(&padded, pr, pc, theta);
        Self { coeffs, rows, cols }
    }

    /// Reconstructs the (approximate) field from the sparse coefficients.
    pub fn reconstruct(&self) -> Vec<f64> {
        let (pr, pc) = self.coeffs.shape();
        let mut dense = self.coeffs.to_dense();
        inv_2d(&mut dense, pr, pc);
        crop(&dense, pr, pc, self.rows, self.cols)
    }

    /// Serialized size in bytes of the reduced representation (Fig. 9's
    /// metric for the wavelet model).
    pub fn representation_bytes(&self) -> usize {
        self.coeffs.to_bytes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(rows: usize, cols: usize) -> Vec<f64> {
        (0..rows * cols)
            .map(|i| {
                let r = (i / cols) as f64;
                let c = (i % cols) as f64;
                (r * 0.1).sin() * (c * 0.07).cos() * 10.0
            })
            .collect()
    }

    #[test]
    fn zero_threshold_reconstructs_exactly() {
        let data = smooth(16, 16);
        let m = WaveletModel::fit(&data, 16, 16, 0.0);
        let rec = m.reconstruct();
        for (a, b) in data.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn five_percent_threshold_is_close_and_sparse() {
        let data = smooth(32, 32);
        let m = WaveletModel::fit(&data, 32, 32, 0.05);
        assert!(m.coeffs.density() < 0.3, "density {}", m.coeffs.density());
        let rec = m.reconstruct();
        let rmse = (data
            .iter()
            .zip(&rec)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / data.len() as f64)
            .sqrt();
        let range = 20.0;
        assert!(rmse < 0.1 * range, "rmse {rmse}");
    }

    #[test]
    fn bigger_threshold_means_smaller_representation() {
        let data = smooth(32, 32);
        let small = WaveletModel::fit(&data, 32, 32, 0.01);
        let big = WaveletModel::fit(&data, 32, 32, 0.2);
        assert!(big.representation_bytes() <= small.representation_bytes());
    }

    #[test]
    fn non_pow2_extents_are_padded_and_cropped() {
        let data = smooth(13, 21);
        let m = WaveletModel::fit(&data, 13, 21, 0.0);
        let rec = m.reconstruct();
        assert_eq!(rec.len(), 13 * 21);
        for (a, b) in data.iter().zip(&rec) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn constant_field_needs_one_coefficient() {
        let data = vec![4.2; 64 * 64];
        let m = WaveletModel::fit(&data, 64, 64, 0.05);
        assert_eq!(m.coeffs.nnz(), 1);
        let rec = m.reconstruct();
        for v in rec {
            assert!((v - 4.2).abs() < 1e-10);
        }
    }
}
