//! Dense linear algebra for the dimension-reduction preconditioners.
//!
//! The paper's PCA and SVD reduced models (Section V) need:
//!
//! * a dense [`Matrix`] whose products run on the caller's thread (no
//!   call in this crate starts a thread),
//! * a symmetric eigensolver ([`eigen::symmetric_eigen`], cyclic Jacobi
//!   with a tolerance relative to `‖a‖_F`, so PCA does not depend on the
//!   data's units) for PCA's covariance matrices,
//! * a singular value decomposition ([`svd::svd`], Householder QR, then
//!   one-sided Jacobi on R) for the SVD preconditioner. Columns of R at
//!   or below `ε·‖A‖_F` are dropped from the sweeps and reported as
//!   `σ = 0`, and [`svd::svd_truncated`] forms only the `k` columns of
//!   `U` and `V` that the caller's rank rule keeps,
//! * [`pca::Pca`] tying them together with the 95 %-variance component
//!   rule the paper uses to select `k`.

pub mod eigen;
pub mod matrix;
pub mod pca;
pub mod svd;

pub use eigen::{symmetric_eigen, EigenDecomposition};
pub use matrix::Matrix;
pub use pca::Pca;
pub use svd::{svd, Svd};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pca_and_svd_agree_on_dominant_subspace() {
        // For centered data, PCA eigenvalues = (singular values)^2 / (m-1).
        let m = 40;
        let data = Matrix::from_fn(m, 5, |r, c| {
            ((r as f64) * 0.21).sin() * (c as f64 + 1.0) + 0.05 * ((r * c) as f64).cos()
        });
        let pca = Pca::fit(&data);
        let centered = Matrix::from_fn(m, 5, |r, c| data.get(r, c) - pca.means[c]);
        let s = svd(&centered);
        for i in 0..5 {
            let from_svd = s.sigma[i] * s.sigma[i] / (m as f64 - 1.0);
            assert!(
                (pca.variances[i] - from_svd).abs() < 1e-9 * (1.0 + from_svd),
                "component {i}: {} vs {}",
                pca.variances[i],
                from_svd
            );
        }
    }
}
