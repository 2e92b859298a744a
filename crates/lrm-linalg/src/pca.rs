//! Principal component analysis for the PCA preconditioner.
//!
//! Following Section V-A1 of the paper: the eigenvectors and eigenvalues
//! of the column covariance matrix are computed, the `k` eigenvectors with
//! the largest eigenvalues are selected (the paper's rule: smallest `k`
//! whose cumulative variance proportion reaches 95 %), and the data are
//! projected onto them. The *reduced representation* is the score matrix
//! (m × k) plus the eigenvector matrix (n × k) plus the column means.
//!
//! The eigenpairs come from the SVD's one-sided Jacobi kernel
//! ([`mod@crate::svd`]) run on the covariance `C` itself: `C` is symmetric
//! positive semidefinite, so once the columns of `C·V` are orthogonal,
//! `C·V = V·diag(λ)`. The variances are those columns' norms and the
//! components are the accumulated rotations `V`. A column at or below
//! `n·ε·‖C‖_F`, the rounding level of `C` itself, is a zero variance.
//! [`crate::eigen::symmetric_eigen`] is the reference the tests compare
//! against.

use crate::matrix::Matrix;
use crate::svd::orthogonalize_columns;

/// A fitted PCA model: projection basis, per-component variances, and the
/// column means removed before projection.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Column means of the training data (length n).
    pub means: Vec<f64>,
    /// Eigenvectors as columns, sorted by descending eigenvalue (n × n).
    pub components: Matrix,
    /// Eigenvalues (variances along each component), descending.
    pub variances: Vec<f64>,
}

impl Pca {
    /// Fits a PCA on the rows of `data` (m observations × n variables).
    ///
    /// # Panics
    /// Panics when `data` has no rows or no columns, and when its
    /// covariance is not finite (the data hold a NaN or an infinity, or
    /// their products overflow).
    pub fn fit(data: &Matrix) -> Self {
        let (m, n) = (data.rows(), data.cols());
        assert!(m > 0 && n > 0, "pca: empty data");
        let means: Vec<f64> = (0..n)
            .map(|c| (0..m).map(|r| data.get(r, c)).sum::<f64>() / m as f64)
            .collect();
        // Covariance = Xcᵀ Xc / (m - 1)   (population form for m == 1).
        let denom = (m.max(2) - 1) as f64;
        let mut upper = vec![0.0; n * n];
        let mut centred = vec![0.0; n];
        for r in 0..m {
            for ((d, &x), &mu) in centred.iter_mut().zip(data.row(r)).zip(&means) {
                *d = x - mu;
            }
            for i in 0..n {
                let di = centred[i];
                if di == 0.0 {
                    continue;
                }
                let acc = &mut upper[i * n + i..(i + 1) * n];
                for (a, &dj) in acc.iter_mut().zip(&centred[i..]) {
                    *a += di * dj;
                }
            }
        }
        let mut cov = Matrix::from_vec(n, n, upper);
        for i in 0..n {
            for j in i..n {
                let v = cov.get(i, j) / denom;
                cov.set(i, j, v);
                cov.set(j, i, v);
            }
        }
        // Refuse what the kernel would carry silently: a NaN or an
        // infinity in C makes every rotated column non-finite.
        assert!(
            cov.as_slice().iter().all(|x| x.is_finite()),
            "pca: covariance is not finite (the data hold a NaN or an infinity, or overflow)"
        );
        // C's row-major data is its column-major copy.
        let tiny = n as f64 * f64::EPSILON * cov.fro_norm();
        let mut w = cov.into_vec();
        let mut v = Matrix::identity(n).into_vec();
        let live = orthogonalize_columns(&mut w, &mut v, n, tiny * tiny);
        let mut pairs: Vec<(f64, usize)> = w
            .chunks_exact(n)
            .zip(&live)
            .enumerate()
            .map(|(c, (col, &live))| {
                let lambda = col.iter().map(|x| x * x).sum::<f64>().sqrt();
                (if live && lambda > tiny { lambda } else { 0.0 }, c)
            })
            .collect();
        pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
        Self {
            means,
            components: Matrix::from_fn(n, n, |r, c| v[pairs[c].1 * n + r]),
            variances: pairs.iter().map(|&(l, _)| l).collect(),
        }
    }

    /// Projects `data` onto the first `k` components, returning the m × k
    /// score matrix.
    pub fn transform(&self, data: &Matrix, k: usize) -> Matrix {
        let k = k.min(self.components.cols());
        let basis = self.components.take_cols(k);
        let centered = Matrix::from_fn(data.rows(), data.cols(), |r, c| {
            data.get(r, c) - self.means[c]
        });
        centered.matmul(&basis)
    }

    /// Reconstructs data from `k`-component scores: `scores · basisᵀ + μ`.
    pub fn inverse_transform(&self, scores: &Matrix) -> Matrix {
        let k = scores.cols();
        let basis = self.components.take_cols(k);
        let approx = scores.matmul(&basis.transpose());
        Matrix::from_fn(approx.rows(), approx.cols(), |r, c| {
            approx.get(r, c) + self.means[c]
        })
    }

    /// Smallest `k` with cumulative variance proportion `>= fraction`
    /// (the paper uses 0.95). Returns 0 for zero-variance data.
    pub fn components_for_variance(&self, fraction: f64) -> usize {
        let total: f64 = self.variances.iter().sum();
        if total <= 0.0 {
            return 0;
        }
        let mut acc = 0.0;
        for (i, &v) in self.variances.iter().enumerate() {
            acc += v;
            if acc / total >= fraction {
                return i + 1;
            }
        }
        self.variances.len()
    }

    /// Variance proportions per component (the series Fig. 7 plots).
    pub fn proportions(&self) -> Vec<f64> {
        let total: f64 = self.variances.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.variances.len()];
        }
        self.variances.iter().map(|&v| v / total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_correlated(m: usize) -> Matrix {
        // Two strongly correlated columns plus small noise-like wiggle.
        Matrix::from_fn(m, 2, |r, c| {
            let t = r as f64 * 0.1;
            if c == 0 {
                t
            } else {
                2.0 * t + 0.01 * (r as f64 * 1.7).sin()
            }
        })
    }

    #[test]
    fn first_component_captures_correlated_variance() {
        let data = toy_correlated(200);
        let pca = Pca::fit(&data);
        let p = pca.proportions();
        assert!(p[0] > 0.999, "first PC proportion {p:?}");
        assert_eq!(pca.components_for_variance(0.95), 1);
    }

    #[test]
    fn full_rank_reconstruction_is_exact() {
        let data = Matrix::from_fn(50, 4, |r, c| ((r * (c + 1)) as f64 * 0.13).sin());
        let pca = Pca::fit(&data);
        let scores = pca.transform(&data, 4);
        let rec = pca.inverse_transform(&scores);
        assert!(data.sub(&rec).fro_norm() < 1e-9);
    }

    #[test]
    fn truncated_reconstruction_error_decreases_with_k() {
        let data = Matrix::from_fn(80, 6, |r, c| {
            ((r as f64) * 0.05).sin() * (c as f64 + 1.0) + 0.1 * ((r * c) as f64 * 0.3).cos()
        });
        let pca = Pca::fit(&data);
        let mut last = f64::INFINITY;
        for k in 1..=6 {
            let rec = pca.inverse_transform(&pca.transform(&data, k));
            let e = data.sub(&rec).fro_norm();
            assert!(e <= last + 1e-9, "k={k}: {e} vs {last}");
            last = e;
        }
    }

    #[test]
    fn means_are_column_means() {
        let data = Matrix::from_vec(2, 2, vec![1.0, 10.0, 3.0, 30.0]);
        let pca = Pca::fit(&data);
        assert_eq!(pca.means, vec![2.0, 20.0]);
    }

    #[test]
    fn constant_data_has_zero_variance() {
        let data = Matrix::from_fn(10, 3, |_, c| c as f64);
        let pca = Pca::fit(&data);
        assert!(pca.variances.iter().all(|&v| v < 1e-12));
        assert_eq!(pca.components_for_variance(0.95), 0);
        // Reconstruction still returns the constant rows via the means.
        let rec = pca.inverse_transform(&pca.transform(&data, 1));
        assert!(data.sub(&rec).fro_norm() < 1e-9);
    }

    #[test]
    fn variances_descend() {
        let data = Matrix::from_fn(60, 5, |r, c| {
            ((r + c * 7) as f64 * 0.23).sin() * (5 - c) as f64
        });
        let pca = Pca::fit(&data);
        for w in pca.variances.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn proportions_sum_to_one_for_nonzero_data() {
        let data = toy_correlated(64);
        let p = Pca::fit(&data).proportions();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fit_does_not_depend_on_units() {
        // Columns of distinct scale, so the components are well separated.
        let data = Matrix::from_fn(150, 8, |r, c| {
            let x = ((r * 7919 + c * 104_729) % 1009) as f64 / 1009.0 - 0.5;
            (c as f64 + 1.0).powi(2) * x + 0.3 * (r as f64 * 0.05).cos()
        });
        let base = Pca::fit(&data);
        let k = base.components_for_variance(0.95);
        for scale in [1e-9, 1e9] {
            let pca = Pca::fit(&data.scale(scale));
            assert_eq!(pca.components_for_variance(0.95), k, "scale {scale}");
            let diff = pca.components.sub(&base.components);
            let worst = diff.as_slice().iter().fold(0.0f64, |m, x| m.max(x.abs()));
            assert!(worst <= 1e-9, "scale {scale}: components differ by {worst}");
        }
    }

    #[test]
    #[should_panic(expected = "empty data")]
    fn rejects_empty() {
        Pca::fit(&Matrix::zeros(0, 3));
    }
}
