//! Symmetric eigendecomposition by the cyclic Jacobi method: the
//! reference PCA is tested against.
//!
//! [`crate::pca::Pca::fit`] takes its eigenpairs from the SVD's one-sided
//! Jacobi kernel, so no pipeline path runs this solver. The property
//! tests compare PCA's variances, ranks and leading subspaces with it,
//! and the SVD's `σ²` with its eigenvalues of `AᵀA`. It applies Givens
//! rotations to annihilate off-diagonal entries until the off-diagonal
//! Frobenius norm is negligible; it is unconditionally stable for
//! symmetric input.

use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition: `a = V diag(λ) Vᵀ` with
/// eigenvalues sorted in descending order and eigenvectors as the columns
/// of `vectors` in matching order.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors (column i pairs with `values[i]`).
    pub vectors: Matrix,
}

/// Computes the eigendecomposition of a symmetric matrix.
///
/// Symmetry and convergence are judged relative to `‖a‖_F`, so scaling
/// `a` by any `c > 0` scales the eigenvalues by `c` and leaves the
/// rotations, and so the eigenvectors, the same up to round-off. The
/// zero matrix returns at once.
///
/// # Panics
/// Panics if `a` is not square or not (numerically) symmetric.
pub fn symmetric_eigen(a: &Matrix) -> EigenDecomposition {
    let n = a.rows();
    assert_eq!(n, a.cols(), "eigen: matrix must be square");
    let scale = a.fro_norm();
    for r in 0..n {
        for c in (r + 1)..n {
            assert!(
                (a.get(r, c) - a.get(c, r)).abs() <= 1e-8 * scale,
                "eigen: matrix must be symmetric"
            );
        }
    }

    // Row-major working copies of `a` and of the accumulated rotations,
    // walked as slices: per-element `get`/`set` costs twice as much in
    // builds with debug assertions. The rotations are kept transposed
    // (row i is eigenvector i), so each one updates two contiguous rows.
    let mut m = a.as_slice().to_vec();
    let mut vt = Matrix::identity(n).into_vec();
    let max_sweeps = 64;
    let tol = 1e-14 * scale;

    for _sweep in 0..max_sweeps {
        let mut off = 0.0f64;
        for (r, row) in m.chunks_exact(n.max(1)).enumerate() {
            for &x in &row[r + 1..] {
                off += x * x;
            }
        }
        if off.sqrt() <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                // Rotation angle: tan(2θ) = 2 a_pq / (a_pp - a_qq).
                let theta = 0.5 * (2.0 * apq).atan2(app - aqq);
                let (s, c) = theta.sin_cos();
                // Apply Jᵀ M J: columns p and q, then rows p and q; and
                // V J, which is rows p and q of Vᵀ.
                rotate_cols(&mut m, n, p, q, c, s);
                rotate_rows(&mut m, n, p, q, c, s);
                rotate_rows(&mut vt, n, p, q, c, s);
            }
        }
    }

    // Extract eigenpairs and sort by descending eigenvalue.
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[i * n + i], i)).collect();
    pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
    let values: Vec<f64> = pairs.iter().map(|&(l, _)| l).collect();
    let vectors = Matrix::from_fn(n, n, |r, c| vt[pairs[c].1 * n + r]);
    EigenDecomposition { values, vectors }
}

/// Rotates columns `p` and `q` of the row-major `a` with `n` columns.
fn rotate_cols(a: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    for row in a.chunks_exact_mut(n) {
        let (akp, akq) = (row[p], row[q]);
        row[p] = c * akp + s * akq;
        row[q] = -s * akp + c * akq;
    }
}

/// Rotates rows `p < q` of the row-major `a` with `n` columns.
fn rotate_rows(a: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    let (upper, lower) = a.split_at_mut(q * n);
    for (x, y) in upper[p * n..(p + 1) * n].iter_mut().zip(&mut lower[..n]) {
        let (apk, aqk) = (*x, *y);
        *x = c * apk + s * aqk;
        *y = -s * apk + c * aqk;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &EigenDecomposition) -> Matrix {
        let n = e.values.len();
        let d = Matrix::from_fn(n, n, |r, c| if r == c { e.values[r] } else { 0.0 });
        e.vectors.matmul(&d).matmul(&e.vectors.transpose())
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_sorted_entries() {
        let a = Matrix::from_fn(3, 3, |r, c| if r == c { [2.0, 5.0, 1.0][r] } else { 0.0 });
        let e = symmetric_eigen(&a);
        assert!((e.values[0] - 5.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let e = symmetric_eigen(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = Matrix::from_fn(8, 8, |r, c| {
            let x = (r as f64 - c as f64).abs();
            (-x / 3.0).exp() + if r == c { 2.0 } else { 0.0 }
        });
        let e = symmetric_eigen(&a);
        let r = reconstruct(&e);
        assert!(a.sub(&r).fro_norm() < 1e-9 * a.fro_norm());
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_fn(6, 6, |r, c| {
            ((r * c) as f64 * 0.3).sin() + ((c * r) as f64 * 0.3).sin()
        });
        let e = symmetric_eigen(&a);
        let vtv = e.vectors.transpose().matmul(&e.vectors);
        let i = Matrix::identity(6);
        assert!(vtv.sub(&i).fro_norm() < 1e-9);
    }

    #[test]
    fn eigenvalues_descend() {
        let a = Matrix::from_fn(10, 10, |r, c| 1.0 / (1.0 + (r as f64 - c as f64).abs()));
        let e = symmetric_eigen(&a);
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn trace_is_preserved() {
        let a = Matrix::from_fn(7, 7, |r, c| if r == c { r as f64 + 1.0 } else { 0.1 });
        let e = symmetric_eigen(&a);
        let trace: f64 = (0..7).map(|i| a.get(i, i)).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be symmetric")]
    fn rejects_asymmetric_input() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        symmetric_eigen(&a);
    }

    #[test]
    #[should_panic(expected = "must be square")]
    fn rejects_non_square() {
        symmetric_eigen(&Matrix::zeros(2, 3));
    }
}
