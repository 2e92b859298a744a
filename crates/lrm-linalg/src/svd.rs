//! Singular value decomposition: Householder QR, then one-sided Jacobi
//! on `R`.
//!
//! The SVD preconditioner (Section V-A2 of the paper) retains the `k`
//! largest singular values together with the matching `k` columns of `U`
//! and rows of `Vᵀ`. Our reshaped fields are tall and skinny (rows =
//! ny·nz, cols = nx), so [`svd`] works in three steps on column-major
//! copies, where every column is contiguous:
//!
//! 1. a Householder QR `A = Q·R` (a wide matrix is transposed first),
//!    `O(m·n²)` once;
//! 2. one-sided Jacobi on the n×n `R`, rotating its columns into
//!    `U_R·diag(σ)` and accumulating `V`, `O(n³)` per sweep;
//! 3. `U = Q·[U_R; 0]` by applying the stored reflectors, `O(m·n²)` once.
//!
//! `RᵀR = AᵀA`, so the sweeps see the column products that Jacobi on `A`
//! itself would see, at `O(n³)` instead of `O(m·n²)` per sweep.

use crate::matrix::Matrix;

/// `A = U · diag(σ) · Vᵀ` with `σ` descending, `U` (m×r) and `V` (n×r)
/// column-orthonormal, `r = min(m, n)`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (m × r).
    pub u: Matrix,
    /// Singular values, descending (length r).
    pub sigma: Vec<f64>,
    /// Right singular vectors (n × r); `Vᵀ` rows pair with `σ`.
    pub v: Matrix,
}

impl Svd {
    /// Reconstructs the (possibly truncated) product `U Σ Vᵀ` using the
    /// top `k` singular triplets.
    pub fn reconstruct(&self, k: usize) -> Matrix {
        let k = k.min(self.sigma.len());
        let m = self.u.rows();
        let n = self.v.rows();
        let mut out = Matrix::zeros(m, n);
        for t in 0..k {
            let s = self.sigma[t];
            if s == 0.0 {
                continue;
            }
            for r in 0..m {
                let us = self.u.get(r, t) * s;
                if us == 0.0 {
                    continue;
                }
                for c in 0..n {
                    out.set(r, c, out.get(r, c) + us * self.v.get(c, t));
                }
            }
        }
        out
    }

    /// Smallest `k` with `Σ_{i<k} σᵢ / Σ σᵢ >= fraction` (the paper's 95 %
    /// rule, applied to singular values). Returns at least 1 when any
    /// singular value is nonzero.
    pub fn rank_for_energy(&self, fraction: f64) -> usize {
        let total: f64 = self.sigma.iter().sum();
        if total <= 0.0 {
            return 0;
        }
        let mut acc = 0.0;
        for (i, &s) in self.sigma.iter().enumerate() {
            acc += s;
            if acc / total >= fraction {
                return i + 1;
            }
        }
        self.sigma.len()
    }

    /// Proportions `σᵢ / Σ σⱼ` (the series Fig. 8 plots).
    pub fn proportions(&self) -> Vec<f64> {
        let total: f64 = self.sigma.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.sigma.len()];
        }
        self.sigma.iter().map(|&s| s / total).collect()
    }
}

/// Computes the thin SVD of `a`: Householder QR, then one-sided Jacobi
/// on `R`.
pub fn svd(a: &Matrix) -> Svd {
    if a.rows() < a.cols() {
        // Work on the transpose and swap the factors back.
        let t = svd(&a.transpose());
        return Svd {
            u: t.v,
            sigma: t.sigma,
            v: t.u,
        };
    }
    let (m, n) = (a.rows(), a.cols());
    // Column-major copy of A: column j is `qr[j * m..(j + 1) * m]`.
    let mut qr = a.transpose().into_vec();
    let taus = householder_qr(&mut qr, m, n);

    // R, column-major; Jacobi rotates it into `U_R · diag(σ)`.
    let mut w = vec![0.0; n * n];
    for j in 0..n {
        w[j * n..=j * n + j].copy_from_slice(&qr[j * m..=j * m + j]);
    }
    let mut v = Matrix::identity(n).into_vec();
    orthogonalize_columns(&mut w, &mut v, n);

    // Column norms are the singular values.
    let mut triplets: Vec<(f64, usize)> = (0..n)
        .map(|c| {
            let norm2: f64 = w[c * n..(c + 1) * n].iter().map(|x| x * x).sum();
            (norm2.sqrt(), c)
        })
        .collect();
    triplets.sort_by(|a, b| b.0.total_cmp(&a.0));

    // U = Q · [U_R; 0], column by column; a zero σ leaves its column zero.
    let mut u = vec![0.0; n * m];
    for (t, &(s, c)) in triplets.iter().enumerate() {
        if s > 0.0 {
            let u_col = &mut u[t * m..(t + 1) * m];
            for (x, &y) in u_col.iter_mut().zip(&w[c * n..(c + 1) * n]) {
                *x = y / s;
            }
            for (j, &tau) in taus.iter().enumerate().rev() {
                if tau != 0.0 {
                    reflect(&qr[j * m + j + 1..(j + 1) * m], tau, &mut u_col[j..]);
                }
            }
        }
    }
    let sigma: Vec<f64> = triplets.iter().map(|&(s, _)| s).collect();
    let u = Matrix::from_vec(n, m, u).transpose();
    let vv = Matrix::from_fn(n, n, |r, c| v[triplets[c].1 * n + r]);
    Svd { u, sigma, v: vv }
}

/// Householder QR of the `m`×`n` column-major `a` (`m >= n`), in place.
/// On return the upper triangle holds `R`, and the entries below the
/// diagonal of column `j` hold the tail of reflector `j`'s vector
/// `v_j = [1; tail]`. Returns the `τ_j` of `H_j = I − τ_j·v_j·v_jᵀ`, with
/// `Q = H_0·H_1⋯H_{n−1}`; `τ_j = 0` marks a column that was already zero
/// below the diagonal.
fn householder_qr(a: &mut [f64], m: usize, n: usize) -> Vec<f64> {
    let mut taus = vec![0.0; n];
    for (j, tau) in taus.iter_mut().enumerate() {
        let (done, rest) = a.split_at_mut((j + 1) * m);
        let x = &mut done[j * m + j..];
        let tail2: f64 = x[1..].iter().map(|t| t * t).sum();
        if tail2 == 0.0 {
            continue;
        }
        let alpha = x[0];
        let beta = -alpha.signum() * (alpha * alpha + tail2).sqrt();
        let pivot = alpha - beta;
        for t in &mut x[1..] {
            *t /= pivot;
        }
        x[0] = beta;
        *tau = (beta - alpha) / beta;
        for col in rest.chunks_exact_mut(m) {
            reflect(&x[1..], *tau, &mut col[j..]);
        }
    }
    taus
}

/// `y ← (I − τ·v·vᵀ)·y` with `v = [1; tail]`.
fn reflect(tail: &[f64], tau: f64, y: &mut [f64]) {
    let Some((y0, ys)) = y.split_first_mut() else {
        return;
    };
    let dot = *y0 + tail.iter().zip(ys.iter()).map(|(v, y)| v * y).sum::<f64>();
    let scaled = tau * dot;
    *y0 -= scaled;
    for (y, &v) in ys.iter_mut().zip(tail) {
        *y -= scaled * v;
    }
}

/// One-sided Jacobi: rotates pairs of columns of the n×n column-major
/// `w` until every pair is orthogonal to working precision, applying the
/// same rotations to the columns of the n×n column-major `v`.
fn orthogonalize_columns(w: &mut [f64], v: &mut [f64], n: usize) {
    let eps = 1e-15;
    let max_sweeps = 60;
    for _ in 0..max_sweeps {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let (wp, wq) = column_pair(w, n, p, q);
                let mut alpha = 0.0;
                let mut beta = 0.0;
                let mut gamma = 0.0;
                for (&xp, &xq) in wp.iter().zip(wq.iter()) {
                    alpha += xp * xp;
                    beta += xq * xq;
                    gamma += xp * xq;
                }
                if gamma.abs() <= eps * (alpha * beta).sqrt() || gamma == 0.0 {
                    continue;
                }
                rotated = true;
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate(wp, wq, c, s);
                let (vp, vq) = column_pair(v, n, p, q);
                rotate(vp, vq, c, s);
            }
        }
        if !rotated {
            break;
        }
    }
}

/// Mutable borrows of columns `p < q` of a column-major buffer whose
/// columns hold `len` values each.
fn column_pair(data: &mut [f64], len: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let (left, right) = data.split_at_mut(q * len);
    (&mut left[p * len..(p + 1) * len], &mut right[..len])
}

/// Applies the plane rotation `[c -s; s c]` to the column pair `(xp, xq)`.
fn rotate(xp: &mut [f64], xq: &mut [f64], c: f64, s: f64) {
    for (a, b) in xp.iter_mut().zip(xq.iter_mut()) {
        let (x, y) = (*a, *b);
        *a = c * x - s * y;
        *b = s * x + c * y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert!(
            a.sub(b).fro_norm() <= tol * a.fro_norm().max(1.0),
            "matrices differ: {} vs tol {tol}",
            a.sub(b).fro_norm()
        );
    }

    #[test]
    fn full_reconstruction_is_exact() {
        let a = Matrix::from_fn(10, 4, |r, c| ((r * 3 + c * 5) as f64 * 0.17).sin());
        let d = svd(&a);
        assert_close(&a, &d.reconstruct(4), 1e-10);
    }

    #[test]
    fn wide_matrix_via_transpose() {
        let a = Matrix::from_fn(3, 8, |r, c| (r as f64 + 1.0) * (c as f64 - 3.0));
        let d = svd(&a);
        assert_eq!(d.u.rows(), 3);
        assert_eq!(d.v.rows(), 8);
        assert_close(&a, &d.reconstruct(3), 1e-10);
    }

    #[test]
    fn singular_values_descend_and_match_known_case() {
        // diag(3, 2) embedded in a 4x2: singular values 3, 2.
        let mut a = Matrix::zeros(4, 2);
        a.set(0, 0, 3.0);
        a.set(1, 1, 2.0);
        let d = svd(&a);
        assert!((d.sigma[0] - 3.0).abs() < 1e-12);
        assert!((d.sigma[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rank1_matrix_has_one_singular_value() {
        let a = Matrix::from_fn(6, 5, |r, c| (r as f64 + 1.0) * (c as f64 + 1.0));
        let d = svd(&a);
        assert!(d.sigma[0] > 1.0);
        for &s in &d.sigma[1..] {
            assert!(s < 1e-10 * d.sigma[0], "sigma {s}");
        }
        // Rank-1 truncation reconstructs exactly.
        assert_close(&a, &d.reconstruct(1), 1e-10);
    }

    #[test]
    fn u_and_v_are_column_orthonormal() {
        let a = Matrix::from_fn(9, 5, |r, c| ((r * r + 2 * c) as f64).sqrt());
        let d = svd(&a);
        let utu = d.u.transpose().matmul(&d.u);
        let vtv = d.v.transpose().matmul(&d.v);
        assert_close(&utu, &Matrix::identity(5), 1e-9);
        assert_close(&vtv, &Matrix::identity(5), 1e-9);
    }

    #[test]
    fn truncation_error_decreases_with_k() {
        let a = Matrix::from_fn(20, 10, |r, c| {
            ((r as f64) * 0.3).sin() * ((c as f64) * 0.2).cos()
                + 0.1 * ((r * c) as f64 * 0.05).sin()
        });
        let d = svd(&a);
        let mut last = f64::INFINITY;
        for k in 1..=10 {
            let e = a.sub(&d.reconstruct(k)).fro_norm();
            assert!(e <= last + 1e-12, "k={k}");
            last = e;
        }
        assert!(last < 1e-10);
    }

    #[test]
    fn energy_rule_selects_dominant_rank() {
        // One dominant direction (99% energy) -> k = 1 at 95%.
        let mut a = Matrix::zeros(8, 3);
        a.set(0, 0, 100.0);
        a.set(1, 1, 1.0);
        a.set(2, 2, 0.5);
        let d = svd(&a);
        assert_eq!(d.rank_for_energy(0.95), 1);
        assert_eq!(d.rank_for_energy(0.999), 3);
    }

    #[test]
    fn proportions_sum_to_one() {
        let a = Matrix::from_fn(12, 6, |r, c| ((r + 2 * c) as f64 * 0.21).cos());
        let d = svd(&a);
        let p = d.proportions();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for w in p.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn zero_matrix_is_handled() {
        let a = Matrix::zeros(5, 3);
        let d = svd(&a);
        assert!(d.sigma.iter().all(|&s| s == 0.0));
        assert_eq!(d.rank_for_energy(0.95), 0);
        assert_close(&a, &d.reconstruct(3), 1e-15);
    }
}
