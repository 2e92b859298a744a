//! Singular value decomposition: Householder QR, then one-sided Jacobi
//! on `R`, forming only the singular vectors the caller keeps.
//!
//! The SVD preconditioner (Section V-A2 of the paper) retains the `k`
//! largest singular values together with the matching `k` columns of `U`
//! and rows of `Vᵀ`. Our reshaped fields are tall and skinny (rows =
//! ny·nz, cols = nx), so [`svd_truncated`] works in three steps on
//! column-major copies, where every column is contiguous:
//!
//! 1. a Householder QR `A = Q·R` (a wide matrix is transposed first),
//!    `O(m·n²)` once, each reflector reaching four trailing columns per
//!    pass over its vector;
//! 2. one-sided Jacobi on the n×n `R`, rotating its columns into
//!    `U_R·diag(σ)` and accumulating `V`, `O(n³)` per sweep;
//! 3. `U = Q·[U_R; 0]` by applying the stored reflectors, `O(m·n)` per
//!    kept column.
//!
//! `RᵀR = AᵀA`, so the sweeps see the column products that Jacobi on `A`
//! itself would see, at `O(n³)` instead of `O(m·n²)` per sweep. The
//! Jacobi kernel caches each column's squared norm, so a pair of columns
//! costs one inner product, and it leads each row of a sweep with the
//! live column of largest norm (de Rijk's pivoting). PCA runs the same
//! kernel on its covariance ([`crate::pca`]).
//!
//! The QR and the rotations preserve `‖A‖_F`, which sets the rank floor:
//! a column of `R` whose squared norm falls to `(ε·‖A‖_F)²` or below
//! (`ε` = `f64::EPSILON`) is numerically zero. Its norm is recomputed
//! from the column before it is killed; once killed it is never rotated
//! again, so later sweeps skip it, and it is reported as `σ = 0` with a
//! zero `U` column. Pairs of live columns are rotated until they are
//! orthogonal to a relative `1e-15`, at most 60 sweeps. Every `σ` is
//! therefore either 0 or above `ε·‖A‖_F`.
//!
//! The caller's rank rule picks `k` from the complete `σ` before any
//! singular vector is formed, so step 3 costs `O(m·n·k)`, not
//! `O(m·n²)`. [`svd`] is the untruncated case, and its leading `k`
//! columns equal [`svd_truncated`]'s bit for bit.

use crate::matrix::Matrix;

/// `A ≈ U · diag(σ) · Vᵀ` with `σ` descending. `σ` holds all
/// `r = min(m, n)` singular values; `U` (m×k) and `V` (n×k) hold the
/// leading `k ≤ r` singular vectors (`k = r` from [`svd`]). `U` is
/// column-orthonormal over the columns whose `σ > 0`, and a column whose
/// `σ = 0` is zero in `U`. `V` is column-orthonormal when `m >= n`; for
/// a wide `A` its columns whose `σ = 0` are zero too.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (m × k).
    pub u: Matrix,
    /// Singular values, descending (length r).
    pub sigma: Vec<f64>,
    /// Right singular vectors (n × k); `Vᵀ` rows pair with `σ`.
    pub v: Matrix,
}

impl Svd {
    /// Reconstructs the (possibly truncated) product `U Σ Vᵀ` using the
    /// top `k` singular triplets, at most as many as `U` holds.
    pub fn reconstruct(&self, k: usize) -> Matrix {
        let k = k.min(self.u.cols());
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

    /// [`rank_for_energy`] of this decomposition's `σ`.
    pub fn rank_for_energy(&self, fraction: f64) -> usize {
        rank_for_energy(&self.sigma, fraction)
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

/// Smallest `k` with `Σ_{i<k} σᵢ / Σ σᵢ >= fraction` over the descending
/// `sigma` (the paper's 95 % rule, applied to singular values). Returns
/// at least 1 when any singular value is nonzero.
pub fn rank_for_energy(sigma: &[f64], fraction: f64) -> usize {
    let total: f64 = sigma.iter().sum();
    if total <= 0.0 {
        return 0;
    }
    let mut acc = 0.0;
    for (i, &s) in sigma.iter().enumerate() {
        acc += s;
        if acc / total >= fraction {
            return i + 1;
        }
    }
    sigma.len()
}

/// Computes the thin SVD of `a`: every singular triplet of
/// [`svd_truncated`].
pub fn svd(a: &Matrix) -> Svd {
    svd_truncated(a, <[f64]>::len)
}

/// Computes all `r = min(m, n)` singular values of `a`, then only the
/// leading `k = keep(&σ)` (at most `r`) columns of `U` and `V`.
pub fn svd_truncated(a: &Matrix, keep: impl FnOnce(&[f64]) -> usize) -> Svd {
    let tiny = f64::EPSILON * a.fro_norm();
    if a.rows() < a.cols() {
        // Decompose the transpose, whose column-major copy is `a`'s
        // row-major data, and swap the factors back.
        // The transpose's `V` is orthonormal even where `σ = 0`; as `U`,
        // such a column is zero, as on the tall path.
        let t = tall_svd(a.as_slice().to_vec(), a.cols(), a.rows(), tiny, keep);
        let u = Matrix::from_fn(t.v.rows(), t.v.cols(), |r, c| {
            if t.sigma[c] == 0.0 {
                0.0
            } else {
                t.v.get(r, c)
            }
        });
        return Svd {
            u,
            sigma: t.sigma,
            v: t.u,
        };
    }
    tall_svd(a.transpose().into_vec(), a.rows(), a.cols(), tiny, keep)
}

/// [`svd_truncated`] of the `m`×`n` column-major `qr` (`m >= n`), whose
/// columns of `R` count as zero at or below the norm `tiny`.
fn tall_svd(
    mut qr: Vec<f64>,
    m: usize,
    n: usize,
    tiny: f64,
    keep: impl FnOnce(&[f64]) -> usize,
) -> Svd {
    let taus = householder_qr(&mut qr, m, n);

    // R, column-major; Jacobi rotates it into `U_R · diag(σ)`.
    let mut w = vec![0.0; n * n];
    for j in 0..n {
        w[j * n..=j * n + j].copy_from_slice(&qr[j * m..=j * m + j]);
    }
    let mut v = Matrix::identity(n).into_vec();
    let live = orthogonalize_columns(&mut w, &mut v, n, tiny * tiny);

    // Column norms are the singular values; dead columns are zero.
    let mut triplets: Vec<(f64, usize)> = (0..n)
        .map(|c| {
            let norm2: f64 = w[c * n..(c + 1) * n].iter().map(|x| x * x).sum();
            let s = norm2.sqrt();
            (if live[c] && s > tiny { s } else { 0.0 }, c)
        })
        .collect();
    triplets.sort_by(|a, b| b.0.total_cmp(&a.0));
    let sigma: Vec<f64> = triplets.iter().map(|&(s, _)| s).collect();
    let kept = &triplets[..keep(&sigma).min(n)];
    let k = kept.len();

    // U = Q · [U_R; 0], column by column; a zero σ leaves its column zero.
    let mut u = vec![0.0; k * m];
    for (u_col, &(s, c)) in u.chunks_exact_mut(m.max(1)).zip(kept) {
        if s > 0.0 {
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
    let u = Matrix::from_vec(k, m, u).transpose();
    let vk = Matrix::from_fn(n, k, |r, t| v[kept[t].1 * n + r]);
    Svd { u, sigma, v: vk }
}

/// Householder QR of the `m`×`n` column-major `a` (`m >= n`), in place.
/// On return the upper triangle holds `R`, and the entries below the
/// diagonal of column `j` hold the tail of reflector `j`'s vector
/// `v_j = [1; tail]`. Returns the `τ_j` of `H_j = I − τ_j·v_j·v_jᵀ`, with
/// `Q = H_0·H_1⋯H_{n−1}`; `τ_j = 0` marks a column that was already zero
/// below the diagonal.
///
/// Each reflector reaches four trailing columns per pass over its
/// vector ([`reflect4`]), so the vector is read once per four columns and
/// four dot products run side by side. Every column keeps its own serial
/// dot product, so `R` and `τ` are those of one column at a time, bit for
/// bit.
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
        let tail = &x[1..];
        let mut quads = rest.chunks_exact_mut(4 * m);
        for quad in &mut quads {
            let (c0, rest) = quad.split_at_mut(m);
            let (c1, rest) = rest.split_at_mut(m);
            let (c2, c3) = rest.split_at_mut(m);
            reflect4(
                tail,
                *tau,
                [&mut c0[j..], &mut c1[j..], &mut c2[j..], &mut c3[j..]],
            );
        }
        for col in quads.into_remainder().chunks_exact_mut(m) {
            reflect(tail, *tau, &mut col[j..]);
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

/// [`reflect`] on four columns `ys` (each `tail.len() + 1` long) in one
/// pass over `tail`. Each column's dot product is its own serial sum in
/// [`reflect`]'s order, starting from `-0.0` as `Iterator::sum` does, so
/// every result equals [`reflect`]'s bit for bit.
fn reflect4(tail: &[f64], tau: f64, ys: [&mut [f64]; 4]) {
    let [a, b, c, d] = ys.map(|y| &mut y[..=tail.len()]);
    let mut dots = [-0.0; 4];
    for ((((&v, &ya), &yb), &yc), &yd) in tail
        .iter()
        .zip(&a[1..])
        .zip(&b[1..])
        .zip(&c[1..])
        .zip(&d[1..])
    {
        dots[0] += v * ya;
        dots[1] += v * yb;
        dots[2] += v * yc;
        dots[3] += v * yd;
    }
    let scaled = [
        tau * (a[0] + dots[0]),
        tau * (b[0] + dots[1]),
        tau * (c[0] + dots[2]),
        tau * (d[0] + dots[3]),
    ];
    a[0] -= scaled[0];
    b[0] -= scaled[1];
    c[0] -= scaled[2];
    d[0] -= scaled[3];
    for ((((&v, ya), yb), yc), yd) in tail
        .iter()
        .zip(&mut a[1..])
        .zip(&mut b[1..])
        .zip(&mut c[1..])
        .zip(&mut d[1..])
    {
        *ya -= scaled[0] * v;
        *yb -= scaled[1] * v;
        *yc -= scaled[2] * v;
        *yd -= scaled[3] * v;
    }
}

/// One-sided Jacobi: rotates pairs of columns of the n×n column-major
/// `w` until every pair of live columns is orthogonal to a relative
/// `1e-15`, applying the same rotations (and column swaps) to the n×n
/// column-major `v`, so `w₀·v = w` holds throughout. A column whose
/// squared norm is at or below `floor` dies: it is never rotated again.
/// Returns which columns are live. Both fits run it: the SVD on `R`,
/// PCA on its covariance.
///
/// Each column's squared norm is cached, so a pair costs one inner
/// product. A rotation by `t = tan θ` moves the pair's norms to
/// `α − t·γ` and `β + t·γ` exactly in real arithmetic; the cache is
/// recomputed from the column at the start of every sweep, whenever a
/// rotation shrinks a norm below a quarter of its old value, and before
/// a column at or below `floor` is killed, so rounding in the updates
/// can neither steer the sweeps nor kill a live column. Before row `p`,
/// the live column with the largest norm is swapped into position `p`
/// (de Rijk's pivoting), which speeds convergence.
pub(crate) fn orthogonalize_columns(
    w: &mut [f64],
    v: &mut [f64],
    n: usize,
    floor: f64,
) -> Vec<bool> {
    let eps = 1e-15;
    let max_sweeps = 60;
    let mut live = vec![true; n];
    let mut norms = vec![0.0; n];
    for _ in 0..max_sweeps {
        for (c, norm) in norms.iter_mut().enumerate() {
            let col = &w[c * n..(c + 1) * n];
            *norm = dot(col, col);
        }
        let mut rotated = false;
        for p in 0..n {
            let mut lead = p;
            for c in p..n {
                if live[c] && (!live[lead] || norms[c] > norms[lead]) {
                    lead = c;
                }
            }
            if !live[lead] {
                break;
            }
            if lead != p {
                swap_columns(w, n, p, lead);
                swap_columns(v, n, p, lead);
                norms.swap(p, lead);
                live.swap(p, lead);
            }
            for q in (p + 1)..n {
                if !live[q] {
                    continue;
                }
                let (wp, wq) = column_pair(w, n, p, q);
                if norms[p] <= floor {
                    norms[p] = dot(wp, wp);
                    if norms[p] <= floor {
                        live[p] = false;
                        break;
                    }
                }
                if norms[q] <= floor {
                    norms[q] = dot(wq, wq);
                    if norms[q] <= floor {
                        live[q] = false;
                        continue;
                    }
                }
                let (alpha, beta) = (norms[p], norms[q]);
                let gamma = dot(wp, wq);
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
                let (alpha2, beta2) = (alpha - t * gamma, beta + t * gamma);
                norms[p] = if alpha2 < 0.25 * alpha {
                    dot(wp, wp)
                } else {
                    alpha2
                };
                norms[q] = if beta2 < 0.25 * beta {
                    dot(wq, wq)
                } else {
                    beta2
                };
            }
        }
        if !rotated {
            break;
        }
    }
    live
}

/// `Σ xᵢ·yᵢ` in four interleaved partial sums.
fn dot(x: &[f64], y: &[f64]) -> f64 {
    let (xs, ys) = (x.chunks_exact(4), y.chunks_exact(4));
    let rest: f64 = xs
        .remainder()
        .iter()
        .zip(ys.remainder())
        .map(|(a, b)| a * b)
        .sum();
    let mut acc = [0.0; 4];
    for (a, b) in xs.zip(ys) {
        for i in 0..4 {
            acc[i] += a[i] * b[i];
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + rest
}

/// Swaps columns `p < q` of a column-major buffer whose columns hold
/// `len` values each.
fn swap_columns(data: &mut [f64], len: usize, p: usize, q: usize) {
    let (xp, xq) = column_pair(data, len, p, q);
    xp.swap_with_slice(xq);
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
    fn a_zero_singular_value_leaves_its_u_column_zero_on_a_wide_matrix() {
        // Rank 1, 3×6, so σ₂ = σ₃ = 0; and a matrix holding a NaN, whose
        // every σ reads as 0.
        let low = Matrix::from_fn(3, 6, |r, c| (r as f64 + 1.0) * (c as f64 - 2.5));
        let mut poisoned = low.clone();
        poisoned.set(1, 4, f64::NAN);
        for a in [low, poisoned] {
            let d = svd(&a);
            for (c, _) in d.sigma.iter().enumerate().filter(|&(_, &s)| s == 0.0) {
                assert!(d.u.col(c).iter().all(|&x| x == 0.0), "U col {c}: {:?}", d.u);
            }
        }
    }

    /// [`householder_qr`] as it was before it reached four columns per
    /// pass: every trailing column through [`reflect`], one at a time.
    fn householder_qr_by_columns(a: &mut [f64], m: usize, n: usize) -> Vec<f64> {
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

    #[test]
    fn four_column_qr_equals_the_one_column_loop_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in 0..16 {
            let mut rng = lrm_rng::Rng64::new(seed);
            // Every remainder of the trailing column count mod 4, and
            // columns as short as two values.
            let n = 1 + rng.range_usize(13);
            let m = n + rng.range_usize(40);
            let tall = rng.vec_f64(-10.0, 10.0, m * n);
            let j = rng.range_usize(n);
            let k = 1 + rng.range_usize(n);
            let left = rng.vec_f64(-1.0, 1.0, m * k);
            let right = rng.vec_f64(-1.0, 1.0, k * n);
            let low_rank: Vec<f64> = (0..n * m)
                .map(|i| {
                    (0..k)
                        .map(|t| left[t * m + i % m] * right[(i / m) * k + t])
                        .sum()
                })
                .collect();
            let mut zero_col = tall.clone();
            zero_col[j * m..(j + 1) * m].fill(0.0);
            // A positive first column gives reflector 0 a positive tail,
            // so every product with a −0.0 column is −0.0, and only a dot
            // product that starts from −0.0 keeps each sign of zero.
            let mut signed_zeros = vec![-0.0; m * n];
            for (x, &t) in signed_zeros.iter_mut().zip(&tall[..m]) {
                *x = 1.0 + t.abs();
            }
            // A wide matrix reaches the QR as its transpose: the `n`×`m`
            // row-major data read as `m`×`n` column-major.
            let wide = rng.vec_f64(-10.0, 10.0, m * n);
            for (name, a) in [
                ("tall", tall),
                ("wide", wide),
                ("low rank", low_rank),
                ("zero column", zero_col),
                ("signed zeros", signed_zeros),
                ("all zero", vec![0.0; m * n]),
            ] {
                let (mut four, mut one) = (a.clone(), a);
                let taus = householder_qr(&mut four, m, n);
                let taus_one = householder_qr_by_columns(&mut one, m, n);
                let what = format!("seed {seed}, {name} {m}x{n}");
                assert_eq!(bits(&taus), bits(&taus_one), "{what}: τ");
                assert_eq!(bits(&four), bits(&one), "{what}: R and reflectors");
            }
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
