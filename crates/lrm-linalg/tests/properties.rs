//! Property-based tests of the linear-algebra invariants the
//! preconditioners rely on.

use lrm_linalg::{svd, symmetric_eigen, Matrix, Pca};
use lrm_rng::Rng64;

/// Random matrix with dimensions in `[2, max_m) × [2, max_n)` and
/// entries uniform in `[-100, 100)`.
fn random_matrix(rng: &mut Rng64, max_m: usize, max_n: usize) -> Matrix {
    let m = 2 + rng.range_usize(max_m - 2);
    let n = 2 + rng.range_usize(max_n - 2);
    let data = rng.vec_f64(-100.0, 100.0, m * n);
    Matrix::from_vec(m, n, data)
}

/// Tall matrix with `n` in `[2, 24]`, `m/n` in `[10, 50]` and
/// `m <= 1000` — the shapes reshaped 3-D fields produce — and entries
/// uniform in `[-100, 100)`.
fn tall_matrix(rng: &mut Rng64) -> Matrix {
    let n = 2 + rng.range_usize(23);
    let m = (n * (10 + rng.range_usize(41))).min(1000);
    let data = rng.vec_f64(-100.0, 100.0, m * n);
    Matrix::from_vec(m, n, data)
}

const CASES: u64 = 24;

#[test]
fn transpose_reverses_matmul() {
    // (A·B)ᵀ = Bᵀ·Aᵀ
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let a = random_matrix(&mut rng, 8, 8);
        let b_cols = 2 + rng.range_usize(4);
        let b = Matrix::from_fn(a.cols(), b_cols, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0);
        let ab_t = a.matmul(&b).transpose();
        let bt_at = b.transpose().matmul(&a.transpose());
        assert!(ab_t.sub(&bt_at).fro_norm() < 1e-9 * (1.0 + ab_t.fro_norm()));
    }
}

#[test]
fn matmul_is_associative() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let a = random_matrix(&mut rng, 6, 5);
        let b = Matrix::from_fn(a.cols(), 4, |r, c| (r + 2 * c) as f64 * 0.5 - 2.0);
        let c = Matrix::from_fn(4, 3, |r, c| (r * c) as f64 * 0.25 + 1.0);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!(left.sub(&right).fro_norm() < 1e-8 * (1.0 + left.fro_norm()));
    }
}

#[test]
fn eigen_reconstructs_any_symmetric_matrix() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let a = random_matrix(&mut rng, 7, 7);
        // Symmetrize.
        let n = a.rows().min(a.cols());
        let s = Matrix::from_fn(n, n, |r, c| 0.5 * (a.get(r, c) + a.get(c, r)));
        let e = symmetric_eigen(&s);
        let d = Matrix::from_fn(n, n, |r, c| if r == c { e.values[r] } else { 0.0 });
        let rec = e.vectors.matmul(&d).matmul(&e.vectors.transpose());
        assert!(s.sub(&rec).fro_norm() < 1e-7 * (1.0 + s.fro_norm()));
    }
}

#[test]
fn svd_singular_values_bound_the_spectral_content() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        for a in [random_matrix(&mut rng, 10, 6), tall_matrix(&mut rng)] {
            let d = svd(&a);
            // ‖A‖_F² = Σ σᵢ².
            let fro2: f64 = a.fro_norm().powi(2);
            let sig2: f64 = d.sigma.iter().map(|s| s * s).sum();
            assert!((fro2 - sig2).abs() < 1e-7 * (1.0 + fro2));
            // The largest singular value dominates every entry: σ₁ >= max |a_ij|.
            let max_entry = a.as_slice().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            assert!(d.sigma[0] + 1e-9 >= max_entry);
        }
    }
}

#[test]
fn pca_reconstruction_error_is_tail_variance() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let a = random_matrix(&mut rng, 12, 5);
        // Full-rank PCA reconstruction is exact.
        let pca = Pca::fit(&a);
        let k = a.cols();
        let rec = pca.inverse_transform(&pca.transform(&a, k));
        assert!(a.sub(&rec).fro_norm() < 1e-7 * (1.0 + a.fro_norm()));
    }
}

#[test]
fn svd_truncation_error_matches_discarded_sigma() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        for a in [random_matrix(&mut rng, 9, 5), tall_matrix(&mut rng)] {
            let d = svd(&a);
            for k in 1..d.sigma.len() {
                let rec = d.reconstruct(k);
                let err2 = a.sub(&rec).fro_norm().powi(2);
                let tail2: f64 = d.sigma[k..].iter().map(|s| s * s).sum();
                assert!((err2 - tail2).abs() < 1e-6 * (1.0 + tail2));
            }
        }
    }
}

#[test]
fn svd_of_tall_full_and_rank_deficient_matrices_keeps_its_contract() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let full = tall_matrix(&mut rng);
        let (m, n) = (full.rows(), full.cols());
        let j = rng.range_usize(n - 1);
        let duplicated = Matrix::from_fn(m, n, |r, c| full.get(r, if c == n - 1 { j } else { c }));
        let zero_col = Matrix::from_fn(m, n, |r, c| if c == j { 0.0 } else { full.get(r, c) });
        for (name, a) in [
            ("full rank", full),
            ("duplicated column", duplicated),
            ("zero column", zero_col),
            ("all zero", Matrix::zeros(m, n)),
        ] {
            let d = svd(&a);
            let what = format!("seed {seed}, {m}x{n} {name}");
            let rec = d.reconstruct(n);
            assert!(
                a.sub(&rec).fro_norm() <= 1e-12 * a.fro_norm(),
                "{what}: reconstruction"
            );

            let live = d.sigma.iter().filter(|&&s| s > 0.0).count();
            let u_live = d.u.take_cols(live);
            let utu = u_live.transpose().matmul(&u_live);
            assert!(
                utu.sub(&Matrix::identity(live)).fro_norm() < 1e-12,
                "{what}: UᵀU"
            );
            let vtv = d.v.transpose().matmul(&d.v);
            assert!(
                vtv.sub(&Matrix::identity(n)).fro_norm() < 1e-12,
                "{what}: VᵀV"
            );
            for (c, _) in d.sigma.iter().enumerate().filter(|&(_, &s)| s == 0.0) {
                assert!(d.u.col(c).iter().all(|&x| x == 0.0), "{what}: U col {c}");
            }

            let eig = symmetric_eigen(&a.transpose().matmul(&a));
            for (s, lambda) in d.sigma.iter().zip(&eig.values) {
                if *s >= 1e-2 * d.sigma[0] {
                    assert!(
                        (s * s - lambda).abs() <= 1e-9 * lambda,
                        "{what}: σ² {} vs λ {lambda}",
                        s * s
                    );
                }
            }
        }
    }
}
