//! Property-based tests of the linear-algebra invariants the
//! preconditioners rely on.

use lrm_datasets::{generate, DatasetKind, SizeClass};
use lrm_linalg::svd::svd_truncated;
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

/// Tall, wide, rank-deficient and all-zero matrices: the shapes whose
/// SVD contracts the tests below pin.
fn svd_cases(rng: &mut Rng64) -> Vec<(&'static str, Matrix)> {
    let tall = tall_matrix(rng);
    let (m, n) = (tall.rows(), tall.cols());
    let wide = tall_matrix(rng).transpose();
    // Rank j < n: a product of m×j and j×n factors.
    let j = 1 + rng.range_usize(n - 1);
    let left = Matrix::from_vec(m, j, rng.vec_f64(-10.0, 10.0, m * j));
    let right = Matrix::from_vec(j, n, rng.vec_f64(-10.0, 10.0, j * n));
    let zero_col = Matrix::from_fn(m, n, |r, c| if c == j - 1 { 0.0 } else { tall.get(r, c) });
    vec![
        ("tall", tall),
        ("wide", wide),
        ("low rank", left.matmul(&right)),
        ("zero column", zero_col),
        ("all zero", Matrix::zeros(m, n)),
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn truncated_svd_is_the_leading_columns_of_the_full_svd_bit_for_bit() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        for (name, a) in svd_cases(&mut rng) {
            let full = svd(&a);
            let r = full.sigma.len();
            for keep in [0, 1, r / 2, r + 3] {
                let what = format!("seed {seed}, {name} {}x{}, keep {keep}", a.rows(), a.cols());
                let t = svd_truncated(&a, |sigma| {
                    assert_eq!(bits(sigma), bits(&full.sigma), "{what}: σ seen by keep");
                    keep
                });
                let k = keep.min(r);
                assert_eq!(bits(&t.sigma), bits(&full.sigma), "{what}: σ");
                assert_eq!((t.u.rows(), t.u.cols()), (a.rows(), k), "{what}: U shape");
                assert_eq!((t.v.rows(), t.v.cols()), (a.cols(), k), "{what}: V shape");
                let (u_k, v_k) = (full.u.take_cols(k), full.v.take_cols(k));
                assert_eq!(bits(t.u.as_slice()), bits(u_k.as_slice()), "{what}: U");
                assert_eq!(bits(t.v.as_slice()), bits(v_k.as_slice()), "{what}: V");
                // Every method stays total on the truncated result.
                assert_eq!(t.rank_for_energy(0.95), full.rank_for_energy(0.95));
                assert_eq!(bits(&t.proportions()), bits(&full.proportions()));
                if keep == r / 2 {
                    let (rec, rec_k) = (t.reconstruct(r), full.reconstruct(k));
                    assert_eq!(bits(rec.as_slice()), bits(rec_k.as_slice()), "{what}: UΣVᵀ");
                }
            }
        }
    }
}

#[test]
fn every_singular_value_is_zero_or_above_the_rank_floor() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        for (name, a) in svd_cases(&mut rng) {
            let d = svd(&a);
            let floor = f64::EPSILON * a.fro_norm();
            let what = format!("seed {seed}, {name} {}x{}", a.rows(), a.cols());
            for (c, &s) in d.sigma.iter().enumerate() {
                assert!(s == 0.0 || s > floor, "{what}: σ{c} = {s}, floor {floor}");
                if s == 0.0 {
                    assert!(d.u.col(c).iter().all(|&x| x == 0.0), "{what}: U col {c}");
                }
            }
            if name == "zero column" {
                assert_eq!(d.sigma.last(), Some(&0.0), "{what}: the zero column");
            }
        }
    }
}

/// `symmetric_eigen` as it accumulated the rotations before they were
/// stored transposed: as the columns of a row-major `V`, updated in
/// place. The operations and their order are the same.
fn symmetric_eigen_by_columns(a: &Matrix) -> (Vec<f64>, Matrix) {
    fn rotate_cols(a: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
        for row in a.chunks_exact_mut(n) {
            let (akp, akq) = (row[p], row[q]);
            row[p] = c * akp + s * akq;
            row[q] = -s * akp + c * akq;
        }
    }
    let n = a.rows();
    let tol = 1e-14 * a.fro_norm();
    let mut m = a.as_slice().to_vec();
    let mut v = Matrix::identity(n).into_vec();
    for _sweep in 0..64 {
        let mut off = 0.0f64;
        for (r, row) in m.chunks_exact(n).enumerate() {
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
                let (app, aqq) = (m[p * n + p], m[q * n + q]);
                let theta = 0.5 * (2.0 * apq).atan2(app - aqq);
                let (s, c) = theta.sin_cos();
                rotate_cols(&mut m, n, p, q, c, s);
                for k in 0..n {
                    let (mpk, mqk) = (m[p * n + k], m[q * n + k]);
                    m[p * n + k] = c * mpk + s * mqk;
                    m[q * n + k] = -s * mpk + c * mqk;
                }
                rotate_cols(&mut v, n, p, q, c, s);
            }
        }
    }
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[i * n + i], i)).collect();
    pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
    let values = pairs.iter().map(|&(l, _)| l).collect();
    (values, Matrix::from_fn(n, n, |r, c| v[r * n + pairs[c].1]))
}

#[test]
fn eigen_with_transposed_rotations_matches_column_accumulation_bit_for_bit() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let a = random_matrix(&mut rng, 40, 40);
        let n = a.rows().min(a.cols());
        let sym = Matrix::from_fn(n, n, |r, c| 0.5 * (a.get(r, c) + a.get(c, r)));
        let tall = tall_matrix(&mut rng);
        let gram = tall.transpose().matmul(&tall);
        let gram = Matrix::from_fn(gram.rows(), gram.cols(), |r, c| {
            gram.get(r.min(c), r.max(c))
        });
        for (name, s) in [
            ("scaled", sym.scale(1e-9)),
            ("symmetrized", sym),
            ("gram", gram),
        ] {
            let e = symmetric_eigen(&s);
            let (values, vectors) = symmetric_eigen_by_columns(&s);
            let what = format!("seed {seed}, {name} {}x{}", s.rows(), s.cols());
            assert_eq!(bits(&e.values), bits(&values), "{what}: eigenvalues");
            assert_eq!(
                bits(e.vectors.as_slice()),
                bits(vectors.as_slice()),
                "{what}: eigenvectors"
            );
        }
    }
}

#[test]
fn svd_of_near_duplicate_columns_keeps_its_contract() {
    // A rotation of a near-duplicate pair leaves one column of norm
    // about δ·‖x‖, a cancellation the cached norms must not carry.
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let base = tall_matrix(&mut rng);
        let (m, n) = (base.rows(), base.cols());
        let j = rng.range_usize(n - 1);
        let noise = rng.vec_f64(-1.0, 1.0, m);
        for delta in [1e-9, 1e-13] {
            let a = Matrix::from_fn(m, n, |r, c| {
                let x = base.get(r, if c == n - 1 { j } else { c });
                if c == n - 1 {
                    x * (1.0 + delta * noise[r])
                } else {
                    x
                }
            });
            let d = svd(&a);
            let what = format!("seed {seed}, {m}x{n}, column {j} duplicated to {delta:e}");
            let err = a.sub(&d.reconstruct(n)).fro_norm();
            assert!(
                err <= 1e-12 * a.fro_norm(),
                "{what}: reconstruction {err:e}"
            );
            let live = d.sigma.iter().filter(|&&s| s > 0.0).count();
            let u_live = d.u.take_cols(live);
            let err = u_live
                .transpose()
                .matmul(&u_live)
                .sub(&Matrix::identity(live));
            assert!(err.fro_norm() < 1e-12, "{what}: UᵀU {:e}", err.fro_norm());
            let err = d.v.transpose().matmul(&d.v).sub(&Matrix::identity(n));
            assert!(err.fro_norm() < 1e-12, "{what}: VᵀV {:e}", err.fro_norm());
        }
    }
}

#[test]
fn svd_of_a_rank_deficient_wide_matrix_keeps_its_contract() {
    // An m×r times r×n product with r < m < n. The wide path decomposes
    // the transpose, so V is the transpose's U: zero where σ = 0. Not
    // every one of the m − r zero singular values need read 0; one can
    // stay at rounding level above the floor.
    let mut shapes = vec![(6, 10, 3), (8, 64, 1)];
    let mut rng = Rng64::new(0);
    for _ in 0..CASES {
        let m = 3 + rng.range_usize(10);
        let n = m + 1 + rng.range_usize(60);
        let r = 1 + rng.range_usize(m - 1);
        shapes.push((m, n, r));
    }
    for (case, &(m, n, r)) in shapes.iter().enumerate() {
        let mut rng = Rng64::new(case as u64);
        let left = Matrix::from_vec(m, r, rng.vec_f64(-10.0, 10.0, m * r));
        let right = Matrix::from_vec(r, n, rng.vec_f64(-10.0, 10.0, r * n));
        let a = left.matmul(&right);
        let d = svd(&a);
        let what = format!("case {case}, {m}x{n} of rank {r}, σ {:?}", d.sigma);
        let floor = f64::EPSILON * a.fro_norm();
        assert!(
            d.sigma.iter().all(|&s| s == 0.0 || s > floor),
            "{what}: a σ in (0, {floor:e}]"
        );
        let live = d.sigma.iter().filter(|&&s| s > 0.0).count();
        assert!(live < m, "{what}: no σ is zero");
        for c in live..m {
            assert!(d.u.col(c).iter().all(|&x| x == 0.0), "{what}: U col {c}");
            assert!(d.v.col(c).iter().all(|&x| x == 0.0), "{what}: V col {c}");
        }
        for (name, f) in [("U", &d.u), ("V", &d.v)] {
            let f_live = f.take_cols(live);
            let err = f_live
                .transpose()
                .matmul(&f_live)
                .sub(&Matrix::identity(live))
                .fro_norm();
            assert!(err < 1e-12, "{what}: {name}ᵀ{name} {err:e}");
        }
        let err = a.sub(&d.reconstruct(m)).fro_norm();
        assert!(
            err <= 1e-12 * a.fro_norm(),
            "{what}: reconstruction {err:e}"
        );
    }
}

/// `a`'s column covariance `Xcᵀ·Xc / (m − 1)`, formed apart from
/// `Pca::fit`.
fn covariance(a: &Matrix) -> Matrix {
    let (m, n) = (a.rows(), a.cols());
    let means: Vec<f64> = (0..n)
        .map(|c| (0..m).map(|r| a.get(r, c)).sum::<f64>() / m as f64)
        .collect();
    let centered = Matrix::from_fn(m, n, |r, c| a.get(r, c) - means[c]);
    let denom = (m.max(2) - 1) as f64;
    centered.transpose().matmul(&centered).scale(1.0 / denom)
}

/// `Pca::fit(a)` against `symmetric_eigen` of `a`'s covariance: the
/// variances within `1e-12·λ₁`, the same 95 % rank `k`, and the
/// projectors onto the leading `k` components within `1e-9`.
fn assert_pca_matches_eigen(what: &str, a: &Matrix) {
    let pca = Pca::fit(a);
    let eig = symmetric_eigen(&covariance(a));
    let reference = Pca {
        means: pca.means.clone(),
        variances: eig.values.iter().map(|&l| l.max(0.0)).collect(),
        components: eig.vectors,
    };
    let top = reference.variances[0];
    for (i, (v, l)) in pca.variances.iter().zip(&reference.variances).enumerate() {
        assert!(
            (v - l).abs() <= 1e-12 * top,
            "{what}: variance {i} is {v:e}, eigenvalue {l:e}"
        );
    }
    let k = pca.components_for_variance(0.95);
    assert_eq!(k, reference.components_for_variance(0.95), "{what}: k");
    let projector = |p: &Pca| {
        let basis = p.components.take_cols(k);
        basis.matmul(&basis.transpose())
    };
    let diff = projector(&pca).sub(&projector(&reference));
    let worst = diff.as_slice().iter().fold(0.0f64, |m, x| m.max(x.abs()));
    assert!(
        worst <= 1e-9,
        "{what}: leading-{k} projectors differ by {worst:e}"
    );
}

#[test]
fn pca_agrees_with_the_symmetric_eigensolver() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let tall = tall_matrix(&mut rng);
        let (m, n) = (tall.rows(), tall.cols());
        let j = 1 + rng.range_usize(n - 1);
        let left = Matrix::from_vec(m, j, rng.vec_f64(-10.0, 10.0, m * j));
        let right = Matrix::from_vec(j, n, rng.vec_f64(-10.0, 10.0, j * n));
        assert_pca_matches_eigen(&format!("seed {seed}, tall {m}x{n}"), &tall);
        let low_rank = left.matmul(&right);
        assert_pca_matches_eigen(&format!("seed {seed}, rank {j} {m}x{n}"), &low_rank);
    }
    for kind in DatasetKind::ALL {
        let field = generate(kind, SizeClass::Tiny).full;
        let (m, n) = field.matrix_dims();
        let a = Matrix::from_vec(m, n, field.data);
        assert_pca_matches_eigen(&format!("Tiny {} {m}x{n}", kind.name()), &a);
    }
}
