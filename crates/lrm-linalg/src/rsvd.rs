//! Randomized truncated SVD (Halko–Martinsson–Tropp).
//!
//! The paper's Fig. 12 complaint about SVD preconditioning is its cost;
//! a randomized range sketch computes only the `k` needed triplets:
//! sample `Ω ~ N(0,1)^{n×(k+p)}`, form `Y = (A Aᵀ)^q A Ω`, orthonormalize
//! `Y = QR`, decompose the small `B = Qᵀ A`, and lift `U = Q U_B`. For
//! the tall-skinny matrices the preconditioners produce, each pass over
//! `A` costs `O(m n (k+p))`, against the exact [`svd`]'s `O(m n²)` QR plus
//! `O(n³)` per Jacobi sweep; which is cheaper depends on the shape.

use crate::matrix::Matrix;
use crate::qr::qr;
use crate::svd::{svd, Svd};
use lrm_rng::Rng64;

/// Configuration of the randomized SVD.
#[derive(Debug, Clone, Copy)]
pub struct RsvdConfig {
    /// Target rank `k` (the triplets actually returned).
    pub rank: usize,
    /// Oversampling `p` (defaults to 8; improves accuracy cheaply).
    pub oversample: usize,
    /// Power-iteration count `q` (0..=3; sharpens decaying spectra).
    pub power_iterations: usize,
    /// RNG seed — fixed so runs are reproducible.
    pub seed: u64,
}

impl RsvdConfig {
    /// Sensible defaults for rank `k`.
    pub fn rank(k: usize) -> Self {
        Self {
            rank: k.max(1),
            oversample: 8,
            power_iterations: 1,
            seed: 0x5eed,
        }
    }
}

/// Computes an approximate truncated SVD of `a` with `cfg.rank` triplets.
pub fn randomized_svd(a: &Matrix, cfg: &RsvdConfig) -> Svd {
    let (m, n) = (a.rows(), a.cols());
    let l = (cfg.rank + cfg.oversample).min(n).min(m).max(1);

    let mut rng = Rng64::new(cfg.seed);
    let omega = Matrix::from_fn(n, l, |_, _| rng.normal());

    // Range sketch with optional power iterations (re-orthonormalized
    // between applications for stability).
    let mut y = a.matmul(&omega);
    for _ in 0..cfg.power_iterations {
        let (q, _) = qr(&y);
        let z = a.transpose().matmul(&q);
        let (qz, _) = qr(&z);
        y = a.matmul(&qz);
    }
    let (q, _) = qr(&y);

    // Small decomposition: B = Qᵀ A is l×n.
    let b = q.transpose().matmul(a);
    let small = svd(&b);

    let k = cfg.rank.min(small.sigma.len());
    let u = q.matmul(&small.u.take_cols(k));
    Svd {
        u,
        sigma: small.sigma[..k].to_vec(),
        v: small.v.take_cols(k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn low_rank_plus_noise(m: usize, n: usize, rank: usize) -> Matrix {
        let mut a = Matrix::zeros(m, n);
        for t in 0..rank {
            let scale = 10.0 / (t + 1) as f64;
            for r in 0..m {
                for c in 0..n {
                    let v = a.get(r, c)
                        + scale
                            * ((r as f64 * (t + 1) as f64 * 0.13).sin()
                                * (c as f64 * (t + 1) as f64 * 0.21).cos());
                    a.set(r, c, v);
                }
            }
        }
        a
    }

    #[test]
    fn recovers_dominant_singular_values() {
        let a = low_rank_plus_noise(120, 30, 3);
        let exact = svd(&a);
        let approx = randomized_svd(&a, &RsvdConfig::rank(5));
        for i in 0..3 {
            let rel = (exact.sigma[i] - approx.sigma[i]).abs() / exact.sigma[i];
            assert!(
                rel < 1e-6,
                "sigma {i}: {} vs {}",
                exact.sigma[i],
                approx.sigma[i]
            );
        }
    }

    #[test]
    fn truncated_reconstruction_is_accurate() {
        let a = low_rank_plus_noise(80, 24, 2);
        let approx = randomized_svd(&a, &RsvdConfig::rank(4));
        let rec = approx.reconstruct(4);
        assert!(a.sub(&rec).fro_norm() < 1e-6 * (1.0 + a.fro_norm()));
    }

    #[test]
    fn factors_are_orthonormal_on_retained_directions() {
        // Add full-rank pseudo-noise so all requested directions exist.
        let mut a = low_rank_plus_noise(60, 20, 4);
        for r in 0..60 {
            for c in 0..20 {
                let v = a.get(r, c) + 0.01 * (((r * 37 + c * 13) % 89) as f64 / 89.0 - 0.5);
                a.set(r, c, v);
            }
        }
        let d = randomized_svd(&a, &RsvdConfig::rank(6));
        let utu = d.u.transpose().matmul(&d.u);
        let k = d.sigma.len();
        assert!(
            utu.sub(&Matrix::identity(k)).fro_norm() < 1e-8,
            "UᵀU deviation {}",
            utu.sub(&Matrix::identity(k)).fro_norm()
        );
    }

    #[test]
    fn is_deterministic_for_fixed_seed() {
        let a = low_rank_plus_noise(40, 16, 3);
        let d1 = randomized_svd(&a, &RsvdConfig::rank(4));
        let d2 = randomized_svd(&a, &RsvdConfig::rank(4));
        assert_eq!(d1.sigma, d2.sigma);
    }

    #[test]
    fn power_iterations_improve_noisy_spectra() {
        // Add broadband noise: q = 2 must estimate sigma_1 at least as
        // well as q = 0.
        let mut a = low_rank_plus_noise(100, 32, 2);
        for r in 0..100 {
            for c in 0..32 {
                let v = a.get(r, c) + 0.3 * (((r * 31 + c * 17) % 101) as f64 / 101.0 - 0.5);
                a.set(r, c, v);
            }
        }
        let exact = svd(&a);
        let q0 = randomized_svd(
            &a,
            &RsvdConfig {
                power_iterations: 0,
                ..RsvdConfig::rank(2)
            },
        );
        let q2 = randomized_svd(
            &a,
            &RsvdConfig {
                power_iterations: 2,
                ..RsvdConfig::rank(2)
            },
        );
        let e0 = (exact.sigma[0] - q0.sigma[0]).abs();
        let e2 = (exact.sigma[0] - q2.sigma[0]).abs();
        assert!(e2 <= e0 + 1e-9, "q0 err {e0}, q2 err {e2}");
    }

    #[test]
    fn rank_larger_than_matrix_is_clamped() {
        let a = low_rank_plus_noise(10, 4, 2);
        let d = randomized_svd(&a, &RsvdConfig::rank(99));
        assert!(d.sigma.len() <= 4);
    }
}
