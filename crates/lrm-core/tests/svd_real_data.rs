//! The SVD contract on real data: the reshaped Sedov_pres Small
//! pressure field (4096×64), whose trailing singular values sit at
//! round-off level, keeps the orthonormality and reconstruction bounds
//! that `lrm-linalg`'s property tests assert on random matrices.

use lrm_datasets::{generate, DatasetKind, SizeClass};
use lrm_linalg::{svd, Matrix};

#[test]
fn svd_of_sedov_pres_small_keeps_its_contract() {
    let field = generate(DatasetKind::SedovPres, SizeClass::Small).full;
    let (m, n) = field.matrix_dims();
    assert_eq!((m, n), (4096, 64));
    let a = Matrix::from_vec(m, n, field.data);
    let d = svd(&a);

    let live = d.sigma.iter().filter(|&&s| s > 0.0).count();
    let u_live = d.u.take_cols(live);
    let utu = u_live.transpose().matmul(&u_live);
    let err = utu.sub(&Matrix::identity(live)).fro_norm();
    assert!(
        err <= 1e-12,
        "‖UᵀU − I‖_F = {err:e} over {live} live columns"
    );

    let vtv = d.v.transpose().matmul(&d.v);
    let err = vtv.sub(&Matrix::identity(n)).fro_norm();
    assert!(err <= 1e-12, "‖VᵀV − I‖_F = {err:e}");

    let err = a.sub(&d.reconstruct(n)).fro_norm();
    let bound = 1e-12 * a.fro_norm();
    assert!(err <= bound, "‖A − UΣVᵀ‖_F = {err:e}, bound {bound:e}");
}
