//! Error-bound conformance: every dataset × every SZ bound mode × a
//! bound sweep. The decoded output must satisfy the advertised bound
//! *pointwise* (not just on average), and non-finite input anywhere in
//! the metrics layer must surface as a typed error or a counted skip —
//! never a panic.
//!
//! The paper evaluates SZ in its block-based point-wise relative mode;
//! this suite pins down what each of SZ's two modes actually promises:
//!
//! * `Abs(e)` — `|v' - v| <= e` at every point.
//! * `BlockRel(r)` — `|v' - v| <= r * max|block|` per scan-order block
//!   of `BLOCK_LEN` points; all-zero blocks are exact.
//!
//! FPC is lossless, so through the pipeline it promises what the
//! pipeline's arithmetic keeps: the field itself under Direct, and under
//! a reduced model the field to one rounding of the delta and one of
//! the decoder's addition.

use lrm::compress::sz::BLOCK_LEN;
use lrm::compress::{Codec, Sz};
use lrm::core::{fpc_paper_codec, Pipeline, ReducedModelKind};
use lrm::datasets::{generate, DatasetKind, SizeClass};
use lrm::stats::error::StatsError;
use lrm::stats::{Bound, BoundReport, ErrorReport};

/// The swept relative tolerances (also scaled into absolute bounds).
const SWEEP: [f64; 3] = [1e-2, 1e-4, 1e-6];

fn value_range(data: &[f64]) -> f64 {
    let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo).max(f64::MIN_POSITIVE)
}

#[test]
fn absolute_bound_holds_pointwise_on_every_dataset() {
    for kind in DatasetKind::ALL {
        let field = generate(kind, SizeClass::Tiny).full;
        let range = value_range(&field.data);
        for rel in SWEEP {
            let e = rel * range;
            let sz = Sz::absolute(e);
            let bytes = sz.compress(&field.data, field.shape);
            let rec = sz
                .decompress(&bytes, field.shape)
                .expect("own output decodes");
            let report = BoundReport::try_check(&field.data, &rec, Bound::Absolute(e))
                .expect("finite data verifies");
            assert_eq!(
                report.violations, 0,
                "{kind:?} abs bound {e:e}: worst utilization {}",
                report.worst_utilization
            );
            assert!(report.worst_utilization <= 1.0 + 1e-12);
        }
    }
}

#[test]
fn block_relative_bound_holds_per_block_on_every_dataset() {
    for kind in DatasetKind::ALL {
        let field = generate(kind, SizeClass::Tiny).full;
        for rel in SWEEP {
            let sz = Sz::block_rel(rel);
            let bytes = sz.compress(&field.data, field.shape);
            let rec = sz
                .decompress(&bytes, field.shape)
                .expect("own output decodes");
            // The promise is per scan-order block: |v'-v| <= rel * max|block|,
            // with all-zero blocks reproduced exactly. Verify each block
            // against its own absolute bound.
            for (bi, (ob, rb)) in field
                .data
                .chunks(BLOCK_LEN)
                .zip(rec.chunks(BLOCK_LEN))
                .enumerate()
            {
                let block_max = ob.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                if block_max == 0.0 {
                    assert!(
                        rb.iter().all(|&v| v == 0.0),
                        "{kind:?} rel {rel:e}: zero block {bi} not exact"
                    );
                    continue;
                }
                let report = BoundReport::try_check(ob, rb, Bound::Absolute(rel * block_max))
                    .expect("finite data verifies");
                assert_eq!(
                    report.violations, 0,
                    "{kind:?} rel {rel:e} block {bi}: worst utilization {}",
                    report.worst_utilization
                );
            }
        }
    }
}

#[test]
fn fpc_is_bit_exact_direct_and_within_two_roundings_through_a_reduced_model() {
    // Direct stores the field, so FPC gives it back bit for bit. A
    // reduced model stores the delta x - b exactly, but the decoder's
    // b + (x - b) is rounded in f64: one rounding in the subtraction and
    // one in the addition, so each point is within 2^-51 * max|x|.
    let fpc = fpc_paper_codec();
    for kind in DatasetKind::ALL {
        let pair = generate(kind, SizeClass::Tiny);
        let field = &pair.full;
        let max = field.data.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let tol = max * 2f64.powi(-51);
        let mut models = vec![
            ReducedModelKind::Direct,
            ReducedModelKind::DuoModel,
            ReducedModelKind::Pca,
            ReducedModelKind::Svd,
            ReducedModelKind::Wavelet,
            ReducedModelKind::PcaBlocked(4),
            ReducedModelKind::SvdBlocked(4),
        ];
        if field.shape.ndims() >= 2 {
            models.extend([ReducedModelKind::OneBase, ReducedModelKind::MultiBase(4)]);
        }
        for model in models {
            for chunks in [1, 4] {
                let pipeline = Pipeline::builder()
                    .model(model)
                    .codec(fpc)
                    .delta_codec(fpc)
                    .chunks(chunks)
                    .min_chunk_len(0)
                    .build();
                let art = if model == ReducedModelKind::DuoModel {
                    pipeline.compress_with_aux(field, &pair.reduced)
                } else {
                    pipeline.compress(field)
                };
                let (rec, shape) = pipeline
                    .reconstruct(&art.bytes)
                    .expect("own output decodes");
                assert_eq!(shape, field.shape, "{kind:?} {model:?}");
                for (i, (x, y)) in field.data.iter().zip(&rec).enumerate() {
                    if model == ReducedModelKind::Direct {
                        assert_eq!(x.to_bits(), y.to_bits(), "{kind:?} Direct at {i}");
                    } else {
                        assert!(
                            (x - y).abs() <= tol,
                            "{kind:?} {model:?} chunks {chunks} at {i}: {x} vs {y}, tolerance {tol:e}"
                        );
                    }
                }
            }
        }
    }
}

/// Poisons a copy of `data` with NaN and both infinities at spread-out
/// indices; returns the poisoned copy and the poisoned index set.
fn poison(data: &[f64]) -> (Vec<f64>, Vec<usize>) {
    let n = data.len();
    let idxs = vec![0, n / 3, n / 2, 2 * n / 3, n - 1];
    let mut out = data.to_vec();
    out[idxs[0]] = f64::NAN;
    out[idxs[1]] = f64::INFINITY;
    out[idxs[2]] = f64::NEG_INFINITY;
    out[idxs[3]] = f64::NAN;
    out[idxs[4]] = f64::INFINITY;
    (out, idxs)
}

#[test]
fn nan_laced_data_yields_counted_report_not_panic() {
    for kind in DatasetKind::ALL {
        let field = generate(kind, SizeClass::Tiny).full;
        let (bad, idxs) = poison(&field.data);
        let mut uniq = idxs.clone();
        uniq.sort_unstable();
        uniq.dedup();

        // The report path: non-finite pairs are counted and skipped.
        let report = ErrorReport::compare(&bad, &field.data, 0.0).expect("lengths match");
        assert_eq!(report.nonfinite_count, uniq.len(), "{kind:?}");
        assert_eq!(report.finite_count, field.data.len() - uniq.len());
        assert!(!report.all_finite());
        assert!(
            report.mse.is_finite() && report.max_rel.is_finite(),
            "{kind:?}"
        );

        // Free metrics skip the poisoned pairs instead of propagating NaN.
        assert!(lrm::stats::mse(&bad, &field.data).is_finite());
        assert!(lrm::stats::nrmse(&field.data, &bad).is_finite());
        assert!(lrm::stats::max_abs_error(&bad, &field.data).is_finite());
    }
}

#[test]
fn nan_laced_data_yields_typed_error_from_bound_check() {
    let field = generate(DatasetKind::Heat3d, SizeClass::Tiny).full;
    let (bad, idxs) = poison(&field.data);
    let first = *idxs.iter().min().expect("nonempty");

    let err = BoundReport::try_check(&bad, &field.data, Bound::Absolute(1.0))
        .expect_err("non-finite original must be rejected");
    assert_eq!(err, StatsError::NonFiniteInput { index: first });

    // Non-finite on the reconstruction side is typed too.
    let err = BoundReport::try_check(&field.data, &bad, Bound::Absolute(1.0))
        .expect_err("non-finite reconstruction must be rejected");
    assert!(matches!(err, StatsError::NonFiniteInput { .. }));

    // Length mismatch is a typed error, not an assert.
    let err = BoundReport::try_check(&field.data[..8], &field.data[..4], Bound::Absolute(1.0))
        .expect_err("length mismatch must be rejected");
    assert_eq!(err, StatsError::LengthMismatch { left: 8, right: 4 });
}

#[test]
fn tighter_bounds_never_decompress_worse() {
    // Sanity on the sweep itself: worst absolute error is monotone in the
    // bound, so the sweep actually exercises distinct regimes.
    let field = generate(DatasetKind::Laplace, SizeClass::Tiny).full;
    let range = value_range(&field.data);
    let mut last_worst = f64::INFINITY;
    for rel in SWEEP {
        let e = rel * range;
        let sz = Sz::absolute(e);
        let bytes = sz.compress(&field.data, field.shape);
        let rec = sz.decompress(&bytes, field.shape).expect("decodes");
        let worst = lrm::stats::max_abs_error(&field.data, &rec);
        assert!(
            worst <= last_worst + f64::EPSILON,
            "worst error grew as the bound tightened: {worst} > {last_worst}"
        );
        last_worst = worst;
    }
}
