//! Reconstruction-error metrics, total over all of `f64`.
//!
//! The paper assesses compression quality with RMSE (Fig. 10) and sweeps
//! rate–distortion curves of compression ratio vs RMSE (Fig. 11). The
//! SZ-like codec bounds error absolutely or relative to each block's
//! largest magnitude; [`max_abs_error`] checks the first, and
//! [`ErrorReport::compare`] also measures the stricter per-point
//! relative error.
//!
//! Decoded data can carry NaN or infinity — a corrupt stream, an outlier
//! path, or genuinely non-finite simulation output — and the metric layer
//! must never panic or silently poison a maximum when it does. Every
//! metric here classifies its inputs: non-finite pairs are skipped in
//! the accumulation and *counted*, and [`ErrorReport::compare`] surfaces
//! those counts alongside the metrics instead of hiding them. Points
//! whose reference magnitude is at or below the relative floor are
//! likewise skipped-and-counted, per SZ's pointwise-relative definition
//! (relative error is ill-defined at zero).

use std::fmt;

/// Typed errors from the statistics layer. Metric code returns these
/// instead of panicking so a bound check on hostile data degrades to a
/// reportable failure, not an abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsError {
    /// The two slices have different lengths.
    LengthMismatch {
        /// Length of the reference slice.
        left: usize,
        /// Length of the comparison slice.
        right: usize,
    },
    /// A non-finite value was found where the caller required finite
    /// input (e.g. [`crate::BoundReport::try_check`]).
    NonFiniteInput {
        /// Index of the first offending element.
        index: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right} elements")
            }
            StatsError::NonFiniteInput { index } => {
                write!(f, "non-finite input at index {index}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// One-pass, NaN-aware reconstruction-error summary.
///
/// All accumulated metrics (`mse`, `rmse`, `max_abs`, `max_rel`) are
/// computed over the *finite* pairs only and are therefore always
/// finite themselves; the skipped points are reported in
/// [`nonfinite_count`](Self::nonfinite_count) and
/// [`below_floor_count`](Self::below_floor_count) so a caller can
/// decide whether the coverage was good enough.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorReport {
    /// Total pairs examined.
    pub count: usize,
    /// Pairs where both values are finite (the metric denominator).
    pub finite_count: usize,
    /// Pairs where either value is NaN or infinite.
    pub nonfinite_count: usize,
    /// Finite pairs excluded from `max_rel` because `|a| <= floor`
    /// (zero-denominator points in SZ's pointwise-relative sense).
    pub below_floor_count: usize,
    /// Mean squared error over finite pairs (0 when none).
    pub mse: f64,
    /// Root mean squared error over finite pairs.
    pub rmse: f64,
    /// Maximum absolute pointwise error over finite pairs.
    pub max_abs: f64,
    /// Maximum pointwise relative error over finite pairs above the
    /// floor.
    pub max_rel: f64,
}

impl ErrorReport {
    /// Compares reconstruction `b` against reference `a`, with `floor`
    /// as the magnitude threshold for the relative metric.
    ///
    /// Never panics: a length mismatch is a typed error, and NaN/inf
    /// values are classified and counted rather than propagated.
    pub fn compare(a: &[f64], b: &[f64], floor: f64) -> Result<Self, StatsError> {
        if a.len() != b.len() {
            return Err(StatsError::LengthMismatch {
                left: a.len(),
                right: b.len(),
            });
        }
        let mut finite_count = 0usize;
        let mut nonfinite_count = 0usize;
        let mut below_floor_count = 0usize;
        let mut sum_sq = 0.0f64;
        let mut max_abs = 0.0f64;
        let mut max_rel = 0.0f64;
        for (&x, &y) in a.iter().zip(b) {
            if !x.is_finite() || !y.is_finite() {
                nonfinite_count += 1;
                continue;
            }
            finite_count += 1;
            let d = (x - y).abs();
            sum_sq += d * d;
            max_abs = max_abs.max(d);
            let xa = x.abs();
            if xa > floor {
                max_rel = max_rel.max(d / xa);
            } else {
                below_floor_count += 1;
            }
        }
        let n = finite_count;
        let mse = if n > 0 { sum_sq / n as f64 } else { 0.0 };
        Ok(ErrorReport {
            count: a.len(),
            finite_count,
            nonfinite_count,
            below_floor_count,
            mse,
            rmse: mse.sqrt(),
            max_abs,
            max_rel,
        })
    }

    /// True when every examined pair was finite.
    pub fn all_finite(&self) -> bool {
        self.nonfinite_count == 0
    }
}

/// Mean squared error between `a` and `b`, over finite pairs (NaN/inf
/// pairs are skipped; use [`ErrorReport::compare`] to see how many).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "mse: length mismatch");
    let mut n = 0usize;
    let mut s = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        if x.is_finite() && y.is_finite() {
            let d = x - y;
            s += d * d;
            n += 1;
        }
    }
    if n > 0 {
        s / n as f64
    } else {
        0.0
    }
}

/// Root mean squared error between `a` and `b`.
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    mse(a, b).sqrt()
}

/// RMSE normalized by the value range of `a` (the reference data).
/// Returns plain RMSE when the range is zero or not finite.
pub fn nrmse(a: &[f64], b: &[f64]) -> f64 {
    let r = rmse(a, b);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in a {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let range = hi - lo;
    if range.is_finite() && range > 0.0 {
        r / range
    } else {
        r
    }
}

/// Peak signal-to-noise ratio in dB, with the peak taken as the value
/// range of the finite reference values in `a`. Returns `f64::INFINITY`
/// for identical data.
pub fn psnr(a: &[f64], b: &[f64]) -> f64 {
    let m = mse(a, b);
    if m == 0.0 {
        return f64::INFINITY;
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in a {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let peak = hi - lo;
    20.0 * peak.log10() - 10.0 * m.log10()
}

/// Maximum absolute pointwise error over finite pairs.
pub fn max_abs_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_error: length mismatch");
    a.iter()
        .zip(b)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_identical_is_zero() {
        let d = [1.0, -2.0, 3.0];
        assert_eq!(mse(&d, &d), 0.0);
        assert_eq!(rmse(&d, &d), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert!((mse(&a, &b) - 12.5).abs() < 1e-15);
        assert!((rmse(&a, &b) - 12.5f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mse_length_mismatch_panics() {
        mse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn nrmse_normalizes_by_range() {
        let a = [0.0, 10.0];
        let b = [1.0, 10.0];
        // rmse = sqrt(0.5), range = 10
        assert!((nrmse(&a, &b) - (0.5f64.sqrt() / 10.0)).abs() < 1e-15);
    }

    #[test]
    fn psnr_of_identical_is_infinite() {
        let d = [1.0, 2.0];
        assert_eq!(psnr(&d, &d), f64::INFINITY);
    }

    #[test]
    fn psnr_decreases_with_error() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let small: Vec<f64> = a.iter().map(|v| v + 0.01).collect();
        let big: Vec<f64> = a.iter().map(|v| v + 1.0).collect();
        assert!(psnr(&a, &small) > psnr(&a, &big));
    }

    #[test]
    fn max_abs_error_finds_worst_point() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.5, 3.1];
        assert!((max_abs_error(&a, &b) - 0.5).abs() < 1e-15);
    }

    fn max_rel(a: &[f64], b: &[f64], floor: f64) -> f64 {
        ErrorReport::compare(a, b, floor).expect("compare").max_rel
    }

    #[test]
    fn rel_error_skips_tiny_reference_values() {
        let a = [1e-300, 10.0];
        let b = [1.0, 10.1];
        let e = max_rel(&a, &b, 1e-100);
        assert!((e - 0.01).abs() < 1e-12, "e = {e}");
    }

    #[test]
    fn rel_error_zero_for_identical() {
        let a = [5.0, -5.0];
        assert_eq!(max_rel(&a, &a, 0.0), 0.0);
    }

    #[test]
    fn rel_error_with_zero_reference_is_finite() {
        // A zero reference with floor 0 must be skipped, not divided by:
        // 0/0 = NaN (identical) or inf (differing) would poison the max.
        let a = [0.0, 10.0];
        let b = [0.0, 10.1];
        let e = max_rel(&a, &b, 0.0);
        assert!(e.is_finite());
        assert!((e - 0.01).abs() < 1e-12, "e = {e}");
        let b2 = [0.5, 10.1];
        assert!(max_rel(&a, &b2, 0.0).is_finite());
    }

    #[test]
    fn metrics_skip_nan_and_inf_pairs() {
        let a = [1.0, f64::NAN, 3.0, f64::INFINITY];
        let b = [1.5, 2.0, 3.0, 4.0];
        assert!((mse(&a, &b) - 0.125).abs() < 1e-15);
        assert!(mse(&a, &b).is_finite());
        assert!((max_abs_error(&a, &b) - 0.5).abs() < 1e-15);
        assert!(max_rel(&a, &b, 0.0).is_finite());
        assert!(nrmse(&a, &b).is_finite());
        assert!(psnr(&a, &b).is_finite());
    }

    #[test]
    fn all_nan_inputs_yield_zero_not_nan() {
        let a = [f64::NAN, f64::NAN];
        let b = [1.0, 2.0];
        assert_eq!(mse(&a, &b), 0.0);
        assert_eq!(max_abs_error(&a, &b), 0.0);
    }

    #[test]
    fn report_counts_and_metrics_agree_with_free_fns() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.1, 2.0, 2.9, 4.4];
        let r = ErrorReport::compare(&a, &b, 0.0).expect("compare");
        assert_eq!(r.count, 4);
        assert_eq!(r.finite_count, 4);
        assert_eq!(r.nonfinite_count, 0);
        assert!(r.all_finite());
        assert!((r.mse - mse(&a, &b)).abs() < 1e-15);
        assert!((r.rmse - rmse(&a, &b)).abs() < 1e-15);
        assert!((r.max_abs - max_abs_error(&a, &b)).abs() < 1e-15);
        // Worst relative error is at index 0 (0.1 / 1) and 3 (0.4 / 4).
        assert!((r.max_rel - 0.1).abs() < 1e-15, "max_rel = {}", r.max_rel);
    }

    #[test]
    fn report_surfaces_nonfinite_and_floor_counts() {
        let a = [1.0, f64::NAN, 0.0, f64::NEG_INFINITY, 5.0];
        let b = [1.0, 1.0, 0.5, 1.0, f64::NAN];
        let r = ErrorReport::compare(&a, &b, 1e-12).expect("compare");
        assert_eq!(r.count, 5);
        assert_eq!(r.nonfinite_count, 3); // indices 1, 3, 4
        assert_eq!(r.finite_count, 2); // indices 0, 2
        assert_eq!(r.below_floor_count, 1); // index 2: |a| = 0
        assert!(!r.all_finite());
        assert!(r.mse.is_finite());
        assert!(r.max_rel.is_finite());
    }

    #[test]
    fn report_length_mismatch_is_a_typed_error() {
        let e = ErrorReport::compare(&[1.0], &[1.0, 2.0], 0.0);
        assert_eq!(e, Err(StatsError::LengthMismatch { left: 1, right: 2 }));
        let msg = format!("{}", e.expect_err("mismatch"));
        assert!(msg.contains("length mismatch"));
    }

    #[test]
    fn empty_report_is_well_defined() {
        let r = ErrorReport::compare(&[], &[], 0.0).expect("compare");
        assert_eq!(r.count, 0);
        assert_eq!(r.mse, 0.0);
        assert_eq!(r.rmse, 0.0);
    }
}
