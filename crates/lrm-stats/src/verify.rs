//! Bound-verification reports: quantify how a reconstruction honored its
//! error bound across a whole field.
//!
//! Compression papers (this one included) report a single RMSE per run;
//! production users also need to know the *worst* point, how many points
//! approached the bound, and whether any violated it. [`BoundReport`]
//! computes all of that in one pass.

/// The kind of bound being checked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// `|a - b| <= e` everywhere.
    Absolute(f64),
}

use crate::error::StatsError;

/// One-pass verification summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundReport {
    /// Points checked.
    pub count: usize,
    /// Points violating the bound.
    pub violations: usize,
    /// Worst observed error / allowed error ratio (1.0 = at the bound).
    pub worst_utilization: f64,
    /// Index of the worst point.
    pub worst_index: usize,
    /// Mean error / allowed error ratio.
    pub mean_utilization: f64,
}

impl BoundReport {
    /// Verifies `recon` against `orig` under `bound`.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn check(orig: &[f64], recon: &[f64], bound: Bound) -> Self {
        assert_eq!(orig.len(), recon.len(), "verify: length mismatch");
        let mut worst = 0.0f64;
        let mut worst_index = 0usize;
        let mut sum = 0.0f64;
        let mut violations = 0usize;
        let Bound::Absolute(allowed) = bound;
        for (i, (&a, &b)) in orig.iter().zip(recon).enumerate() {
            let err = (a - b).abs();
            let u = if allowed > 0.0 {
                err / allowed
            } else if err == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
            if u > worst {
                worst = u;
                worst_index = i;
            }
            sum += u;
            if u > 1.0 {
                violations += 1;
            }
        }
        Self {
            count: orig.len(),
            violations,
            worst_utilization: worst,
            worst_index,
            mean_utilization: if orig.is_empty() {
                0.0
            } else {
                sum / orig.len() as f64
            },
        }
    }

    /// True when no point violated the bound.
    pub fn holds(&self) -> bool {
        self.violations == 0
    }

    /// Non-panicking [`check`](Self::check): a length mismatch or a
    /// NaN/inf on either side is a typed [`StatsError`], because a
    /// bound is meaningless at a non-finite point — `NaN <= e` is
    /// false for every `e`, and a report computed through it would
    /// claim violations (or worse, compare NaN and claim none).
    pub fn try_check(orig: &[f64], recon: &[f64], bound: Bound) -> Result<Self, StatsError> {
        if orig.len() != recon.len() {
            return Err(StatsError::LengthMismatch {
                left: orig.len(),
                right: recon.len(),
            });
        }
        for (i, (&a, &b)) in orig.iter().zip(recon).enumerate() {
            if !a.is_finite() || !b.is_finite() {
                return Err(StatsError::NonFiniteInput { index: i });
            }
        }
        Ok(Self::check(orig, recon, bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_bound_report() {
        let orig = [1.0, 2.0, 3.0, 4.0];
        let recon = [1.05, 2.0, 2.92, 4.2];
        let r = BoundReport::check(&orig, &recon, Bound::Absolute(0.1));
        assert_eq!(r.count, 4);
        assert_eq!(r.violations, 1); // the 0.2 error at index 3
        assert_eq!(r.worst_index, 3);
        assert!((r.worst_utilization - 2.0).abs() < 1e-12);
        assert!(!r.holds());
    }

    #[test]
    fn perfect_reconstruction_holds_trivially() {
        let d = [1.0, -2.0, 0.0];
        let r = BoundReport::check(&d, &d, Bound::Absolute(1e-12));
        assert!(r.holds());
        assert_eq!(r.worst_utilization, 0.0);
        assert_eq!(r.mean_utilization, 0.0);
    }

    #[test]
    fn zero_allowed_error_with_mismatch_is_infinite() {
        let r = BoundReport::check(&[1.0], &[1.5], Bound::Absolute(0.0));
        assert!(r.worst_utilization.is_infinite());
        assert!(!r.holds());
    }

    #[test]
    fn empty_slices_are_vacuously_fine() {
        let r = BoundReport::check(&[], &[], Bound::Absolute(1.0));
        assert!(r.holds());
        assert_eq!(r.count, 0);
    }

    #[test]
    fn try_check_rejects_nan_with_typed_error() {
        let e = BoundReport::try_check(&[1.0, f64::NAN], &[1.0, 1.0], Bound::Absolute(0.1));
        assert_eq!(e, Err(StatsError::NonFiniteInput { index: 1 }));
        let e = BoundReport::try_check(&[1.0], &[f64::INFINITY], Bound::Absolute(0.1));
        assert_eq!(e, Err(StatsError::NonFiniteInput { index: 0 }));
    }

    #[test]
    fn try_check_rejects_length_mismatch() {
        let e = BoundReport::try_check(&[1.0], &[1.0, 2.0], Bound::Absolute(0.1));
        assert_eq!(e, Err(StatsError::LengthMismatch { left: 1, right: 2 }));
    }

    #[test]
    fn try_check_matches_check_on_finite_data() {
        let orig = [1.0, 2.0, 3.0];
        let recon = [1.05, 2.0, 3.02];
        let bound = Bound::Absolute(0.1);
        let r = BoundReport::try_check(&orig, &recon, bound).expect("finite");
        assert_eq!(r, BoundReport::check(&orig, &recon, bound));
        assert!(r.holds());
    }

    #[test]
    fn utilization_reflects_margin() {
        // Errors at half the bound -> utilization 0.5.
        let orig = [10.0, 20.0];
        let recon = [10.05, 20.05];
        let r = BoundReport::check(&orig, &recon, Bound::Absolute(0.1));
        assert!((r.mean_utilization - 0.5).abs() < 1e-12);
        assert!(r.holds());
    }
}
