//! Data-characteristics statistics for scientific floating-point data.
//!
//! This crate implements the metrics the paper uses to argue that a full
//! model and its reduced model are statistically similar (Fig. 1 and
//! Table II), and the error metrics used to assess compression quality
//! (Fig. 10, Fig. 11):
//!
//! * **Byte entropy** — Shannon entropy of the byte stream of the IEEE-754
//!   little-endian encoding, in `[0, 8]` bits/byte.
//! * **Byte mean** — arithmetic mean of the byte stream; near 127.5 for
//!   random data.
//! * **Serial correlation** — lag-1 Pearson correlation of consecutive
//!   bytes, in `[-1, 1]`.
//! * **CDF** — empirical cumulative distribution of the values, compared
//!   between models via the Kolmogorov–Smirnov statistic.
//! * **RMSE / NRMSE / PSNR** — reconstruction-quality metrics.

pub mod bytes;
pub mod cdf;
pub mod error;
pub mod moments;
pub mod verify;

pub use bytes::{byte_entropy, byte_mean, bytes_of, serial_correlation};
pub use cdf::{ks_distance, EmpiricalCdf};
pub use error::{max_abs_error, mse, nrmse, psnr, rmse, ErrorReport, StatsError};
pub use moments::{max, mean, min, variance, Summary};
pub use verify::{Bound, BoundReport};

/// The triple of scalar byte-level statistics the paper reports alongside
/// each CDF in Fig. 1 and in Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataCharacteristics {
    /// Shannon entropy of the byte stream, in bits per byte (`[0, 8]`).
    pub byte_entropy: f64,
    /// Arithmetic mean of the byte stream (`[0, 255]`).
    pub byte_mean: f64,
    /// Lag-1 serial correlation of the byte stream (`[-1, 1]`).
    pub serial_correlation: f64,
}

impl DataCharacteristics {
    /// Computes all three byte-level characteristics of `data` in one pass
    /// over its little-endian IEEE-754 byte stream.
    ///
    /// ```
    /// let d: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin()).collect();
    /// let c = lrm_stats::DataCharacteristics::of(&d);
    /// assert!(c.byte_entropy > 0.0 && c.byte_entropy < 8.0);
    /// ```
    pub fn of(data: &[f64]) -> Self {
        let b = bytes_of(data);
        Self {
            byte_entropy: byte_entropy(&b),
            byte_mean: byte_mean(&b),
            serial_correlation: serial_correlation(&b),
        }
    }

    /// Returns `true` when `self` and `other` agree within the loose
    /// tolerances the paper uses to call two models "similar": entropy
    /// within `tol_entropy` bits, byte mean within `tol_mean`, and serial
    /// correlation within `tol_corr`.
    pub fn similar_to(&self, other: &Self, tol_entropy: f64, tol_mean: f64, tol_corr: f64) -> bool {
        (self.byte_entropy - other.byte_entropy).abs() <= tol_entropy
            && (self.byte_mean - other.byte_mean).abs() <= tol_mean
            && (self.serial_correlation - other.serial_correlation).abs() <= tol_corr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characteristics_of_constant_data() {
        let d = vec![1.0f64; 256];
        let c = DataCharacteristics::of(&d);
        // A constant double has at most 8 distinct byte values -> entropy <= 3.
        assert!(c.byte_entropy <= 3.0, "entropy {}", c.byte_entropy);
    }

    #[test]
    fn characteristics_of_smooth_vs_noise() {
        let mut rng = lrm_rng::Rng64::new(7);
        let noise: Vec<f64> = rng.vec_f64(0.0, 1.0, 4096);
        // Integer-valued doubles have many zero mantissa bytes, so their
        // byte stream is far from uniform; uniform noise fills all bytes.
        let smooth: Vec<f64> = (0..4096).map(|i| i as f64).collect();
        let cn = DataCharacteristics::of(&noise);
        let cs = DataCharacteristics::of(&smooth);
        assert!(cn.byte_entropy > cs.byte_entropy);
    }

    #[test]
    fn similar_to_is_reflexive() {
        let d: Vec<f64> = (0..512).map(|i| i as f64).collect();
        let c = DataCharacteristics::of(&d);
        assert!(c.similar_to(&c, 1e-12, 1e-12, 1e-12));
    }

    #[test]
    fn similar_to_respects_tolerance() {
        let a = DataCharacteristics {
            byte_entropy: 7.0,
            byte_mean: 137.0,
            serial_correlation: -0.04,
        };
        let b = DataCharacteristics {
            byte_entropy: 7.03,
            byte_mean: 134.7,
            serial_correlation: -0.02,
        };
        // Table II tolerances: the paper calls these "nearly the same".
        assert!(a.similar_to(&b, 0.1, 5.0, 0.05));
        assert!(!a.similar_to(&b, 0.01, 5.0, 0.05));
    }
}
