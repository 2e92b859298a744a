//! Orthonormal Haar wavelet transform, 1-D and 2-D, multi-level.
//!
//! Implements the three-step scheme of Section V-A3: pair entries in each
//! row, store (normalized) differences, pass sums to the next scale, and
//! recurse until a single sum remains; repeat over columns; then threshold
//! the result (see [`crate::WaveletModel`]). The orthonormal normalization
//! (`1/√2`) keeps coefficient magnitudes comparable across levels so a
//! single threshold is meaningful.

use std::f64::consts::FRAC_1_SQRT_2;

/// One forward Haar level over `data[..n]`: writes n/2 smooth (sum)
/// coefficients followed by n/2 detail (difference) coefficients.
fn fwd_step(data: &mut [f64], n: usize, scratch: &mut [f64]) {
    let half = n / 2;
    for i in 0..half {
        let a = data[2 * i];
        let b = data[2 * i + 1];
        scratch[i] = (a + b) * FRAC_1_SQRT_2;
        scratch[half + i] = (a - b) * FRAC_1_SQRT_2;
    }
    data[..n].copy_from_slice(&scratch[..n]);
}

/// One inverse Haar level over `data[..n]`.
fn inv_step(data: &mut [f64], n: usize, scratch: &mut [f64]) {
    let half = n / 2;
    for i in 0..half {
        let s = data[i];
        let d = data[half + i];
        scratch[2 * i] = (s + d) * FRAC_1_SQRT_2;
        scratch[2 * i + 1] = (s - d) * FRAC_1_SQRT_2;
    }
    data[..n].copy_from_slice(&scratch[..n]);
}

/// [`fwd_step`] on every column of the first `n` rows of a row-major
/// grid `cols` wide, a whole row at a time: rows `2i` and `2i + 1` give
/// smooth row `i` and detail row `n/2 + i`. Every value sees the same
/// two operations it sees in a gathered column, and no column is
/// gathered.
fn fwd_rows_step(data: &mut [f64], n: usize, cols: usize, scratch: &mut [f64]) {
    let (smooth, detail) = scratch[..n * cols].split_at_mut(n / 2 * cols);
    for ((pair, s_row), d_row) in data[..n * cols]
        .chunks_exact(2 * cols)
        .zip(smooth.chunks_exact_mut(cols))
        .zip(detail.chunks_exact_mut(cols))
    {
        let (a_row, b_row) = pair.split_at(cols);
        for (((&a, &b), s), d) in a_row.iter().zip(b_row).zip(s_row).zip(d_row) {
            *s = (a + b) * FRAC_1_SQRT_2;
            *d = (a - b) * FRAC_1_SQRT_2;
        }
    }
    data[..n * cols].copy_from_slice(&scratch[..n * cols]);
}

/// [`inv_step`] on every column of the first `n` rows, a whole row at a
/// time: smooth row `i` and detail row `n/2 + i` give rows `2i` and
/// `2i + 1`.
fn inv_rows_step(data: &mut [f64], n: usize, cols: usize, scratch: &mut [f64]) {
    let (smooth, detail) = data[..n * cols].split_at(n / 2 * cols);
    for ((s_row, d_row), pair) in smooth
        .chunks_exact(cols)
        .zip(detail.chunks_exact(cols))
        .zip(scratch[..n * cols].chunks_exact_mut(2 * cols))
    {
        let (a_row, b_row) = pair.split_at_mut(cols);
        for (((&s, &d), a), b) in s_row.iter().zip(d_row).zip(a_row).zip(b_row) {
            *a = (s + d) * FRAC_1_SQRT_2;
            *b = (s - d) * FRAC_1_SQRT_2;
        }
    }
    data[..n * cols].copy_from_slice(&scratch[..n * cols]);
}

/// Every forward level of a power-of-two `data`, finest first.
fn fwd_levels(data: &mut [f64], scratch: &mut [f64]) {
    let mut n = data.len();
    while n >= 2 {
        fwd_step(data, n, scratch);
        n /= 2;
    }
}

/// Every inverse level of a power-of-two `data`, coarsest first.
fn inv_levels(data: &mut [f64], scratch: &mut [f64]) {
    let mut n = 2;
    while n <= data.len() {
        inv_step(data, n, scratch);
        n *= 2;
    }
}

/// Full multi-level forward 1-D Haar transform in place.
///
/// # Panics
/// Panics unless `data.len()` is a power of two (use [`pad_pow2`] first).
pub fn fwd_1d(data: &mut [f64]) {
    let len = data.len();
    assert!(len.is_power_of_two(), "haar: length must be a power of two");
    fwd_levels(data, &mut vec![0.0; len]);
}

/// Full multi-level inverse 1-D Haar transform in place.
pub fn inv_1d(data: &mut [f64]) {
    let len = data.len();
    assert!(len.is_power_of_two(), "haar: length must be a power of two");
    inv_levels(data, &mut vec![0.0; len]);
}

/// Full 2-D forward transform of a row-major `rows × cols` matrix:
/// multi-level over every row, then multi-level over every column
/// (the paper's Step 1 then Step 2). The column levels run a whole row
/// at a time, and one scratch grid serves every level.
pub fn fwd_2d(data: &mut [f64], rows: usize, cols: usize) {
    assert_eq!(data.len(), rows * cols, "haar: buffer mismatch");
    assert!(
        rows.is_power_of_two() && cols.is_power_of_two(),
        "haar: extents must be powers of two"
    );
    let mut scratch = vec![0.0; data.len()];
    for row in data.chunks_exact_mut(cols) {
        fwd_levels(row, &mut scratch);
    }
    let mut n = rows;
    while n >= 2 {
        fwd_rows_step(data, n, cols, &mut scratch);
        n /= 2;
    }
}

/// Inverse of [`fwd_2d`]: multi-level over every column, then over
/// every row.
///
/// # Panics
/// Panics unless both extents are powers of two (or the grid is 0 × 0).
pub fn inv_2d(data: &mut [f64], rows: usize, cols: usize) {
    assert_eq!(data.len(), rows * cols, "haar: buffer mismatch");
    // Panics where `inv_1d` on every column and then on every row would:
    // on an extent that is not a power of two, unless the other extent
    // is 0 and no 1-D pass of that length runs.
    assert!(
        (cols == 0 || rows.is_power_of_two()) && (rows == 0 || cols.is_power_of_two()),
        "haar: length must be a power of two"
    );
    let mut scratch = vec![0.0; data.len()];
    let mut n = 2;
    while n <= rows {
        inv_rows_step(data, n, cols, &mut scratch);
        n *= 2;
    }
    for row in data.chunks_exact_mut(cols.max(1)) {
        inv_levels(row, &mut scratch);
    }
}

/// Next power of two >= n (min 1).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Pads a row-major matrix to power-of-two extents by replicating edge
/// samples (replication keeps padding smooth, so it costs few nonzero
/// coefficients after thresholding). Returns the padded buffer and its
/// extents.
pub fn pad_pow2(data: &[f64], rows: usize, cols: usize) -> (Vec<f64>, usize, usize) {
    assert_eq!(data.len(), rows * cols, "pad: buffer mismatch");
    let pr = next_pow2(rows);
    let pc = next_pow2(cols);
    let mut out = vec![0.0; pr * pc];
    for r in 0..pr {
        let sr = r.min(rows.saturating_sub(1));
        for c in 0..pc {
            let sc = c.min(cols.saturating_sub(1));
            out[r * pc + c] = if rows == 0 || cols == 0 {
                0.0
            } else {
                data[sr * cols + sc]
            };
        }
    }
    (out, pr, pc)
}

/// Crops a padded matrix back to `rows × cols`.
pub fn crop(data: &[f64], prows: usize, pcols: usize, rows: usize, cols: usize) -> Vec<f64> {
    assert!(rows <= prows && cols <= pcols, "crop: target too large");
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        out.extend_from_slice(&data[r * pcols..r * pcols + cols]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fwd_inv_1d_roundtrip() {
        let orig: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin() * 7.0).collect();
        let mut v = orig.clone();
        fwd_1d(&mut v);
        inv_1d(&mut v);
        for (a, b) in orig.iter().zip(&v) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn fwd_inv_2d_roundtrip() {
        let (rows, cols) = (16, 32);
        let orig: Vec<f64> = (0..rows * cols).map(|i| ((i * 37) % 101) as f64).collect();
        let mut v = orig.clone();
        fwd_2d(&mut v, rows, cols);
        inv_2d(&mut v, rows, cols);
        for (a, b) in orig.iter().zip(&v) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn constant_signal_concentrates_in_dc() {
        let mut v = vec![3.0; 16];
        fwd_1d(&mut v);
        // All energy in the first (DC) coefficient: 3 * sqrt(16) = 12.
        assert!((v[0] - 12.0).abs() < 1e-12);
        for &d in &v[1..] {
            assert!(d.abs() < 1e-12);
        }
    }

    #[test]
    fn transform_preserves_energy() {
        // Orthonormal Haar is an isometry.
        let orig: Vec<f64> = (0..128).map(|i| ((i * i) as f64 * 0.01).cos()).collect();
        let e0: f64 = orig.iter().map(|v| v * v).sum();
        let mut v = orig;
        fwd_1d(&mut v);
        let e1: f64 = v.iter().map(|v| v * v).sum();
        assert!((e0 - e1).abs() < 1e-9 * e0);
    }

    #[test]
    fn smooth_signal_has_sparse_details() {
        let mut v: Vec<f64> = (0..256).map(|i| (i as f64 * 0.01).sin()).collect();
        fwd_1d(&mut v);
        let max = v.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let big = v.iter().filter(|&&c| c.abs() > 0.05 * max).count();
        assert!(
            big < 32,
            "smooth signal should need few coefficients: {big}"
        );
    }

    #[test]
    fn pad_and_crop_roundtrip() {
        let data: Vec<f64> = (0..15).map(|i| i as f64).collect();
        let (p, pr, pc) = pad_pow2(&data, 3, 5);
        assert_eq!((pr, pc), (4, 8));
        let back = crop(&p, pr, pc, 3, 5);
        assert_eq!(back, data);
    }

    #[test]
    fn pad_replicates_edges() {
        let data = vec![1.0, 2.0, 3.0]; // 1x3
        let (p, pr, pc) = pad_pow2(&data, 1, 3);
        assert_eq!((pr, pc), (1, 4));
        assert_eq!(p, vec![1.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fwd_rejects_non_pow2() {
        fwd_1d(&mut [0.0; 12]);
    }

    /// The definition `fwd_2d` must equal bit for bit: `fwd_1d` on every
    /// row, then on every column gathered into a vector of its own.
    fn fwd_2d_by_rows_then_columns(data: &mut [f64], rows: usize, cols: usize) {
        for row in data.chunks_mut(cols) {
            fwd_1d(row);
        }
        for c in 0..cols {
            let mut col: Vec<f64> = (0..rows).map(|r| data[r * cols + c]).collect();
            fwd_1d(&mut col);
            for (r, v) in col.into_iter().enumerate() {
                data[r * cols + c] = v;
            }
        }
    }

    /// The definition of `inv_2d`: `inv_1d` on every gathered column, then
    /// on every row.
    fn inv_2d_by_columns_then_rows(data: &mut [f64], rows: usize, cols: usize) {
        for c in 0..cols {
            let mut col: Vec<f64> = (0..rows).map(|r| data[r * cols + c]).collect();
            inv_1d(&mut col);
            for (r, v) in col.into_iter().enumerate() {
                data[r * cols + c] = v;
            }
        }
        for row in data.chunks_mut(cols) {
            inv_1d(row);
        }
    }

    /// Equal bits, except that a NaN only has to meet a NaN: Rust leaves
    /// the sign and payload of a NaN result unspecified.
    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what} at {i}: {g:e} ({:#x}) vs {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    #[test]
    fn transforms_2d_equal_row_then_column_1d_passes_bit_for_bit() {
        let mut rng = lrm_rng::Rng64::new(0x4aa2);
        for (rows, cols) in [
            (1, 1),
            (1, 64),
            (64, 1),
            (2, 2),
            (8, 128),
            (128, 8),
            (4096, 64),
        ] {
            // Mostly random values, with ±0.0, subnormals and NaN mixed in.
            let orig: Vec<f64> = (0..rows * cols)
                .map(|_| match rng.range_u64(32) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::from_bits(1 + rng.range_u64(1 << 52)),
                    3 => -f64::from_bits(1 + rng.range_u64(1 << 52)),
                    4 => f64::NAN,
                    _ => rng.range_f64(-1e3, 1e3),
                })
                .collect();
            let what = format!("{rows}x{cols}");

            let mut got = orig.clone();
            let mut want = orig.clone();
            fwd_2d(&mut got, rows, cols);
            fwd_2d_by_rows_then_columns(&mut want, rows, cols);
            assert_same_bits(&got, &want, &format!("fwd {what}"));

            let mut got = orig.clone();
            let mut want = orig;
            inv_2d(&mut got, rows, cols);
            inv_2d_by_columns_then_rows(&mut want, rows, cols);
            assert_same_bits(&got, &want, &format!("inv {what}"));
        }
    }

    #[test]
    #[should_panic(expected = "haar: length must be a power of two")]
    fn inv_2d_rejects_non_pow2_extent() {
        inv_2d(&mut [0.0; 96], 12, 8);
    }

    #[test]
    fn prop_1d_roundtrip_randomized() {
        // Property: fwd_1d / inv_1d are inverses for any signal length
        // 2^4..2^8 and any amplitude profile.
        for seed in 0..64u64 {
            let mut rng = lrm_rng::Rng64::new(seed);
            let k = 1 + rng.range_usize(4);
            let amps = rng.vec_f64(-1e6, 1e6, k);
            let n = 1usize << (k + 3);
            let orig: Vec<f64> = (0..n)
                .map(|i| amps[i % amps.len()] * ((i as f64) * 0.37).sin())
                .collect();
            let mut v = orig.clone();
            fwd_1d(&mut v);
            inv_1d(&mut v);
            for (a, b) in orig.iter().zip(&v) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }
}
