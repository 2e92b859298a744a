//! Dense row-major matrices with the operations the reduction pipeline
//! needs: products (on the caller's thread), transposition, norms, and
//! column-block extraction.

/// Dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given size.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix: buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }
    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }
    /// Underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix product `self * rhs`, on the caller's thread.
    ///
    /// Each output row adds `a·b_row` over the rhs rows in order (ikj, so
    /// every access is contiguous) and skips an `a` that equals zero, so a
    /// zero never meets an infinity in the sum. The products the pipeline
    /// forms (`scores·basisᵀ`, `U·Σ·Vᵀ`) have a small inner dimension,
    /// where a thread pool costs more than the arithmetic.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul: inner dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = vec![0.0f64; m * n];
        for (r, out_row) in out.chunks_mut(n.max(1)).enumerate() {
            let a_row = &self.data[r * k..(r + 1) * k];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Matrix {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// `self * v` for a column vector `v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec: dimension mismatch");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(&a, &b)| a * b).sum())
            .collect()
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|&v| v * v).sum::<f64>().sqrt()
    }

    /// Sub-matrix of the first `k` columns.
    pub fn take_cols(&self, k: usize) -> Matrix {
        assert!(k <= self.cols, "take_cols: k out of range");
        Matrix::from_fn(self.rows, k, |r, c| self.get(r, c))
    }

    /// Sub-matrix of the first `k` rows.
    pub fn take_rows(&self, k: usize) -> Matrix {
        assert!(k <= self.rows, "take_rows: k out of range");
        Matrix::from_fn(k, self.cols, |r, c| self.get(r, c))
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub: shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(4, 7, |r, c| (r * 13 + c * 7) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_dims() {
        let a = Matrix::zeros(2, 5);
        let t = a.transpose();
        assert_eq!((t.rows(), t.cols()), (5, 2));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f64);
        let v = vec![1.0, -1.0, 2.0, 0.5];
        let got = a.matvec(&v);
        let vm = Matrix::from_vec(4, 1, v);
        let want = a.matmul(&vm);
        assert_eq!(got, want.as_slice());
    }

    #[test]
    fn fro_norm_known() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.fro_norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn take_cols_and_rows() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let c = a.take_cols(2);
        assert_eq!((c.rows(), c.cols()), (3, 2));
        assert_eq!(c.row(1), &[3.0, 4.0]);
        let r = a.take_rows(1);
        assert_eq!(r.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn sub_and_scale() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![0.5, 0.5, 0.5]);
        assert_eq!(a.sub(&b).as_slice(), &[0.5, 1.5, 2.5]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_bad_dims() {
        Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    /// The definition `matmul` must equal bit for bit: for each output
    /// row, add `a·b` over the rhs rows in order, skipping every `a`
    /// that compares equal to zero.
    fn naive_ikj(a: &Matrix, b: &Matrix) -> Vec<f64> {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = vec![0.0f64; m * n];
        for r in 0..m {
            for i in 0..k {
                let x = a.get(r, i);
                if x == 0.0 {
                    continue;
                }
                for c in 0..n {
                    out[r * n + c] += x * b.get(i, c);
                }
            }
        }
        out
    }

    /// Mostly random values, with ±0.0, subnormals, ±inf and NaN mixed
    /// in.
    fn mixed(rows: usize, cols: usize, rng: &mut lrm_rng::Rng64) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| match rng.range_u64(64) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(1 + rng.range_u64(1 << 52)),
            3 => -f64::from_bits(1 + rng.range_u64(1 << 52)),
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            6 => f64::NAN,
            7..=15 => 0.0,
            _ => rng.range_f64(-1e3, 1e3),
        })
    }

    #[test]
    fn matmul_equals_naive_ikj_bit_for_bit() {
        let mut rng = lrm_rng::Rng64::new(0x6e44);
        for (m, k, n) in [
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
            (1, 1, 1),
            (2304, 5, 48),
            (5, 2304, 3),
        ] {
            let a = mixed(m, k, &mut rng);
            let b = mixed(k, n, &mut rng);
            let got = a.matmul(&b);
            assert_eq!((got.rows(), got.cols()), (m, n));
            let want = naive_ikj(&a, &b);
            for (idx, (g, w)) in got.as_slice().iter().zip(&want).enumerate() {
                // Rust leaves the sign and payload of a NaN result
                // unspecified (a sum of two NaNs may return either), so a
                // NaN only has to meet a NaN.
                assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "{m}x{k}·{k}x{n} at {idx}: {g:e} ({:#x}) vs {w:e} ({:#x})",
                    g.to_bits(),
                    w.to_bits()
                );
            }
        }
    }

    #[test]
    fn matmul_skips_zero_lhs_so_zero_times_inf_never_reaches_a_sum() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 2.0, -0.0, 1.0]);
        let b = Matrix::from_vec(2, 2, vec![f64::INFINITY, f64::NAN, 3.0, -0.5]);
        assert_eq!(a.matmul(&b).as_slice(), &[6.0, -1.0, 3.0, -0.5]);
    }
}
