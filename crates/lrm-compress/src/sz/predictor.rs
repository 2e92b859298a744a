//! Lorenzo predictors over reconstructed neighborhoods, and the row walk
//! that drives SZ's encoder and decoder.
//!
//! SZ predicts each value from a polynomial combination of its
//! already-decoded neighbors. The d-dimensional Lorenzo predictor is the
//! inclusion–exclusion sum over the 2^d − 1 preceding corner neighbors;
//! with out-of-domain neighbors treated as zero it degrades gracefully to
//! the (d−1)-dimensional predictor on boundary faces.
//!
//! [`lorenzo_walk`] visits a field in scan order. Boundary points take
//! [`lorenzo_predict`]. Every other point belongs to an *interior run*: a
//! row segment that shares one run value (SZ's bound block). A run reads
//! its neighbors from the row slices above (`up`), behind (`back`) and
//! behind-above (`back_up`), and carries the previous reconstructed value
//! in a register. It evaluates the same sum in the same floating-point
//! order as [`lorenzo_predict`], so its predictions are bit-identical.

use crate::Shape;

/// Lorenzo prediction for position `(x, y, z)` from the reconstruction
/// buffer `recon` (row-major, only positions strictly before the current
/// one in scan order are read).
#[inline]
pub fn lorenzo_predict(recon: &[f64], shape: Shape, x: usize, y: usize, z: usize) -> f64 {
    let g = |dx: usize, dy: usize, dz: usize| -> f64 {
        if x < dx || y < dy || z < dz {
            return 0.0;
        }
        recon[shape.idx(x - dx, y - dy, z - dz)]
    };
    match shape.ndims() {
        // 1-D uses linear extrapolation (SZ's "preceding neighbors" curve
        // fit): exact for linear signals, unlike the order-0 previous-value
        // predictor.
        1 => 2.0 * g(1, 0, 0) - g(2, 0, 0),
        2 => g(1, 0, 0) + g(0, 1, 0) - g(1, 1, 0),
        _ => {
            g(1, 0, 0) + g(0, 1, 0) + g(0, 0, 1) - g(1, 1, 0) - g(1, 0, 1) - g(0, 1, 1) + g(1, 1, 1)
        }
    }
}

/// What [`lorenzo_walk`] does at the points it visits: SZ's encoder
/// quantizes each point, and its decoder reads each one back. A point is
/// coded in two steps, its input and then its value, so that the
/// prediction is evaluated after the input is read and is never kept in
/// memory across a stream read.
pub trait PointCoder {
    /// What every point of a run shares (SZ's bound).
    type Run;
    /// A point's own part of the field or the stream, taken before its
    /// prediction is known.
    type Input;
    /// Why a point cannot be read; the walk stops at the first one.
    type Error;

    /// The run that holds scan index `i`: the value its points share, or
    /// `None` for a run whose points are skipped and keep what `recon`
    /// holds, and the run's exclusive end.
    fn run_at(&self, i: usize) -> (Option<Self::Run>, usize);

    /// Takes point `i`'s input.
    fn input(&mut self, i: usize, run: &Self::Run) -> Result<Self::Input, Self::Error>;

    /// The value point `i` reconstructs to from its input and its Lorenzo
    /// prediction `pred`; later predictions read it.
    fn value(&mut self, i: usize, input: Self::Input, pred: f64, run: &Self::Run) -> f64;
}

/// Visits every point of `shape` in scan order with its Lorenzo
/// prediction, writing the value `coder` gives it into `recon`, which
/// must hold `shape.len()` values. Inlined into each coder's caller, like
/// the coders' `input` and `value`, so a coder's state can stay in
/// registers across the scan.
#[inline(always)]
pub fn lorenzo_walk<C: PointCoder>(
    recon: &mut [f64],
    shape: Shape,
    coder: &mut C,
) -> Result<(), C::Error> {
    let [nx, ny, nz] = shape.dims;
    let ndims = shape.ndims();
    let mut run = None;
    let mut until = 0;
    for z in 0..nz {
        for y in 0..ny {
            let base = shape.idx(0, y, z);
            // First x whose every neighbor lies inside the field.
            let xmin = match ndims {
                1 => 2,
                2 if y >= 1 => 1,
                3 if y >= 1 && z >= 1 => 1,
                _ => nx,
            };
            let mut x = 0;
            while x < nx {
                if base + x >= until {
                    (run, until) = coder.run_at(base + x);
                }
                let end = (until - base).min(nx);
                let Some(r) = &run else {
                    x = end;
                    continue;
                };
                while x < end.min(xmin) {
                    let input = coder.input(base + x, r)?;
                    let pred = lorenzo_predict(recon, shape, x, y, z);
                    recon[base + x] = coder.value(base + x, input, pred, r);
                    x += 1;
                }
                if x < end {
                    interior_run(recon, shape, base, x, end, r, coder)?;
                    x = end;
                }
            }
        }
    }
    Ok(())
}

/// One interior run: the points `x0..x1` of the row that starts at scan
/// index `base`, every one of which has all its neighbors (`x0 >= 2` in
/// 1-D, else `x0 >= 1` on a row with `y >= 1`, and `z >= 1` in 3-D).
#[inline(always)]
fn interior_run<C: PointCoder>(
    recon: &mut [f64],
    shape: Shape,
    base: usize,
    x0: usize,
    x1: usize,
    r: &C::Run,
    coder: &mut C,
) -> Result<(), C::Error> {
    let [nx, ny, _] = shape.dims;
    let n = x1 - x0;
    let (done, row) = recon.split_at_mut(base);
    let line = |back: usize| neighbor_row(done, back, x0, x1);
    let mut prev = row[x0 - 1];
    match shape.ndims() {
        1 => {
            let mut prev2 = row[x0 - 2];
            let out = &mut row[x0..x1];
            for k in 0..n {
                let i = base + x0 + k;
                let input = coder.input(i, r)?;
                let pred = 2.0 * prev - prev2;
                (prev2, prev) = (prev, coder.value(i, input, pred, r));
                out[k] = prev;
            }
        }
        2 => {
            let (up, up1) = line(nx);
            let out = &mut row[x0..x1];
            for k in 0..n {
                let i = base + x0 + k;
                let input = coder.input(i, r)?;
                let pred = prev + up[k] - up1[k];
                prev = coder.value(i, input, pred, r);
                out[k] = prev;
            }
        }
        _ => {
            let sxy = nx * ny;
            let (up, up1) = line(nx);
            let (back, back1) = line(sxy);
            let (back_up, back_up1) = line(sxy + nx);
            let out = &mut row[x0..x1];
            for k in 0..n {
                let i = base + x0 + k;
                let input = coder.input(i, r)?;
                let pred = prev + up[k] + back[k] - up1[k] - back1[k] - back_up[k] + back_up1[k];
                prev = coder.value(i, input, pred, r);
                out[k] = prev;
            }
        }
    }
    Ok(())
}

/// The row that starts `back` values before the end of `done`, at
/// x and at x − 1 for x in `x0..x1`: two slices as long as the run, so
/// the run's loop indexes them without bounds checks.
#[inline(always)]
fn neighbor_row(done: &[f64], back: usize, x0: usize, x1: usize) -> (&[f64], &[f64]) {
    let line = &done[done.len() - back..];
    (&line[x0..x1], &line[x0 - 1..x1 - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicts_constant_field_exactly_in_interior() {
        let shape = Shape::d2(4, 4);
        let recon = vec![5.0; 16];
        // Interior: 5 + 5 - 5 = 5.
        assert_eq!(lorenzo_predict(&recon, shape, 2, 2, 0), 5.0);
    }

    #[test]
    fn predicts_linear_field_exactly() {
        // Lorenzo order-1 reproduces any (multi)linear field exactly in the
        // interior: f(x,y) = 3x + 2y + 1.
        let shape = Shape::d2(5, 5);
        let mut recon = vec![0.0; 25];
        for y in 0..5 {
            for x in 0..5 {
                recon[shape.idx(x, y, 0)] = 3.0 * x as f64 + 2.0 * y as f64 + 1.0;
            }
        }
        for y in 1..5 {
            for x in 1..5 {
                let p = lorenzo_predict(&recon, shape, x, y, 0);
                let actual = recon[shape.idx(x, y, 0)];
                assert!((p - actual).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn origin_predicts_zero() {
        let shape = Shape::d3(3, 3, 3);
        let recon = vec![7.0; 27];
        assert_eq!(lorenzo_predict(&recon, shape, 0, 0, 0), 0.0);
    }

    #[test]
    fn boundary_degrades_to_lower_dimension() {
        let shape = Shape::d2(4, 4);
        let mut recon = vec![0.0; 16];
        for x in 0..4 {
            recon[shape.idx(x, 0, 0)] = x as f64 * 10.0;
        }
        // Row 0 behaves like a 1-D predictor: pred(x=2,y=0) = recon[1,0].
        assert_eq!(lorenzo_predict(&recon, shape, 2, 0, 0), 10.0);
    }

    /// Checks every prediction the walk makes against [`lorenzo_predict`]
    /// over the field the walk will have rebuilt, and returns `values`.
    struct Check<'a> {
        shape: Shape,
        run_len: usize,
        values: &'a [f64],
        expected: &'a [f64],
        visited: usize,
    }

    impl Check<'_> {
        fn skipped(&self, i: usize) -> bool {
            self.run_len != usize::MAX && (i / self.run_len) % 3 == 1
        }
    }

    impl PointCoder for Check<'_> {
        type Run = usize;
        type Input = ();
        type Error = ();

        fn run_at(&self, i: usize) -> (Option<usize>, usize) {
            let end = (i / self.run_len + 1).saturating_mul(self.run_len);
            ((!self.skipped(i)).then_some(i / self.run_len), end)
        }

        fn input(&mut self, _: usize, _: &usize) -> Result<(), ()> {
            Ok(())
        }

        fn value(&mut self, i: usize, _: (), pred: f64, run: &usize) -> f64 {
            let [nx, ny, _] = self.shape.dims;
            let (x, y, z) = (i % nx, i / nx % ny, i / (nx * ny));
            let want = lorenzo_predict(self.expected, self.shape, x, y, z);
            let at = format!("{:?}, runs of {}: ({x},{y},{z})", self.shape, self.run_len);
            assert_eq!(pred.to_bits(), want.to_bits(), "{at}");
            assert_eq!(*run, i / self.run_len, "{at}");
            self.visited += 1;
            self.values[i]
        }
    }

    #[test]
    fn row_walk_predicts_like_lorenzo_predict_at_every_point() {
        // Runs of 5 and 7 values cut rows at every offset; every third
        // run is skipped and stays zero, as SZ's all-zero blocks do.
        let mut rng = lrm_rng::Rng64::new(0x10E);
        let shapes = [
            Shape::d1(64),
            Shape::d2(9, 7),
            Shape::d2(1, 12),
            Shape::d3(6, 5, 4),
            Shape::d3(3, 2, 9),
            Shape::d3(4, 1, 5),
        ];
        for shape in shapes {
            for run_len in [5, 7, usize::MAX] {
                let values = rng.vec_f64(-1e9, 1e9, shape.len());
                let mut check = Check {
                    shape,
                    run_len,
                    values: &values,
                    expected: &[],
                    visited: 0,
                };
                let expected: Vec<f64> = (0..shape.len())
                    .map(|i| if check.skipped(i) { 0.0 } else { values[i] })
                    .collect();
                check.expected = &expected;
                let mut recon = vec![0.0; shape.len()];
                assert_eq!(lorenzo_walk(&mut recon, shape, &mut check), Ok(()));
                assert_eq!(recon, expected, "{shape:?}, runs of {run_len}");
                let kept = (0..shape.len()).filter(|&i| !check.skipped(i)).count();
                assert_eq!(check.visited, kept, "{shape:?}, runs of {run_len}");
            }
        }
    }

    #[test]
    fn predicts_trilinear_field_exactly_3d() {
        let shape = Shape::d3(4, 4, 4);
        let mut recon = vec![0.0; 64];
        for z in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    recon[shape.idx(x, y, z)] =
                        1.0 + 2.0 * x as f64 - 3.0 * y as f64 + 0.5 * z as f64;
                }
            }
        }
        for z in 1..4 {
            for y in 1..4 {
                for x in 1..4 {
                    let p = lorenzo_predict(&recon, shape, x, y, z);
                    assert!((p - recon[shape.idx(x, y, z)]).abs() < 1e-12);
                }
            }
        }
    }
}
