//! Shaped scalar fields — the unit of data every generator produces and
//! every preconditioner consumes.

use lrm_compress::Shape;

/// A named scalar field over a 1-D/2-D/3-D grid (row-major, x fastest).
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Human-readable name, e.g. `"heat3d/full/t=0.5"`.
    pub name: String,
    /// The samples, `shape.len()` of them.
    pub data: Vec<f64>,
    /// Grid extents.
    pub shape: Shape,
}

impl Field {
    /// Creates a field, checking that the buffer matches the shape.
    pub fn new(name: impl Into<String>, data: Vec<f64>, shape: Shape) -> Self {
        assert_eq!(data.len(), shape.len(), "field: buffer/shape mismatch");
        Self {
            name: name.into(),
            data,
            shape,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the field holds no samples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the raw field in bytes (doubles).
    pub fn nbytes(&self) -> usize {
        self.data.len() * 8
    }

    /// Views the field as an `(rows, cols)` matrix for the dimension
    /// reducers: columns are the x extent; every higher dimension is
    /// flattened into rows. A 1-D field is folded into the tallest
    /// near-square matrix whose column count divides its length (so the
    /// column-space methods have structure to exploit); a prime-length
    /// 1-D field degenerates to a single row.
    pub fn matrix_dims(&self) -> (usize, usize) {
        let [nx, ny, nz] = self.shape.dims;
        match self.shape.ndims() {
            1 => {
                let mut cols = (nx as f64).sqrt().min(nx as f64).max(1.0) as usize;
                while cols > 1 && nx % cols != 0 {
                    cols -= 1;
                }
                (nx / cols.max(1), cols.max(1))
            }
            _ => (ny * nz, nx),
        }
    }

    /// Value at `(x, y, z)`.
    #[inline]
    pub fn at(&self, x: usize, y: usize, z: usize) -> f64 {
        self.data[self.shape.idx(x, y, z)]
    }

    /// Minimum and maximum sample values (0,0 for an empty field).
    pub fn min_max(&self) -> (f64, f64) {
        if self.data.is_empty() {
            return (0.0, 0.0);
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_dims_flatten_higher_dimensions() {
        let f = Field::new("t", vec![0.0; 24], Shape::d3(2, 3, 4));
        assert_eq!(f.matrix_dims(), (12, 2));
        // Prime length: degenerate single column.
        let g = Field::new("t", vec![0.0; 7], Shape::d1(7));
        assert_eq!(g.matrix_dims(), (7, 1));
        // Power of two folds to a square.
        let h = Field::new("t", vec![0.0; 4096], Shape::d1(4096));
        assert_eq!(h.matrix_dims(), (64, 64));
        // Non-square composite folds to the nearest divisor.
        let i = Field::new("t", vec![0.0; 1470], Shape::d1(1470));
        assert_eq!(i.matrix_dims(), (42, 35));
    }

    #[test]
    fn min_max() {
        let f = Field::new("t", vec![3.0, -1.0, 2.0], Shape::d1(3));
        assert_eq!(f.min_max(), (-1.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "buffer/shape mismatch")]
    fn rejects_mismatched_buffer() {
        Field::new("t", vec![0.0; 5], Shape::d2(2, 2));
    }
}
