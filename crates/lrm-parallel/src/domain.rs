//! 3-D block domain decomposition.
//!
//! Maps a global grid onto a `px × py × pz` rank grid, giving each rank a
//! contiguous subdomain (the layout Heat3d uses on 8×8×8 processors in
//! the paper's Table II). The distributed *one-base* scheme uses it to
//! find the ranks that hold the global mid-plane, and the chunk engine
//! to cut a field into z-slabs.

/// A rank's axis-aligned subdomain: half-open index ranges per dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubDomain {
    /// `[start, end)` along x.
    pub x: (usize, usize),
    /// `[start, end)` along y.
    pub y: (usize, usize),
    /// `[start, end)` along z.
    pub z: (usize, usize),
}

impl SubDomain {
    /// Extents of the subdomain.
    pub fn dims(&self) -> [usize; 3] {
        [
            self.x.1 - self.x.0,
            self.y.1 - self.y.0,
            self.z.1 - self.z.0,
        ]
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        let d = self.dims();
        d[0] * d[1] * d[2]
    }

    /// True when the subdomain is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the global plane `z = k` intersects this subdomain.
    pub fn contains_z(&self, k: usize) -> bool {
        self.z.0 <= k && k < self.z.1
    }
}

/// Block decomposition of `global` cells over a `grid` of ranks.
#[derive(Debug, Clone, Copy)]
pub struct Decomposition {
    /// Global grid extents.
    pub global: [usize; 3],
    /// Rank-grid extents.
    pub grid: [usize; 3],
}

impl Decomposition {
    /// Creates a decomposition; every rank-grid extent must divide into
    /// the corresponding global extent sensibly (remainders spread over
    /// the leading ranks).
    pub fn new(global: [usize; 3], grid: [usize; 3]) -> Self {
        for d in 0..3 {
            assert!(grid[d] >= 1, "decomposition: empty rank grid");
            assert!(
                grid[d] <= global[d].max(1),
                "decomposition: more ranks than cells along dim {d}"
            );
        }
        Self { global, grid }
    }

    /// Total ranks.
    pub fn num_ranks(&self) -> usize {
        self.grid[0] * self.grid[1] * self.grid[2]
    }

    /// The rank's coordinates in the rank grid (x fastest).
    pub fn rank_coords(&self, rank: usize) -> [usize; 3] {
        assert!(rank < self.num_ranks(), "decomposition: rank out of range");
        [
            rank % self.grid[0],
            (rank / self.grid[0]) % self.grid[1],
            rank / (self.grid[0] * self.grid[1]),
        ]
    }

    /// 1-D split of `n` cells over `p` ranks: rank `i` gets
    /// `[i*n/p, (i+1)*n/p)` (balanced to within one cell).
    fn split(n: usize, p: usize, i: usize) -> (usize, usize) {
        (i * n / p, (i + 1) * n / p)
    }

    /// The subdomain of `rank`.
    pub fn subdomain(&self, rank: usize) -> SubDomain {
        let c = self.rank_coords(rank);
        SubDomain {
            x: Self::split(self.global[0], self.grid[0], c[0]),
            y: Self::split(self.global[1], self.grid[1], c[1]),
            z: Self::split(self.global[2], self.grid[2], c[2]),
        }
    }

    /// Extracts `rank`'s subdomain from a global row-major field.
    pub fn extract(&self, rank: usize, global_field: &[f64]) -> Vec<f64> {
        let sd = self.subdomain(rank);
        let [gx, gy, _] = self.global;
        let mut out = Vec::with_capacity(sd.len());
        for z in sd.z.0..sd.z.1 {
            for y in sd.y.0..sd.y.1 {
                for x in sd.x.0..sd.x.1 {
                    out.push(global_field[(z * gy + y) * gx + x]);
                }
            }
        }
        out
    }

    /// Writes `rank`'s subdomain data back into a global field.
    pub fn insert(&self, rank: usize, local: &[f64], global_field: &mut [f64]) {
        let sd = self.subdomain(rank);
        assert_eq!(local.len(), sd.len(), "insert: local size mismatch");
        let [gx, gy, _] = self.global;
        let mut i = 0;
        for z in sd.z.0..sd.z.1 {
            for y in sd.y.0..sd.y.1 {
                for x in sd.x.0..sd.x.1 {
                    global_field[(z * gy + y) * gx + x] = local[i];
                    i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subdomains_tile_the_global_grid() {
        let d = Decomposition::new([12, 8, 6], [3, 2, 2]);
        assert_eq!(d.num_ranks(), 12);
        let total: usize = (0..12).map(|r| d.subdomain(r).len()).sum();
        assert_eq!(total, 12 * 8 * 6);
    }

    #[test]
    fn uneven_splits_stay_balanced() {
        let d = Decomposition::new([10, 1, 1], [3, 1, 1]);
        let sizes: Vec<usize> = (0..3).map(|r| d.subdomain(r).dims()[0]).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn extract_insert_roundtrip() {
        let d = Decomposition::new([6, 4, 2], [2, 2, 1]);
        let global: Vec<f64> = (0..48).map(|i| i as f64).collect();
        let mut rebuilt = vec![0.0; 48];
        for r in 0..d.num_ranks() {
            let local = d.extract(r, &global);
            d.insert(r, &local, &mut rebuilt);
        }
        assert_eq!(rebuilt, global);
    }

    #[test]
    #[should_panic(expected = "more ranks than cells")]
    fn rejects_overdecomposition() {
        Decomposition::new([2, 2, 2], [4, 1, 1]);
    }
}
