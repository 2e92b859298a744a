//! Distributed Heat3d: the solver of [`crate::heat3d`] run across
//! simulated MPI ranks with halo (ghost-plane) exchange.
//!
//! The paper executes Heat3d on 512 Titan ranks (8×8×8); this module runs
//! the identical algorithm on `lrm-parallel`'s thread ranks, decomposing
//! along z: each rank owns a slab, exchanges one ghost plane with each
//! neighbor per step, and the gathered result must match the serial
//! solver bit-for-bit (same arithmetic, same order within each plane).

use crate::field::Field;
use crate::heat3d::{step_interior, Heat3d};
use lrm_compress::Shape;
use lrm_parallel::run_ranks;

/// Tags for the halo exchange.
const TAG_UP: u64 = 100; // data flowing to the rank above (z+)
const TAG_DOWN: u64 = 101; // data flowing to the rank below (z-)

/// Runs the Heat3d solve decomposed over `ranks` z-slabs and reassembles
/// the final field. Produces the same result as [`Heat3d::solve`] (up to
/// floating-point associativity, which this scheme preserves exactly
/// because each cell's update reads the same nine values in the same
/// order).
///
/// # Panics
/// Panics if `ranks` exceeds the number of interior z-planes.
pub fn solve_distributed(cfg: &Heat3d, ranks: usize) -> Field {
    let n = cfg.n;
    assert!(
        ranks >= 1 && ranks <= n.saturating_sub(2).max(1),
        "heat3d_dist: rank count must fit the interior planes"
    );
    let shape = Shape::d3(n, n, n);
    let plane = n * n;
    let h = 1.0 / (n.max(2) - 1) as f64;
    let dt = cfg.dt();
    let coef = cfg.kappa * dt / (h * h);

    // Initial global state comes from the same initializer the serial
    // solver uses (rank 0 could scatter it; sharing it read-only is the
    // in-process equivalent).
    let init = cfg.solve_initial();

    // Split interior planes [1, n-1) into contiguous slabs.
    let z_range = |r: usize| -> (usize, usize) {
        let interior = n - 2;
        (1 + r * interior / ranks, 1 + (r + 1) * interior / ranks)
    };

    let results = run_ranks(ranks, |ctx| {
        let r = ctx.rank();
        let (z0, z1) = z_range(r);
        let nz_local = z1 - z0;
        // Local buffer with one ghost plane on each side.
        let mut local = vec![0.0f64; (nz_local + 2) * plane];
        local[plane..(nz_local + 1) * plane].copy_from_slice(&init.data[z0 * plane..z1 * plane]);
        // Ghost planes start from the initial condition.
        local[..plane].copy_from_slice(&init.data[(z0 - 1) * plane..z0 * plane]);
        local[(nz_local + 1) * plane..].copy_from_slice(&init.data[z1 * plane..(z1 + 1) * plane]);
        let mut next = local.clone();

        for _step in 0..cfg.steps {
            // Interior update over owned planes, between the ghosts.
            step_interior(&local, &mut next, n, coef);
            std::mem::swap(&mut local, &mut next);

            // Halo exchange: send boundary planes, receive ghosts.
            let bottom_owned = local[plane..2 * plane].to_vec();
            let top_owned = local[nz_local * plane..(nz_local + 1) * plane].to_vec();
            if r > 0 {
                ctx.send(r - 1, TAG_DOWN, bottom_owned);
            }
            if r + 1 < ctx.size() {
                ctx.send(r + 1, TAG_UP, top_owned.clone());
            }
            if r > 0 {
                let ghost = ctx.recv(r - 1, TAG_UP);
                local[..plane].copy_from_slice(&ghost);
            } else {
                // Global z = 0 face: adiabatic (copy of first interior).
                let (ghost, rest) = local.split_at_mut(plane);
                ghost.copy_from_slice(&rest[..plane]);
            }
            if r + 1 < ctx.size() {
                let ghost = ctx.recv(r + 1, TAG_DOWN);
                local[(nz_local + 1) * plane..].copy_from_slice(&ghost);
            } else {
                // Global z = n-1 face: adiabatic.
                let start = nz_local * plane;
                let (body, ghost) = local.split_at_mut((nz_local + 1) * plane);
                ghost.copy_from_slice(&body[start..start + plane]);
            }
            // The z-face copies above are the *ghosts*; the serial solver
            // also materializes those faces in the output. Rank 0 and the
            // last rank own those boundary planes implicitly.
        }
        // Return owned planes plus, for the edge ranks, the boundary face.
        let mut out = Vec::new();
        if r == 0 {
            out.extend_from_slice(&local[..plane]); // z = 0 face
        }
        out.extend_from_slice(&local[plane..(nz_local + 1) * plane]);
        if r + 1 == ctx.size() {
            out.extend_from_slice(&local[(nz_local + 1) * plane..]); // z = n-1
        }
        ctx.gather(0, out)
    });

    let mut data = Vec::with_capacity(shape.len());
    for part in results[0].as_ref().expect("root gathered") {
        data.extend_from_slice(part);
    }
    Field::new(format!("heat3d/dist/n={n}/ranks={ranks}"), data, shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Heat3d {
        Heat3d {
            n: 16,
            steps: 30,
            dt_factor: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn distributed_matches_serial_bitwise() {
        let c = cfg();
        let serial = c.solve();
        for ranks in [1usize, 2, 3, 5] {
            let dist = solve_distributed(&c, ranks);
            assert_eq!(dist.shape, serial.shape);
            for (i, (a, b)) in serial.data.iter().zip(&dist.data).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "ranks {ranks}, index {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn zero_step_run_returns_initial_condition() {
        let mut c = cfg();
        c.steps = 0;
        let dist = solve_distributed(&c, 2);
        let serial = c.solve_initial();
        assert_eq!(dist.data, serial.data);
    }

    #[test]
    #[should_panic(expected = "rank count must fit")]
    fn too_many_ranks_is_rejected() {
        solve_distributed(&cfg(), 100);
    }
}
