//! Heat3d: explicit finite-difference solver for the 3-D heat equation.
//!
//! `∂u/∂t = κ ∇²u` on the unit cube with Dirichlet boundaries, central
//! differences in space and forward Euler in time (the Heat3d code of the
//! paper's case study, Section IV-A). The solve runs on the caller's
//! thread; the paper's MPI decomposition of the same solve is
//! [`crate::heat3d_dist`], on `lrm-parallel`'s thread ranks.
//!
//! Three model variants mirror the paper:
//! * **full** — the 3-D solve ([`Heat3d::solve`]).
//! * **projected reduced model** — the Z dimension collapsed, giving the
//!   2-D equation the paper derives ([`Heat2d::solve`]); Table II pairs
//!   the two.
//! * **DuoModel reduced model** — the same 3-D solve at a fraction of the
//!   resolution ([`Heat3d::coarse`]).

use crate::field::Field;
use lrm_compress::Shape;

/// Configuration of the 3-D solve.
#[derive(Debug, Clone, Copy)]
pub struct Heat3d {
    /// Points along each edge (paper: 192).
    pub n: usize,
    /// Thermal conductivity κ.
    pub kappa: f64,
    /// Number of time steps (paper: 50 000).
    pub steps: usize,
    /// Hot-boundary temperature.
    pub t_hot: f64,
    /// Initial interior temperature.
    pub t_cold: f64,
    /// Fraction of the stability-limited time step actually used. The
    /// paper derives Δt from `(min h)³ / 8κ`, which sits ~250× below the
    /// h²/6κ stability limit — so its 50 000 steps integrate a *short*
    /// physical time and the initial fine-scale structure survives into
    /// every snapshot. 1.0 reproduces a standard stability-bound solver.
    pub dt_factor: f64,
    /// Amplitude of the z-coherent initial temperature texture (a
    /// patterned heat source): multi-scale (x, y) structure replicated
    /// along z. Because the heat equation is linear and the boundary
    /// conditions are z-uniform, this component evolves identically in
    /// every plane — the latent reduced model one-base extracts.
    pub texture: f64,
}

impl Default for Heat3d {
    fn default() -> Self {
        Self {
            n: 48,
            kappa: 1.0,
            steps: 500,
            t_hot: 100.0,
            t_cold: 0.0,
            dt_factor: 1.0,
            texture: 15.0,
        }
    }
}

/// Deterministic multi-scale (x, y) texture in unit coordinates —
/// the patterned initial temperature both Heat3d models share.
fn texture_at(fx: f64, fy: f64) -> f64 {
    // Wavelengths from ~0.4 down to ~0.08 of the domain.
    (fx * 15.7).sin() * (fy * 12.3).cos()
        + 0.8 * (fx * 31.4 + 1.3).sin() * (fy * 27.2 + 0.7).sin()
        + 0.6 * (fx * 52.9 + 2.1).cos() * (fy * 47.1 + 1.9).sin()
        + 0.4 * (fx * 78.5 + 0.4).sin() * (fy * 71.3 + 2.6).cos()
}

/// One forward-Euler step over the interior points of every n×n plane of
/// `u` but the first and the last, written into `next`; `coef` is
/// `κ·dt/h²`. Nothing writes the x and y side walls, so they keep the
/// Dirichlet `t_hot` of the initial condition; the z faces are left to
/// the caller. The serial and the distributed solver both step through
/// here, so they agree bit for bit.
pub(crate) fn step_interior(u: &[f64], next: &mut [f64], n: usize, coef: f64) {
    let plane = n * n;
    for z in 1..(u.len() / plane).saturating_sub(1) {
        for y in 1..n - 1 {
            for x in 1..n - 1 {
                let i = z * plane + y * n + x;
                let c = u[i];
                let lap = u[i + 1] + u[i - 1] + u[i + n] + u[i - n] + u[i + plane] + u[i - plane]
                    - 6.0 * c;
                next[i] = c + coef * lap;
            }
        }
    }
}

impl Heat3d {
    /// Stable time step: `h² / (6κ)` scaled by a safety factor (the 3-D
    /// CFL-like stability condition for forward Euler).
    pub fn stable_dt(&self) -> f64 {
        let h = 1.0 / (self.n.max(2) - 1) as f64;
        h * h / (6.0 * self.kappa) * 0.9
    }

    /// The time step actually integrated: `stable_dt * dt_factor`.
    pub fn dt(&self) -> f64 {
        self.stable_dt() * self.dt_factor.clamp(1e-6, 1.0)
    }

    /// Initial condition: cold interior, hot side walls (the four x/y
    /// faces), a hot spherical inclusion at the center, plus a
    /// constellation of small hot spots. The z faces are adiabatic
    /// (Neumann), so the solution is nearly uniform along z away from the
    /// inclusions — which makes the mid z-plane the symmetry plane the
    /// paper identifies as the natural one-base reduced model. The small
    /// spots have a *physical* radius of ~1/20 of the domain, so a
    /// 4×-coarser reduced run under-resolves them — the fine-scale
    /// physics a low-resolution DuoModel companion discards (Section
    /// II-B's caveat).
    fn init(&self) -> Vec<f64> {
        let n = self.n;
        let shape = Shape::d3(n, n, n);
        let mut u = vec![self.t_cold; shape.len()];
        for z in 0..n {
            for k in 0..n {
                u[shape.idx(0, k, z)] = self.t_hot;
                u[shape.idx(n - 1, k, z)] = self.t_hot;
                u[shape.idx(k, 0, z)] = self.t_hot;
                u[shape.idx(k, n - 1, z)] = self.t_hot;
            }
        }
        // Sphere centers in unit coordinates: one large central inclusion
        // and six small off-center spots.
        let spheres: [(f64, f64, f64, f64); 7] = [
            (0.50, 0.50, 0.50, 1.0 / 6.0),
            (0.25, 0.25, 0.60, 0.05),
            (0.75, 0.30, 0.40, 0.05),
            (0.30, 0.75, 0.70, 0.05),
            (0.70, 0.70, 0.25, 0.05),
            (0.20, 0.55, 0.30, 0.05),
            (0.60, 0.20, 0.75, 0.05),
        ];
        let scale = (n as f64 - 1.0).max(1.0);
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let (fx, fy, fz) = (x as f64 / scale, y as f64 / scale, z as f64 / scale);
                    let i = shape.idx(x, y, z);
                    let interior = x > 0 && x < n - 1 && y > 0 && y < n - 1;
                    if interior {
                        u[i] += self.texture * texture_at(fx, fy);
                    }
                    for &(cx, cy, cz, r) in &spheres {
                        let d2 = (fx - cx).powi(2) + (fy - cy).powi(2) + (fz - cz).powi(2);
                        if d2 < r * r {
                            u[i] = self.t_hot;
                            break;
                        }
                    }
                }
            }
        }
        u
    }

    /// Runs the solve to completion and returns the final temperature
    /// field.
    pub fn solve(&self) -> Field {
        if self.steps == 0 {
            return self.solve_initial();
        }
        self.snapshots(1).pop().expect("one snapshot requested")
    }

    /// The initial condition as a field (used by the distributed solver
    /// and handy for inspecting the texture).
    pub fn solve_initial(&self) -> Field {
        let n = self.n;
        Field::new(
            format!("heat3d/init/n={n}"),
            self.init(),
            Shape::d3(n, n, n),
        )
    }

    /// Runs the solve, capturing `count` snapshots uniformly spaced over
    /// the simulation lifetime (the paper's experiments use 20 outputs).
    pub fn snapshots(&self, count: usize) -> Vec<Field> {
        assert!(count >= 1, "heat3d: need at least one snapshot");
        let n = self.n;
        let shape = Shape::d3(n, n, n);
        let h = 1.0 / (n.max(2) - 1) as f64;
        let dt = self.dt();
        let coef = self.kappa * dt / (h * h);

        let mut u = self.init();
        let mut next = u.clone();
        let mut out = Vec::with_capacity(count);
        let plane = n * n;

        for step in 1..=self.steps {
            step_interior(&u, &mut next, n, coef);
            // Adiabatic (Neumann) z faces: copy the adjacent interior plane.
            let (lo, rest) = next.split_at_mut(plane);
            lo.copy_from_slice(&rest[..plane]);
            let start_top = (n - 2) * plane;
            let (body, top) = next.split_at_mut((n - 1) * plane);
            top.copy_from_slice(&body[start_top..start_top + plane]);
            std::mem::swap(&mut u, &mut next);
            // Snapshot on the uniform schedule (always include the end).
            let due = step * count / self.steps;
            let prev_due = (step - 1) * count / self.steps;
            if due > prev_due {
                out.push(Field::new(
                    format!("heat3d/full/n={n}/step={step}"),
                    u.clone(),
                    shape,
                ));
            }
        }
        if out.len() < count {
            out.push(Field::new(
                format!("heat3d/full/n={n}/step={}", self.steps),
                u,
                shape,
            ));
        }
        out
    }

    /// The DuoModel-style reduced model: the same physics at `1/factor`
    /// resolution (the paper's Heat3d reduced model by grid scaling,
    /// 192³ → 48³ is `factor = 4`).
    pub fn coarse(&self, factor: usize) -> Heat3d {
        Heat3d {
            n: (self.n / factor).max(4),
            ..*self
        }
    }

    /// The projected 2-D reduced model of the same setup (Section IV-A:
    /// collapse Z, enlarge the time step to the 2-D stability bound).
    pub fn projected(&self) -> Heat2d {
        Heat2d {
            n: self.n,
            kappa: self.kappa,
            texture: self.texture,
            // The paper integrates the reduced model to the same physical
            // time with far fewer steps (50 000 → 260) thanks to the
            // larger stable dt; mirror the ratio.
            steps: (self.steps as f64 * self.dt()
                / Heat2d {
                    n: self.n,
                    kappa: self.kappa,
                    texture: self.texture,
                    steps: 1,
                    t_hot: self.t_hot,
                    t_cold: self.t_cold,
                }
                .stable_dt())
            .ceil()
            .max(1.0) as usize,
            t_hot: self.t_hot,
            t_cold: self.t_cold,
        }
    }
}

/// The projection-based 2-D reduced model of [`Heat3d`].
#[derive(Debug, Clone, Copy)]
pub struct Heat2d {
    /// Points along each edge.
    pub n: usize,
    /// Thermal conductivity κ.
    pub kappa: f64,
    /// Texture amplitude (matches the parent 3-D model's).
    pub texture: f64,
    /// Number of time steps.
    pub steps: usize,
    /// Hot-boundary temperature.
    pub t_hot: f64,
    /// Initial interior temperature.
    pub t_cold: f64,
}

impl Heat2d {
    /// Stable time step for the 2-D forward-Euler update.
    pub fn stable_dt(&self) -> f64 {
        let h = 1.0 / (self.n.max(2) - 1) as f64;
        h * h / (4.0 * self.kappa) * 0.9
    }

    /// Runs the 2-D solve; the initial condition is the mid-plane of the
    /// 3-D initial condition (hot disc at center; the hot z=0 face of the
    /// full model has no 2-D counterpart).
    pub fn solve(&self) -> Field {
        let n = self.n;
        let shape = Shape::d2(n, n);
        let h = 1.0 / (n.max(2) - 1) as f64;
        let dt = self.stable_dt();
        let coef = self.kappa * dt / (h * h);

        let mut u = vec![self.t_cold; shape.len()];
        for k in 0..n {
            u[shape.idx(0, k, 0)] = self.t_hot;
            u[shape.idx(n - 1, k, 0)] = self.t_hot;
            u[shape.idx(k, 0, 0)] = self.t_hot;
            u[shape.idx(k, n - 1, 0)] = self.t_hot;
        }
        let c = (n as f64 - 1.0) / 2.0;
        let r2 = (n as f64 / 6.0).powi(2);
        let scale = (n as f64 - 1.0).max(1.0);
        for y in 1..n - 1 {
            for x in 1..n - 1 {
                let i = shape.idx(x, y, 0);
                u[i] += self.texture * texture_at(x as f64 / scale, y as f64 / scale);
                let d2 = (x as f64 - c).powi(2) + (y as f64 - c).powi(2);
                if d2 < r2 {
                    u[i] = self.t_hot;
                }
            }
        }
        let mut next = u.clone();
        for _ in 0..self.steps {
            for y in 1..n - 1 {
                for x in 1..n - 1 {
                    let i = shape.idx(x, y, 0);
                    let lap = u[i + 1] + u[i - 1] + u[i + n] + u[i - n] - 4.0 * u[i];
                    next[i] = u[i] + coef * lap;
                }
            }
            std::mem::swap(&mut u, &mut next);
        }
        Field::new(format!("heat3d/projected2d/n={n}"), u, shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Heat3d {
        Heat3d {
            n: 16,
            steps: 50,
            ..Default::default()
        }
    }

    #[test]
    fn temperatures_stay_within_initial_bounds() {
        // Discrete maximum principle: explicit stable heat steps cannot
        // create new extrema.
        let f = tiny().solve();
        let (lo, hi) = f.min_max();
        assert!(lo >= -1e-9 && hi <= 100.0 + 1e-9, "({lo}, {hi})");
    }

    #[test]
    fn heat_diffuses_from_hot_walls() {
        let cfg = tiny();
        let f = cfg.solve();
        // Just inside a hot wall, interior points must have warmed up.
        let v = f.at(1, 8, 8);
        assert!(v > 1.0, "near-wall temperature {v}");
        // Points near the domain center (away from the inclusion) stay
        // cooler than the walls.
        assert!(f.at(4, 8, 8) < 100.0);
    }

    #[test]
    fn solution_is_nearly_uniform_along_z() {
        // The property one-base exploits: with adiabatic z faces the
        // field barely varies along z away from the hot spots.
        let f = Heat3d {
            n: 24,
            steps: 300,
            ..Default::default()
        }
        .solve();
        let mid = 12;
        let mut worst: f64 = 0.0;
        for z in 2..22 {
            let d = (f.at(2, 2, z) - f.at(2, 2, mid)).abs();
            worst = worst.max(d);
        }
        assert!(worst < 5.0, "z variation {worst}");
    }

    #[test]
    fn snapshots_are_ordered_and_counted() {
        let snaps = tiny().snapshots(5);
        assert_eq!(snaps.len(), 5);
        // Energy (sum) decreases toward steady state with cold walls?
        // Not necessarily monotone with a hot boundary; just check shapes.
        for s in &snaps {
            assert_eq!(s.shape, Shape::d3(16, 16, 16));
        }
    }

    #[test]
    fn stable_dt_scales_with_resolution() {
        let a = Heat3d {
            n: 16,
            ..Default::default()
        };
        let b = Heat3d {
            n: 32,
            ..Default::default()
        };
        assert!(a.stable_dt() > b.stable_dt());
    }

    #[test]
    fn projected_model_takes_fewer_steps_with_larger_dt() {
        let full = Heat3d {
            n: 32,
            steps: 1000,
            ..Default::default()
        };
        let red = full.projected();
        assert!(red.steps < full.steps);
        assert!(red.stable_dt() > full.stable_dt());
    }

    #[test]
    fn projected_solve_resembles_mid_plane() {
        // The paper's key observation: the full model's mid-plane is close
        // to the 2-D reduced model. "Close" here is statistical, not
        // pointwise; compare value ranges.
        let full = Heat3d {
            n: 24,
            steps: 200,
            ..Default::default()
        };
        let f3 = full.solve();
        let plane = 24 * 24;
        let mid = Field::new(
            "mid",
            f3.data[12 * plane..13 * plane].to_vec(),
            Shape::d2(24, 24),
        );
        let f2 = full.projected().solve();
        let (lo3, hi3) = mid.min_max();
        let (lo2, hi2) = f2.min_max();
        assert!((hi3 - hi2).abs() <= 100.0 && (lo3 - lo2).abs() <= 100.0);
        assert!(hi2 > lo2, "2-D solve should have structure");
    }

    #[test]
    fn coarse_model_shrinks_grid() {
        let full = Heat3d {
            n: 48,
            ..Default::default()
        };
        assert_eq!(full.coarse(4).n, 12);
        assert_eq!(full.coarse(100).n, 4);
    }

    #[test]
    fn solver_is_deterministic() {
        let a = tiny().solve();
        let b = tiny().solve();
        assert_eq!(a.data, b.data);
    }
}
