//! 2½-D electromagnetic field solver.
//!
//! The paper's application is a "relativistic electromagnetic PIC plasma
//! simulation code": Maxwell's equations are advanced on the mesh by
//! finite differences, each grid point reading its four neighbours.  We
//! implement the standard 2½-D reduction (all quantities depend on `x, y`
//! only; vectors keep all three components) with central differences on a
//! collocated grid, normalized units (`c = 1`, `eps0 = 1`):
//!
//! ```text
//! dBx/dt = -dEz/dy            dEx/dt =  dBz/dy - Jx
//! dBy/dt =  dEz/dx            dEy/dt = -dBz/dx - Jy
//! dBz/dt =  dEx/dy - dEy/dx   dEz/dt =  dBy/dx - dBx/dy - Jz
//! ```
//!
//! The update is split B-then-E, so a distributed implementation needs two
//! ghost-ring exchanges per field solve — this is the neighbour
//! communication the paper's field-solve cost formula charges (`4 * tau`
//! per exchange on a 2-D block).
//!
//! Two entry points cover both deployment styles:
//! * [`MaxwellSolver::step_periodic`] — a single global grid with periodic
//!   wrap (the sequential reference code);
//! * [`MaxwellSolver::update_b_padded`] / [`MaxwellSolver::update_e_padded`]
//!   — a rank-local block with a one-cell ghost ring filled by halo
//!   exchange before each half (the parallel code).

use crate::grid2::Grid2;

/// The six field components on one grid.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSet {
    /// Electric field x-component.
    pub ex: Grid2<f64>,
    /// Electric field y-component.
    pub ey: Grid2<f64>,
    /// Electric field z-component.
    pub ez: Grid2<f64>,
    /// Magnetic field x-component.
    pub bx: Grid2<f64>,
    /// Magnetic field y-component.
    pub by: Grid2<f64>,
    /// Magnetic field z-component.
    pub bz: Grid2<f64>,
}

impl FieldSet {
    /// All-zero fields on a `width x height` grid.
    pub fn zeros(width: usize, height: usize) -> Self {
        Self {
            ex: Grid2::zeros(width, height),
            ey: Grid2::zeros(width, height),
            ez: Grid2::zeros(width, height),
            bx: Grid2::zeros(width, height),
            by: Grid2::zeros(width, height),
            bz: Grid2::zeros(width, height),
        }
    }

    /// Grid width.
    pub fn width(&self) -> usize {
        self.ex.width()
    }

    /// Grid height.
    pub fn height(&self) -> usize {
        self.ex.height()
    }

    /// The six components at `(x, y)` as `[Ex, Ey, Ez, Bx, By, Bz]`.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> [f64; 6] {
        [
            self.ex[(x, y)],
            self.ey[(x, y)],
            self.ez[(x, y)],
            self.bx[(x, y)],
            self.by[(x, y)],
            self.bz[(x, y)],
        ]
    }
}

/// Current density components deposited by the scatter phase.
#[derive(Debug, Clone, PartialEq)]
pub struct CurrentSet {
    /// Current density x-component.
    pub jx: Grid2<f64>,
    /// Current density y-component.
    pub jy: Grid2<f64>,
    /// Current density z-component.
    pub jz: Grid2<f64>,
}

impl CurrentSet {
    /// All-zero currents on a `width x height` grid.
    pub fn zeros(width: usize, height: usize) -> Self {
        Self {
            jx: Grid2::zeros(width, height),
            jy: Grid2::zeros(width, height),
            jz: Grid2::zeros(width, height),
        }
    }

    /// Reset all components to zero (start of every scatter phase).
    pub fn clear(&mut self) {
        self.jx.fill(0.0);
        self.jy.fill(0.0);
        self.jz.fill(0.0);
    }
}

/// Finite-difference Maxwell stepper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxwellSolver {
    /// Time step.
    pub dt: f64,
    /// Cell size along x.
    pub dx: f64,
    /// Cell size along y.
    pub dy: f64,
}

/// Central difference of `g` at periodic coordinates, `(d/dx, d/dy)`.
#[inline]
fn grad_periodic(g: &Grid2<f64>, x: usize, y: usize, dx: f64, dy: f64) -> (f64, f64) {
    let (xi, yi) = (x as isize, y as isize);
    let ddx = (g.get_periodic(xi + 1, yi) - g.get_periodic(xi - 1, yi)) / (2.0 * dx);
    let ddy = (g.get_periodic(xi, yi + 1) - g.get_periodic(xi, yi - 1)) / (2.0 * dy);
    (ddx, ddy)
}

/// Central difference of a padded `g` at interior coordinates.
#[inline]
fn grad_padded(g: &Grid2<f64>, x: usize, y: usize, dx: f64, dy: f64) -> (f64, f64) {
    let ddx = (g[(x + 1, y)] - g[(x - 1, y)]) / (2.0 * dx);
    let ddy = (g[(x, y + 1)] - g[(x, y - 1)]) / (2.0 * dy);
    (ddx, ddy)
}

impl MaxwellSolver {
    /// Create a solver, checking the CFL-like stability bound
    /// `dt <= 0.5 * min(dx, dy)` for the collocated central scheme.
    ///
    /// # Panics
    /// Panics on non-positive steps or a CFL violation.
    pub fn new(dt: f64, dx: f64, dy: f64) -> Self {
        assert!(dt > 0.0 && dx > 0.0 && dy > 0.0, "steps must be positive");
        assert!(
            dt <= 0.5 * dx.min(dy) + 1e-12,
            "dt {dt} violates CFL bound {}",
            0.5 * dx.min(dy)
        );
        Self { dt, dx, dy }
    }

    /// Advance B then E on a global periodic grid.
    pub fn step_periodic(&self, f: &mut FieldSet, j: &CurrentSet) {
        self.update_b_periodic(f);
        self.update_e_periodic(f, j);
    }

    /// B update (`dB/dt = -curl E`) on a global periodic grid.
    pub fn update_b_periodic(&self, f: &mut FieldSet) {
        let h = f.height();
        self.update_b_periodic_rows(f, 0, h);
    }

    /// B update restricted to rows `y0..y1` of a global periodic grid —
    /// the strip a rank owns under the replicated-grid baseline's
    /// distributed field solve.
    pub fn update_b_periodic_rows(&self, f: &mut FieldSet, y0: usize, y1: usize) {
        let (w, h) = (f.width(), f.height());
        debug_assert!(y0 <= y1 && y1 <= h);
        let (dt, dx, dy) = (self.dt, self.dx, self.dy);
        let mut bx = f.bx.clone();
        let mut by = f.by.clone();
        let mut bz = f.bz.clone();
        for y in y0..y1 {
            for x in 0..w {
                let (_, dez_dy) = grad_periodic(&f.ez, x, y, dx, dy);
                let (dez_dx, _) = grad_periodic(&f.ez, x, y, dx, dy);
                let (_, dex_dy) = grad_periodic(&f.ex, x, y, dx, dy);
                let (dey_dx, _) = grad_periodic(&f.ey, x, y, dx, dy);
                bx[(x, y)] -= dt * dez_dy;
                by[(x, y)] += dt * dez_dx;
                bz[(x, y)] += dt * (dex_dy - dey_dx);
            }
        }
        f.bx = bx;
        f.by = by;
        f.bz = bz;
    }

    /// E update (`dE/dt = curl B - J`) on a global periodic grid.
    pub fn update_e_periodic(&self, f: &mut FieldSet, j: &CurrentSet) {
        let h = f.height();
        self.update_e_periodic_rows(f, j, 0, h);
    }

    /// E update restricted to rows `y0..y1` of a global periodic grid.
    pub fn update_e_periodic_rows(&self, f: &mut FieldSet, j: &CurrentSet, y0: usize, y1: usize) {
        let (w, h) = (f.width(), f.height());
        debug_assert!(y0 <= y1 && y1 <= h);
        debug_assert_eq!(j.jx.width(), w);
        debug_assert_eq!(j.jx.height(), h);
        let (dt, dx, dy) = (self.dt, self.dx, self.dy);
        let mut ex = f.ex.clone();
        let mut ey = f.ey.clone();
        let mut ez = f.ez.clone();
        for y in y0..y1 {
            for x in 0..w {
                let (dbz_dx, dbz_dy) = grad_periodic(&f.bz, x, y, dx, dy);
                let (dby_dx, _) = grad_periodic(&f.by, x, y, dx, dy);
                let (_, dbx_dy) = grad_periodic(&f.bx, x, y, dx, dy);
                ex[(x, y)] += dt * (dbz_dy - j.jx[(x, y)]);
                ey[(x, y)] += dt * (-dbz_dx - j.jy[(x, y)]);
                ez[(x, y)] += dt * (dby_dx - dbx_dy - j.jz[(x, y)]);
            }
        }
        f.ex = ex;
        f.ey = ey;
        f.ez = ez;
    }

    /// B update on a padded rank-local block.
    ///
    /// Field grids must be `(w+2) x (h+2)` with the E ghost ring filled by
    /// halo exchange; only interior cells `1..=w, 1..=h` are written.
    pub fn update_b_padded(&self, f: &mut FieldSet) {
        let (pw, ph) = (f.width(), f.height());
        assert!(pw > 2 && ph > 2, "padded grid too small");
        let (dt, dx, dy) = (self.dt, self.dx, self.dy);
        let mut bx = f.bx.clone();
        let mut by = f.by.clone();
        let mut bz = f.bz.clone();
        for y in 1..ph - 1 {
            for x in 1..pw - 1 {
                let (dez_dx, dez_dy) = grad_padded(&f.ez, x, y, dx, dy);
                let (_, dex_dy) = grad_padded(&f.ex, x, y, dx, dy);
                let (dey_dx, _) = grad_padded(&f.ey, x, y, dx, dy);
                bx[(x, y)] -= dt * dez_dy;
                by[(x, y)] += dt * dez_dx;
                bz[(x, y)] += dt * (dex_dy - dey_dx);
            }
        }
        f.bx = bx;
        f.by = by;
        f.bz = bz;
    }

    /// E update on a padded rank-local block.
    ///
    /// Field grids must be `(w+2) x (h+2)` with the B ghost ring filled;
    /// the current grids are unpadded `w x h` (currents are purely local
    /// after the scatter phase resolves ghost contributions).
    pub fn update_e_padded(&self, f: &mut FieldSet, j: &CurrentSet) {
        let (pw, ph) = (f.width(), f.height());
        assert!(pw > 2 && ph > 2, "padded grid too small");
        assert_eq!(j.jx.width(), pw - 2, "current grid must be unpadded");
        assert_eq!(j.jx.height(), ph - 2, "current grid must be unpadded");
        let (dt, dx, dy) = (self.dt, self.dx, self.dy);
        let mut ex = f.ex.clone();
        let mut ey = f.ey.clone();
        let mut ez = f.ez.clone();
        for y in 1..ph - 1 {
            for x in 1..pw - 1 {
                let (dbz_dx, dbz_dy) = grad_padded(&f.bz, x, y, dx, dy);
                let (dby_dx, _) = grad_padded(&f.by, x, y, dx, dy);
                let (_, dbx_dy) = grad_padded(&f.bx, x, y, dx, dy);
                let (jx, jy, jz) = (
                    j.jx[(x - 1, y - 1)],
                    j.jy[(x - 1, y - 1)],
                    j.jz[(x - 1, y - 1)],
                );
                ex[(x, y)] += dt * (dbz_dy - jx);
                ey[(x, y)] += dt * (-dbz_dx - jy);
                ez[(x, y)] += dt * (dby_dx - dbx_dy - jz);
            }
        }
        f.ex = ex;
        f.ey = ey;
        f.ez = ez;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::field_energy;

    fn solver() -> MaxwellSolver {
        MaxwellSolver::new(0.25, 1.0, 1.0)
    }

    #[test]
    fn vacuum_stays_vacuum() {
        let mut f = FieldSet::zeros(8, 8);
        let j = CurrentSet::zeros(8, 8);
        for _ in 0..10 {
            solver().step_periodic(&mut f, &j);
        }
        assert!(f.ez.as_slice().iter().all(|&v| v == 0.0));
        assert!(f.bz.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn uniform_fields_are_stationary() {
        // Spatially uniform fields have zero curl everywhere (periodic),
        // so nothing changes without currents.
        let mut f = FieldSet::zeros(8, 8);
        f.ez.fill(2.0);
        f.bx.fill(-1.0);
        let j = CurrentSet::zeros(8, 8);
        let before = f.clone();
        solver().step_periodic(&mut f, &j);
        assert_eq!(f, before);
    }

    #[test]
    fn current_drives_electric_field() {
        let mut f = FieldSet::zeros(8, 8);
        let mut j = CurrentSet::zeros(8, 8);
        j.jz.fill(1.0);
        solver().step_periodic(&mut f, &j);
        // dEz/dt = -Jz -> Ez = -dt after one step
        assert!(f.ez.as_slice().iter().all(|&v| (v + 0.25).abs() < 1e-12));
    }

    #[test]
    fn pulse_propagates_outward() {
        let n = 32;
        let mut f = FieldSet::zeros(n, n);
        // Gaussian Ez pulse in the centre
        for y in 0..n {
            for x in 0..n {
                let dx = x as f64 - n as f64 / 2.0;
                let dy = y as f64 - n as f64 / 2.0;
                f.ez[(x, y)] = (-(dx * dx + dy * dy) / 8.0).exp();
            }
        }
        let j = CurrentSet::zeros(n, n);
        let s = solver();
        let probe_before = f.ez[(2, n / 2)].abs();
        for _ in 0..40 {
            s.step_periodic(&mut f, &j);
        }
        let probe_after = f.ez[(2, n / 2)].abs() + f.bx[(2, n / 2)].abs() + f.by[(2, n / 2)].abs();
        assert!(
            probe_after > probe_before + 1e-6,
            "wave did not reach distant probe: {probe_after}"
        );
    }

    #[test]
    fn energy_is_approximately_conserved_in_vacuum() {
        let n = 32;
        let mut f = FieldSet::zeros(n, n);
        for y in 0..n {
            for x in 0..n {
                let dx = x as f64 - n as f64 / 2.0;
                let dy = y as f64 - n as f64 / 2.0;
                f.ez[(x, y)] = (-(dx * dx + dy * dy) / 8.0).exp();
            }
        }
        let j = CurrentSet::zeros(n, n);
        let s = solver();
        let e0 = field_energy(&f, 1.0, 1.0);
        for _ in 0..100 {
            s.step_periodic(&mut f, &j);
        }
        let e1 = field_energy(&f, 1.0, 1.0);
        let drift = (e1 - e0).abs() / e0;
        assert!(drift < 0.05, "energy drift {drift}");
    }

    #[test]
    fn padded_matches_periodic_on_interior() {
        // Single "rank" owning the whole mesh, ghost ring filled by
        // periodic wrap, must agree exactly with the periodic stepper.
        let n = 8;
        let mut fp = FieldSet::zeros(n, n);
        for y in 0..n {
            for x in 0..n {
                fp.ez[(x, y)] = (x * 31 + y * 7) as f64 * 0.01;
                fp.bz[(x, y)] = (x + 2 * y) as f64 * 0.02;
            }
        }
        let j = CurrentSet::zeros(n, n);

        let mut reference = fp.clone();
        solver().step_periodic(&mut reference, &j);

        // build padded copy
        let fill = |src: &Grid2<f64>| {
            let mut dst = Grid2::<f64>::zeros(n + 2, n + 2);
            for y in 0..n + 2 {
                for x in 0..n + 2 {
                    dst[(x, y)] = *src.get_periodic(x as isize - 1, y as isize - 1);
                }
            }
            dst
        };
        let mut padded = FieldSet {
            ex: fill(&fp.ex),
            ey: fill(&fp.ey),
            ez: fill(&fp.ez),
            bx: fill(&fp.bx),
            by: fill(&fp.by),
            bz: fill(&fp.bz),
        };
        solver().update_b_padded(&mut padded);
        // refresh B ghosts from the updated interior before the E half
        for g in [&mut padded.bx, &mut padded.by, &mut padded.bz] {
            let interior = g.clone();
            for y in 0..n + 2 {
                for x in 0..n + 2 {
                    if x == 0 || y == 0 || x == n + 1 || y == n + 1 {
                        let sx = ((x as isize - 1).rem_euclid(n as isize) + 1) as usize;
                        let sy = ((y as isize - 1).rem_euclid(n as isize) + 1) as usize;
                        g[(x, y)] = interior[(sx, sy)];
                    }
                }
            }
        }
        solver().update_e_padded(&mut padded, &j);

        for y in 0..n {
            for x in 0..n {
                assert!(
                    (padded.ez[(x + 1, y + 1)] - reference.ez[(x, y)]).abs() < 1e-12,
                    "ez mismatch at ({x},{y})"
                );
                assert!(
                    (padded.bz[(x + 1, y + 1)] - reference.bz[(x, y)]).abs() < 1e-12,
                    "bz mismatch at ({x},{y})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "CFL")]
    fn cfl_violation_rejected() {
        MaxwellSolver::new(1.0, 1.0, 1.0);
    }
}
