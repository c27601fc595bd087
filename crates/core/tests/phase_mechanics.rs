//! Microscopic phase tests: hand-placed particles on tiny machines, with
//! the exact ghost messages, deposits and interpolations checked against
//! analytic values, and the interior-cell fast paths of scatter, gather
//! and push checked bit for bit against a per-corner reference.

use std::collections::HashMap;

use pic_core::costs;
use pic_core::messages::{GhostCurrents, GhostFields};
use pic_core::phases::{self, PhaseEnv};
use pic_core::state::RankState;
use pic_core::{ParallelPicSim, SimConfig};
use pic_field::{BlockLayout, HaloPlan, MaxwellSolver};
use pic_index::{CellIndexer, IndexScheme};
use pic_machine::{Machine, MachineConfig, Outbox, PhaseKind, SpmdEngine};
use pic_particles::push::{boris_push, gamma_of, BorisStep};
use pic_particles::{Cic, ParticleDistribution};
use pic_partition::PolicyKind;

/// A 2-rank, 8x4 mesh configuration with few particles: rank blocks are
/// the left and right 4x4 halves.
fn two_rank_cfg() -> SimConfig {
    SimConfig {
        nx: 8,
        ny: 4,
        particles: 4,
        distribution: ParticleDistribution::Uniform,
        machine: MachineConfig::cm5(2),
        policy: PolicyKind::Static,
        thermal_u: 0.0,
        particle_charge: 1.0,
        seed: 7,
        ..SimConfig::paper_default()
    }
}

#[test]
fn interior_particle_generates_no_scatter_traffic() {
    // all particles rest in block interiors -> no ghost vertices at all
    let mut sim = ParallelPicSim::new(two_rank_cfg());
    // place particles well inside blocks (cells (1,1) and (5,1)), at rest
    for st in sim.ranks_mut() {
        let rect = st.rect;
        st.particles
            .x
            .iter_mut()
            .for_each(|x| *x = rect.x0 as f64 + 1.5);
        st.particles.y.iter_mut().for_each(|y| *y = 1.5);
        st.particles.ux.iter_mut().for_each(|u| *u = 0.0);
        st.particles.uy.iter_mut().for_each(|u| *u = 0.0);
        st.particles.uz.iter_mut().for_each(|u| *u = 0.0);
    }
    let rec = sim.step();
    assert_eq!(rec.scatter_max_msgs_sent, 0, "unexpected ghost messages");
    assert_eq!(rec.scatter_max_bytes_sent, 0);
}

#[test]
fn boundary_particle_scatters_across_the_block_edge() {
    let mut sim = ParallelPicSim::new(two_rank_cfg());
    // one moving particle in the cell just left of the rank boundary
    // (cell (3,1) has vertices at x=3 and x=4; x=4 belongs to rank 1)
    for (r, st) in sim.ranks_mut().iter_mut().enumerate() {
        st.particles.x.clear();
        st.particles.y.clear();
        st.particles.ux.clear();
        st.particles.uy.clear();
        st.particles.uz.clear();
        st.keys.clear();
        if r == 0 {
            st.particles.push(3.5, 1.5, 0.0, 0.0, 1.0);
            st.keys.push(0);
        }
    }
    let rec = sim.step();
    // rank 0 must send exactly one coalesced message (to rank 1) carrying
    // the two vertices at x=4 (y=1 and y=2)
    assert_eq!(rec.scatter_max_msgs_sent, 1);
    assert_eq!(
        rec.scatter_max_bytes_sent,
        2 * pic_core::costs::GHOST_CURRENT_BYTES as u64,
        "expected exactly two ghost vertices on the wire"
    );
}

#[test]
fn scatter_deposit_matches_cic_weights_globally() {
    // total deposited Jz must equal sum over particles of q * vz
    let cfg = SimConfig {
        particles: 64,
        thermal_u: 0.3,
        ..two_rank_cfg()
    };
    let mut sim = ParallelPicSim::new(cfg);
    // expectation from the *pre-step* velocities: scatter runs before push
    let mut expect = 0.0;
    for st in sim.machine().ranks() {
        for i in 0..st.particles.len() {
            let u = [st.particles.ux[i], st.particles.uy[i], st.particles.uz[i]];
            let gamma = pic_particles::push::gamma_of(u);
            expect += st.particles.charge * u[2] / gamma;
        }
    }
    sim.step();
    let mut total_jz = 0.0;
    for st in sim.machine().ranks() {
        total_jz += st.currents.jz.as_slice().iter().sum::<f64>();
    }
    assert!(
        (total_jz - expect).abs() < 1e-9 * expect.abs().max(1.0),
        "deposited {total_jz} vs expected {expect}"
    );
}

#[test]
fn gather_reproduces_uniform_fields_exactly() {
    // set Ez = 5 everywhere; every particle must gather exactly 5
    // particles are loaded at rest (thermal_u = 0) so J = 0 and a
    // spatially uniform Ez is a stationary solution: one full step leaves
    // the field at 5 and the gather must see exactly 5 at every particle.
    let mut sim = ParallelPicSim::new(two_rank_cfg());
    for st in sim.ranks_mut() {
        st.fields.ez.fill(5.0);
    }
    sim.step();
    for st in sim.machine().ranks() {
        for e in &st.e_at {
            assert!((e[2] - 5.0).abs() < 1e-12, "gathered {e:?}");
        }
    }
}

#[test]
fn field_solve_matches_sequential_reference_per_step() {
    // after one iteration with identical inputs, each rank's interior
    // fields must equal the sequential solver's on the same cells
    let cfg = SimConfig {
        particles: 32,
        thermal_u: 0.4,
        ..two_rank_cfg()
    };
    let mut par = ParallelPicSim::new(cfg.clone());
    let mut seq = pic_core::SequentialPicSim::new(cfg);
    par.step();
    seq.step();
    for st in par.machine().ranks() {
        for ly in 0..st.rect.h {
            for lx in 0..st.rect.w {
                let (gx, gy) = (st.rect.x0 + lx, st.rect.y0 + ly);
                let pv = st.fields.ez[(lx + 1, ly + 1)];
                let sv = seq.fields().ez[(gx, gy)];
                assert!(
                    (pv - sv).abs() < 1e-9,
                    "Ez mismatch at ({gx},{gy}): {pv} vs {sv}"
                );
            }
        }
    }
}

/// A hand-built machine: one layout, the phase substrates, and rank
/// states holding hand-placed particles.
struct Fixture {
    cfg: SimConfig,
    layout: BlockLayout,
    halo: HaloPlan,
    indexer: Box<dyn CellIndexer>,
    solver: MaxwellSolver,
}

impl Fixture {
    fn new(cfg: SimConfig, layout: BlockLayout) -> Self {
        assert_eq!(layout.num_ranks(), cfg.machine.ranks);
        Self {
            halo: HaloPlan::build(&layout),
            indexer: IndexScheme::RowMajor.build(cfg.nx, cfg.ny),
            solver: MaxwellSolver::new(cfg.dt, cfg.dx, cfg.dy),
            cfg,
            layout,
        }
    }

    fn env(&self) -> PhaseEnv<'_> {
        PhaseEnv {
            cfg: &self.cfg,
            layout: &self.layout,
            halo: &self.halo,
            indexer: self.indexer.as_ref(),
            solver: &self.solver,
        }
    }

    /// Particles in every cell of the mesh, so every block interior, block
    /// edge and the periodic seam (`ix = nx-1`, `iy = ny-1`) is covered:
    /// one on the lower-left vertex, one inside, one just below the upper
    /// cell edges.  The first goes to the cell's owner, the others to
    /// other ranks, so some particles are far from the block they deposit
    /// into.  Momenta are large enough that seam particles cross the
    /// periodic boundary in one push, in both directions.
    fn machine(&self) -> Machine<RankState> {
        let cfg = &self.cfg;
        let p = self.layout.num_ranks();
        let mut states: Vec<RankState> = (0..p)
            .map(|r| RankState::new(r, self.layout.local_rect(r), cfg))
            .collect();
        let below_one = 1.0f64.next_down();
        let offsets = [(0.0, 0.0), (0.3, 0.7), (below_one, below_one)];
        for cy in 0..cfg.ny {
            for cx in 0..cfg.nx {
                for (j, &(fx, fy)) in offsets.iter().enumerate() {
                    let s = (cx * 7 + cy * 3 + j) as f64;
                    let x = ((cx as f64 + fx) * cfg.dx).min(cfg.lx().next_down());
                    let y = ((cy as f64 + fy) * cfg.dy).min(cfg.ly().next_down());
                    let r = (self.layout.owner_of(cx, cy) + j) % p;
                    let st = &mut states[r];
                    st.particles
                        .push(x, y, 0.9 * s.sin(), 0.8 * s.cos(), 0.2 * (0.5 * s).sin());
                    st.keys.push(0);
                }
            }
        }
        // a smooth, nonzero field pattern, consistent across the halo ring
        for st in &mut states {
            let (w, h) = (st.rect.w + 2, st.rect.h + 2);
            for py in 0..h {
                for px in 0..w {
                    let gx = (st.rect.x0 + px + cfg.nx - 1) % cfg.nx;
                    let gy = (st.rect.y0 + py + cfg.ny - 1) % cfg.ny;
                    let a = gx as f64 * 0.7 + gy as f64 * 1.3;
                    let f = &mut st.fields;
                    f.ex[(px, py)] = a.sin();
                    f.ey[(px, py)] = a.cos();
                    f.ez[(px, py)] = 0.5 * (2.0 * a).sin();
                    f.bx[(px, py)] = 0.3 * (3.0 * a).cos();
                    f.by[(px, py)] = 0.2 * a.sin() * a.cos();
                    f.bz[(px, py)] = 1.0 + 0.1 * a;
                }
            }
        }
        Machine::new(cfg.machine, cfg.exec_mode(), states)
    }
}

/// The corners of `cic` by the `%` formula.
fn corners_mod(cic: &Cic, nx: usize, ny: usize) -> [(usize, usize); 4] {
    let (xp, yp) = ((cic.ix + 1) % nx, (cic.iy + 1) % ny);
    [(cic.ix, cic.iy), (xp, cic.iy), (cic.ix, yp), (xp, yp)]
}

/// Periodic wrap by `fmod` for every input.
fn wrap_fmod(x: f64, l: f64) -> f64 {
    let mut w = x % l;
    if w < 0.0 {
        w += l;
    }
    if w >= l {
        w = 0.0;
    }
    w
}

/// Scatter with a per-corner loop: `rect.contains`, `Grid2` indexing and
/// `%` corners for every vertex of every particle.
fn reference_scatter(m: &mut Machine<RankState>, fx: &Fixture) {
    let (nx, ny, dx, dy) = (fx.cfg.nx, fx.cfg.ny, fx.cfg.dx, fx.cfg.dy);
    let layout = &fx.layout;
    m.superstep(
        PhaseKind::Scatter,
        move |_r, st, ctx, ob: &mut Outbox<GhostCurrents>| {
            st.currents.clear();
            st.ghost_serving.clear();
            let q = st.particles.charge;
            let ghost_cost = st.ghost.add_cost();
            for i in 0..st.particles.len() {
                let u = [st.particles.ux[i], st.particles.uy[i], st.particles.uz[i]];
                let gamma = gamma_of(u);
                let v = [u[0] / gamma, u[1] / gamma, u[2] / gamma];
                let cic = Cic::new(st.particles.x[i], st.particles.y[i], dx, dy, nx, ny);
                ctx.charge_ops(4.0 * costs::SCATTER_VERTEX);
                for (k, (cx, cy)) in corners_mod(&cic, nx, ny).into_iter().enumerate() {
                    let w = cic.w[k];
                    let val = [q * v[0] * w, q * v[1] * w, q * v[2] * w];
                    if st.rect.contains(cx, cy) {
                        let (lx, ly) = (cx - st.rect.x0, cy - st.rect.y0);
                        st.currents.jx[(lx, ly)] += val[0];
                        st.currents.jy[(lx, ly)] += val[1];
                        st.currents.jz[(lx, ly)] += val[2];
                    } else {
                        st.ghost.add(cx as u32, cy as u32, val);
                        ctx.charge_ops(ghost_cost);
                    }
                }
            }
            for (owner, entries) in st.ghost.drain_by_owner(layout) {
                ctx.charge_ops(entries.len() as f64 * costs::GHOST_APPLY);
                ob.send(owner, GhostCurrents(entries));
            }
        },
        move |_r, st, ctx, inbox| {
            for (from, GhostCurrents(entries)) in inbox {
                ctx.charge_ops(entries.len() as f64 * costs::GHOST_APPLY);
                st.ghost_serving
                    .push((from, entries.iter().map(|e| e.0).collect()));
                for (key, val) in entries {
                    let (gx, gy) = (key as usize % nx, key as usize / nx);
                    let (lx, ly) = (gx - st.rect.x0, gy - st.rect.y0);
                    st.currents.jx[(lx, ly)] += val[0];
                    st.currents.jy[(lx, ly)] += val[1];
                    st.currents.jz[(lx, ly)] += val[2];
                }
            }
        },
    )
    .unwrap();
}

/// Gather with a per-corner loop over the padded field block (`Grid2`
/// indexing) and a map of the ghost replies.
fn reference_gather(m: &mut Machine<RankState>, fx: &Fixture) {
    let (nx, ny, dx, dy) = (fx.cfg.nx, fx.cfg.ny, fx.cfg.dx, fx.cfg.dy);
    m.superstep(
        PhaseKind::Gather,
        move |_r, st, ctx, ob: &mut Outbox<GhostFields>| {
            for (requester, keys) in &st.ghost_serving {
                ctx.charge_ops(keys.len() as f64 * costs::GHOST_APPLY);
                let entries = keys
                    .iter()
                    .map(|&key| {
                        let (gx, gy) = (key as usize % nx, key as usize / nx);
                        (key, st.fields.at(gx - st.rect.x0 + 1, gy - st.rect.y0 + 1))
                    })
                    .collect();
                ob.send(*requester, GhostFields(entries));
            }
        },
        move |_r, st, ctx, inbox| {
            let ghosts: HashMap<u32, [f64; 6]> = inbox
                .into_iter()
                .flat_map(|(_, GhostFields(e))| e)
                .collect();
            st.e_at.clear();
            st.b_at.clear();
            for i in 0..st.particles.len() {
                let cic = Cic::new(st.particles.x[i], st.particles.y[i], dx, dy, nx, ny);
                ctx.charge_ops(4.0 * costs::GATHER_VERTEX);
                let mut e = [0.0f64; 3];
                let mut b = [0.0f64; 3];
                for (k, (cx, cy)) in corners_mod(&cic, nx, ny).into_iter().enumerate() {
                    let w = cic.w[k];
                    let vals = if st.rect.contains(cx, cy) {
                        st.fields.at(cx - st.rect.x0 + 1, cy - st.rect.y0 + 1)
                    } else {
                        ghosts[&(cy as u32 * nx as u32 + cx as u32)]
                    };
                    for c in 0..3 {
                        e[c] += w * vals[c];
                        b[c] += w * vals[3 + c];
                    }
                }
                st.e_at.push(e);
                st.b_at.push(b);
            }
        },
    )
    .unwrap();
}

/// Push with one loop that wraps every position through `fmod`.
fn reference_push(m: &mut Machine<RankState>, fx: &Fixture) {
    let (dt, lx, ly) = (fx.cfg.dt, fx.cfg.lx(), fx.cfg.ly());
    m.local_step(PhaseKind::Push, move |_r, st, ctx| {
        let qm = st.particles.qm();
        let n = st.particles.len();
        for i in 0..n {
            let u = [st.particles.ux[i], st.particles.uy[i], st.particles.uz[i]];
            let fields = BorisStep {
                e: st.e_at[i],
                b: st.b_at[i],
            };
            let u2 = boris_push(u, &fields, qm, dt);
            let gamma = gamma_of(u2);
            st.particles.ux[i] = u2[0];
            st.particles.uy[i] = u2[1];
            st.particles.uz[i] = u2[2];
            st.particles.x[i] = wrap_fmod(st.particles.x[i] + u2[0] / gamma * dt, lx);
            st.particles.y[i] = wrap_fmod(st.particles.y[i] + u2[1] / gamma * dt, ly);
        }
        ctx.charge_ops(n as f64 * costs::PUSH_PARTICLE);
    })
    .unwrap();
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits3(v: &[[f64; 3]]) -> Vec<u64> {
    v.iter().flatten().map(|x| x.to_bits()).collect()
}

/// Assert two machines hold bit-identical state for `what`, and that
/// their modeled clocks agree to the bit.
fn assert_same(
    fast: &Machine<RankState>,
    reference: &Machine<RankState>,
    what: &str,
    case: &str,
    view: impl Fn(&RankState) -> Vec<u64>,
) {
    for (a, b) in fast.ranks().iter().zip(reference.ranks()) {
        assert!(
            view(a) == view(b),
            "{case}: {what} differs on rank {} (rect {:?})",
            a.rank,
            a.rect
        );
    }
    assert_eq!(
        fast.elapsed_s().to_bits(),
        reference.elapsed_s().to_bits(),
        "{case}: modeled clock differs after {what}"
    );
}

/// Run scatter, field solve, gather and push through the phase functions
/// and through the per-corner reference, comparing bits after each.
fn check_fast_paths_against_reference(case: &str, cfg: SimConfig, layout: BlockLayout) {
    let fx = Fixture::new(cfg, layout);
    let env = fx.env();
    let (mut fast, mut reference) = (fx.machine(), fx.machine());
    for _ in 0..2 {
        phases::scatter::run(&mut fast, &env).unwrap();
        reference_scatter(&mut reference, &fx);
        assert_same(&fast, &reference, "currents", case, |st| {
            let j = &st.currents;
            [&j.jx, &j.jy, &j.jz]
                .iter()
                .flat_map(|g| bits(g.as_slice()))
                .collect()
        });
        for (a, b) in fast.ranks().iter().zip(reference.ranks()) {
            assert_eq!(a.ghost_serving, b.ghost_serving, "{case}: ghost lists");
        }
        phases::field_solve::run(&mut fast, &env).unwrap();
        phases::field_solve::run(&mut reference, &env).unwrap();
        phases::gather::run(&mut fast, &env).unwrap();
        reference_gather(&mut reference, &fx);
        assert_same(&fast, &reference, "e_at/b_at", case, |st| {
            [bits3(&st.e_at), bits3(&st.b_at)].concat()
        });
        phases::push::run(&mut fast, &env).unwrap();
        reference_push(&mut reference, &fx);
        assert_same(&fast, &reference, "particles", case, |st| {
            let p = &st.particles;
            [&p.x, &p.y, &p.ux, &p.uy, &p.uz]
                .iter()
                .flat_map(|v| bits(v))
                .collect()
        });
    }
}

fn fast_path_cfg(nx: usize, ny: usize, ranks: usize) -> SimConfig {
    SimConfig {
        nx,
        ny,
        particles: 3 * nx * ny,
        machine: MachineConfig::cm5(ranks),
        ..two_rank_cfg()
    }
}

#[test]
fn fast_paths_match_reference_on_multi_cell_blocks() {
    // 4x2 blocks: interiors, all four edges, and the seam between ranks
    check_fast_paths_against_reference(
        "2x2 blocks of 4x2",
        fast_path_cfg(8, 4, 4),
        BlockLayout::new_2d(8, 4, 2, 2),
    );
    // uneven 3/3/2-wide blocks in SFC-like rank order, non-unit cells
    let cfg = SimConfig {
        dx: 0.5,
        dy: 2.0,
        dt: 0.2,
        ..fast_path_cfg(8, 6, 6)
    };
    check_fast_paths_against_reference(
        "3x2 permuted blocks, non-unit cells",
        cfg,
        BlockLayout::new_2d(8, 6, 3, 2).with_block_to_rank(vec![0, 1, 5, 3, 2, 4]),
    );
}

#[test]
fn fast_paths_match_reference_on_one_cell_wide_blocks() {
    // no interior cell exists: every particle takes the per-corner path
    check_fast_paths_against_reference(
        "1x1 blocks",
        fast_path_cfg(8, 4, 32),
        BlockLayout::new_2d(8, 4, 8, 4),
    );
    check_fast_paths_against_reference(
        "1-wide column strips",
        fast_path_cfg(8, 4, 8),
        BlockLayout::new_1d(8, 4, 8),
    );
    check_fast_paths_against_reference(
        "1-tall row strips",
        fast_path_cfg(8, 4, 4),
        BlockLayout::new_2d(8, 4, 1, 4),
    );
}

#[test]
fn fast_paths_match_reference_on_full_width_blocks() {
    // w == nx: the seam vertex at x = 0 is local, reached through the wrap
    check_fast_paths_against_reference(
        "one block",
        fast_path_cfg(8, 4, 1),
        BlockLayout::new_2d(8, 4, 1, 1),
    );
    check_fast_paths_against_reference(
        "full-width strips",
        fast_path_cfg(8, 4, 2),
        BlockLayout::new_2d(8, 4, 1, 2),
    );
}
