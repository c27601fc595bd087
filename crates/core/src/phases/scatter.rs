//! Scatter phase: current deposition with ghost tables and coalescing.
//!
//! Paper Figure 3 (`Scatter()`): each particle adds `weight * charge`
//! contributions to its four vertex grid points.  Contributions to
//! vertices inside the rank's own block go straight into the local
//! current grids; off-block contributions are deduplicated in the ghost
//! table and coalesced into a single message per owning rank.  The
//! delivery half applies incoming ghost contributions and records who
//! sent which vertices (`ghost_serving`) — the gather phase answers along
//! exactly those lists.

use pic_machine::{Outbox, PhaseKind, SpmdEngine, SpmdError};
use pic_particles::push::gamma_of;
use pic_particles::Cic;

use crate::costs;
use crate::messages::GhostCurrents;
use crate::phases::PhaseEnv;
use crate::state::RankState;

/// Run one scatter superstep.
pub fn run<E: SpmdEngine<RankState>>(machine: &mut E, env: &PhaseEnv) -> Result<(), SpmdError> {
    let (nx, ny) = (env.cfg.nx, env.cfg.ny);
    let (dx, dy) = (env.cfg.dx, env.cfg.dy);
    let layout = env.layout;
    machine.superstep(
        PhaseKind::Scatter,
        move |_r, st, ctx, ob: &mut Outbox<GhostCurrents>| {
            st.currents.clear();
            st.ghost_serving.clear();
            let RankState {
                particles,
                currents,
                ghost,
                rect,
                ..
            } = st;
            let q = particles.charge;
            let ghost_cost = ghost.add_cost();
            let (w, h) = (rect.w, rect.h);
            let jx = currents.jx.as_mut_slice();
            let jy = currents.jy.as_mut_slice();
            let jz = currents.jz.as_mut_slice();
            for i in 0..particles.len() {
                let u = [particles.ux[i], particles.uy[i], particles.uz[i]];
                let gamma = gamma_of(u);
                let v = [u[0] / gamma, u[1] / gamma, u[2] / gamma];
                let cic = Cic::new(particles.x[i], particles.y[i], dx, dy, nx, ny);
                ctx.charge_ops(4.0 * costs::SCATTER_VERTEX);
                // Interior cell: all four vertices are in the block and
                // none wraps, so they sit at four fixed flat offsets.
                let (lx, ly) = (cic.ix.wrapping_sub(rect.x0), cic.iy.wrapping_sub(rect.y0));
                if lx < w - 1 && ly < h - 1 {
                    // one bounds check per component, then fixed offsets
                    let base = ly * w + lx;
                    let span = base..base + w + 2;
                    let (jx, jy, jz) =
                        (&mut jx[span.clone()], &mut jy[span.clone()], &mut jz[span]);
                    for (wk, o) in cic.w.into_iter().zip([0, 1, w, w + 1]) {
                        jx[o] += q * v[0] * wk;
                        jy[o] += q * v[1] * wk;
                        jz[o] += q * v[2] * wk;
                    }
                } else {
                    for (wk, (cx, cy)) in cic.w.into_iter().zip(cic.corners(nx, ny)) {
                        let val = [q * v[0] * wk, q * v[1] * wk, q * v[2] * wk];
                        if rect.contains(cx, cy) {
                            let o = (cy - rect.y0) * w + cx - rect.x0;
                            jx[o] += val[0];
                            jy[o] += val[1];
                            jz[o] += val[2];
                        } else {
                            ghost.add(cx as u32, cy as u32, val);
                            ctx.charge_ops(ghost_cost);
                        }
                    }
                }
            }
            for (owner, entries) in st.ghost.drain_by_owner(layout) {
                ctx.charge_ops(entries.len() as f64 * costs::GHOST_APPLY);
                ob.send(owner, GhostCurrents(entries));
            }
        },
        move |_r, st, ctx, inbox| {
            let nxu = nx as u32;
            for (from, GhostCurrents(entries)) in inbox {
                ctx.charge_ops(entries.len() as f64 * costs::GHOST_APPLY);
                st.ghost_serving
                    .push((from, entries.iter().map(|e| e.0).collect()));
                for (key, val) in entries {
                    let (gx, gy) = ((key % nxu) as usize, (key / nxu) as usize);
                    let (lx, ly) = (gx - st.rect.x0, gy - st.rect.y0);
                    st.currents.jx[(lx, ly)] += val[0];
                    st.currents.jy[(lx, ly)] += val[1];
                    st.currents.jz[(lx, ly)] += val[2];
                }
            }
        },
    )
}
