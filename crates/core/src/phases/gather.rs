//! Gather phase: ghost field replies and per-particle interpolation.
//!
//! "The same ghost grid points generated in the scatter phase are used
//! here to carry the necessary off-processor field data.  The
//! communication behavior is just the inverse of the scatter phase,
//! except that two fields, E and B, instead of one are the objects to be
//! transferred" (paper Section 4).  Owners *push* field values along the
//! `ghost_serving` lists recorded during scatter delivery, so no request
//! round-trip is needed; the delivery half interpolates E and B at every
//! particle.

use pic_machine::{Outbox, PhaseKind, SpmdEngine, SpmdError};
use pic_particles::Cic;

use crate::costs;
use crate::messages::GhostFields;
use crate::phases::PhaseEnv;
use crate::state::RankState;

/// Run one gather superstep.
pub fn run<E: SpmdEngine<RankState>>(machine: &mut E, env: &PhaseEnv) -> Result<(), SpmdError> {
    let (nx, ny) = (env.cfg.nx, env.cfg.ny);
    let (dx, dy) = (env.cfg.dx, env.cfg.dy);
    machine.superstep(
        PhaseKind::Gather,
        move |_r, st, ctx, ob: &mut Outbox<GhostFields>| {
            let nxu = nx as u32;
            for (requester, keys) in &st.ghost_serving {
                ctx.charge_ops(keys.len() as f64 * costs::GHOST_APPLY);
                let entries: Vec<(u32, [f64; 6])> = keys
                    .iter()
                    .map(|&key| {
                        let (gx, gy) = ((key % nxu) as usize, (key / nxu) as usize);
                        let (lx, ly) = (gx - st.rect.x0 + 1, gy - st.rect.y0 + 1);
                        (key, st.fields.at(lx, ly))
                    })
                    .collect();
                ob.send(*requester, GhostFields(entries));
            }
        },
        move |_r, st, ctx, inbox| {
            let nxu = nx as u32;
            // the vertex cache lives in the arena: cleared every
            // iteration, table capacity kept
            let RankState {
                scratch,
                particles,
                rect,
                fields,
                e_at,
                b_at,
                ..
            } = st;
            let cache = &mut scratch.ghost_cache;
            cache.begin(nx * ny);
            for (_, GhostFields(entries)) in inbox {
                for (k, v) in entries {
                    cache.insert(k, v);
                }
            }
            // Interleave the padded field block once per delivery so the
            // per-particle loop reads one contiguous `[f64; 6]` per
            // vertex instead of six bounds-checked loads scattered over
            // six component planes.
            let pw = fields.width();
            let (ex, ey, ez) = (
                fields.ex.as_slice(),
                fields.ey.as_slice(),
                fields.ez.as_slice(),
            );
            let (bx, by, bz) = (
                fields.bx.as_slice(),
                fields.by.as_slice(),
                fields.bz.as_slice(),
            );
            let aos = &mut scratch.fields_aos;
            aos.clear();
            aos.extend((0..ex.len()).map(|i| [ex[i], ey[i], ez[i], bx[i], by[i], bz[i]]));
            let n = particles.len();
            e_at.clear();
            b_at.clear();
            e_at.reserve(n);
            b_at.reserve(n);
            let (w, h) = (rect.w, rect.h);
            for i in 0..n {
                let cic = Cic::new(particles.x[i], particles.y[i], dx, dy, nx, ny);
                ctx.charge_ops(4.0 * costs::GATHER_VERTEX);
                // Interior cell: all four vertices are in the block, at
                // four fixed offsets into the padded (+1 ring) copy.
                let (lx, ly) = (cic.ix.wrapping_sub(rect.x0), cic.iy.wrapping_sub(rect.y0));
                let verts = if lx < w - 1 && ly < h - 1 {
                    let base = (ly + 1) * pw + lx + 1;
                    let v = &aos[base..base + pw + 2];
                    [v[0], v[1], v[pw], v[pw + 1]]
                } else {
                    cic.corners(nx, ny).map(|(cx, cy)| {
                        if rect.contains(cx, cy) {
                            aos[(cy - rect.y0 + 1) * pw + cx - rect.x0 + 1]
                        } else {
                            let key = cy as u32 * nxu + cx as u32;
                            cache.get(key).unwrap_or_else(|| {
                                panic!(
                                    "gather: ghost vertex {key} (cell {cx},{cy}) missing \
                                     from scatter round"
                                )
                            })
                        }
                    })
                };
                let mut e = [0.0f64; 3];
                let mut b = [0.0f64; 3];
                for (wk, vals) in cic.w.into_iter().zip(verts) {
                    for c in 0..3 {
                        e[c] += wk * vals[c];
                        b[c] += wk * vals[3 + c];
                    }
                }
                e_at.push(e);
                b_at.push(b);
            }
        },
    )
}
