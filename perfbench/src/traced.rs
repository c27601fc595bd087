//! The traced run: the benchmark drives the iteration itself, calling
//! `phases::{scatter, field_solve, gather, push}::run`, the policy and
//! `phases::redistribute::run` in `try_step`'s order on an engine built
//! from the public constructors, and times every call from outside.

use std::time::Instant;

use pic_core::phases::{self, PhaseEnv};
use pic_core::state::RankState;
use pic_core::SimConfig;
use pic_field::{BlockLayout, HaloPlan, MaxwellSolver};
use pic_index::CellIndexer;
use pic_machine::{PhaseKind, SpmdEngine};
use pic_partition::sfc_block_layout;

use crate::kernels::{self, Kernels};
use crate::workload::{digest, Tally, Workload};

/// Phase names in call order; `PHASES[4]` is the redistribution.
pub const PHASES: [&str; 5] = ["scatter", "field_solve", "gather", "push", "redistribute"];

/// The immutable substrates `GenericPicSim` builds for a configuration.
pub struct Env {
    /// The configuration.
    pub cfg: SimConfig,
    /// Mesh block layout.
    pub layout: BlockLayout,
    /// Field-solve halo plan.
    pub halo: HaloPlan,
    /// Cell indexer.
    pub indexer: Box<dyn CellIndexer>,
    /// Field stepper.
    pub solver: MaxwellSolver,
}

impl Env {
    /// Build the substrates the way `GenericPicSim` does.
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate();
        let layout = sfc_block_layout(cfg.nx, cfg.ny, cfg.machine.ranks, cfg.scheme);
        let halo = HaloPlan::build(&layout);
        let indexer = cfg.scheme.build(cfg.nx, cfg.ny);
        let solver = MaxwellSolver::new(cfg.dt, cfg.dx, cfg.dy);
        Self {
            cfg,
            layout,
            halo,
            indexer,
            solver,
        }
    }

    /// The view the phase functions take.
    pub fn phase_env(&self) -> PhaseEnv<'_> {
        PhaseEnv {
            cfg: &self.cfg,
            layout: &self.layout,
            halo: &self.halo,
            indexer: self.indexer.as_ref(),
            solver: &self.solver,
        }
    }

    /// Load the particles and hand contiguous chunks to fresh rank
    /// states, as `GenericPicSim` does before the initial distribution.
    pub fn engine<E: SpmdEngine<RankState>>(&self) -> E {
        let cfg = &self.cfg;
        let p = cfg.machine.ranks;
        let global =
            cfg.distribution
                .load(cfg.particles, cfg.lx(), cfg.ly(), cfg.thermal_u, cfg.seed);
        let states = (0..p)
            .map(|r| {
                let mut st = RankState::new(r, self.layout.local_rect(r), cfg);
                let (lo, hi) = (r * cfg.particles / p, (r + 1) * cfg.particles / p);
                st.particles.reserve(hi - lo);
                for i in lo..hi {
                    let c = global.get(i);
                    st.particles.push(c[0], c[1], c[2], c[3], c[4]);
                }
                st
            })
            .collect();
        E::build(cfg.machine, cfg.exec_mode(), states)
    }
}

/// What one traced episode measured.
#[derive(Debug, Default)]
pub struct TracedEpisode {
    /// Wall seconds of every timed call, per phase (see [`PHASES`]).
    pub phase_s: [Vec<f64>; 5],
    /// Wall seconds of the timed window.
    pub wall_s: f64,
    /// Supersteps and collectives recorded in the timed window.
    pub supersteps: usize,
    /// Off-rank messages in the timed window (from the stats log).
    pub msgs: u64,
    /// Off-rank bytes in the timed window, computed from payload sizes.
    pub bytes: u64,
    /// Redistributions in the timed window.
    pub redistributions: usize,
    /// Digest of the final rank states (0 when the episode failed).
    pub digest: u64,
    /// Iterations and invariant checks.
    pub tally: Tally,
    /// Kernel timings on the rank data just before the last
    /// redistribution (when asked for).
    pub kernels: Option<Kernels>,
}

/// Run one traced episode; returns the engine for the sync timings.
pub fn traced_episode<E: SpmdEngine<RankState>>(
    w: &Workload,
    env: &Env,
    probe_kernels: bool,
) -> (TracedEpisode, E) {
    let mut ep = TracedEpisode::default();
    for v in &mut ep.phase_s {
        v.reserve(w.iters);
    }
    let penv = env.phase_env();
    let mut machine: E = env.engine();
    let mut policy = env.cfg.policy.build();
    match phases::redistribute::run(&mut machine, &penv, true) {
        Ok(cost) => policy.notify_redistributed(0, cost),
        Err(_) => {
            ep.tally.record(false);
            return (ep, machine);
        }
    }
    machine.stats_mut().drain();

    // each iteration is two operations: the step (four phases, then the
    // policy and any redistribution) and the invariant check after the
    // four phases, where `try_step` checks them
    let total = w.warm + w.iters;
    let mut wall0 = Instant::now();
    let mut probe_s = 0.0;
    for iter in 1..=total {
        let timed = iter > w.warm;
        if iter == w.warm + 1 {
            wall0 = Instant::now();
        }
        machine.set_fault_epoch(iter as u64);
        let before = census(machine.ranks());
        let mut ok = true;
        for k in 0..4 {
            let seen = machine.stats().records().len();
            let t = Instant::now();
            let r = match k {
                0 => phases::scatter::run(&mut machine, &penv),
                1 => phases::field_solve::run(&mut machine, &penv),
                2 => phases::gather::run(&mut machine, &penv),
                _ => phases::push::run(&mut machine, &penv),
            };
            let dt = t.elapsed().as_secs_f64();
            ok = r.is_ok();
            if !ok {
                break;
            }
            if timed {
                ep.phase_s[k].push(dt);
                count_records(&mut ep, &machine, seen);
            }
        }
        let checked = ok && invariants_hold(machine.ranks(), before);
        let step_s: f64 = machine
            .stats_mut()
            .drain()
            .iter()
            .map(|r| r.elapsed_s)
            .sum();
        if checked && policy.should_redistribute(iter, step_s) {
            if probe_kernels && iter == total {
                let t = Instant::now();
                ep.kernels = Some(kernels::probe(machine.ranks(), env));
                probe_s = t.elapsed().as_secs_f64();
            }
            let t = Instant::now();
            let r = phases::redistribute::run(&mut machine, &penv, false);
            let dt = t.elapsed().as_secs_f64();
            ok = r.is_ok();
            if let Ok(cost) = r {
                policy.notify_redistributed(iter, cost);
                if timed {
                    ep.phase_s[4].push(dt);
                    ep.redistributions += 1;
                    count_records(&mut ep, &machine, 0);
                }
            }
            machine.stats_mut().drain();
        }
        ep.tally.record(ok);
        if ok {
            ep.tally.record(checked);
        }
        if !(ok && checked) {
            return (ep, machine);
        }
    }
    ep.wall_s = wall0.elapsed().as_secs_f64() - probe_s;
    ep.digest = digest(machine.ranks());
    (ep, machine)
}

/// Add the stats records appended since `seen` to the episode counts.
fn count_records<E: SpmdEngine<RankState>>(ep: &mut TracedEpisode, machine: &E, seen: usize) {
    for r in &machine.stats().records()[seen..] {
        ep.supersteps += 1;
        ep.msgs += r.total_msgs;
        ep.bytes += r.total_bytes;
    }
}

/// Global particle count and total charge.
fn census(ranks: &[RankState]) -> (usize, f64) {
    ranks.iter().fold((0, 0.0), |(n, q), st| {
        (n + st.len(), q + st.particles.charge * st.len() as f64)
    })
}

/// The per-iteration invariants of `try_step`, checked from outside: keys in
/// step with particles, particle count and total charge conserved, and
/// every field and current value finite.
fn invariants_hold(ranks: &[RankState], (n0, q0): (usize, f64)) -> bool {
    let finite = |g: &[f64]| g.iter().all(|v| v.is_finite());
    let ranks_ok = ranks.iter().all(|st| {
        let f = &st.fields;
        let j = &st.currents;
        st.keys.len() == st.len()
            && [&f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz]
                .iter()
                .all(|g| finite(g.as_slice()))
            && [&j.jx, &j.jy, &j.jz].iter().all(|g| finite(g.as_slice()))
    });
    let (n, q) = census(ranks);
    ranks_ok && n == n0 && (q - q0).abs() <= 1e-12 * q0.abs().max(1e-300)
}

/// Median microseconds of the four synchronisation primitives on the
/// workload's own engine: `(local_step, barrier, allreduce, exchange)`.
/// Every call is one operation of `tally`.
pub fn sync_timings<E: SpmdEngine<RankState>>(
    machine: &mut E,
    reps: usize,
    tally: &mut Tally,
) -> [f64; 4] {
    let mut samples = [const { Vec::new() }; 4];
    for _ in 0..reps {
        for (k, s) in samples.iter_mut().enumerate() {
            let t = Instant::now();
            let r = match k {
                0 => machine.local_step(PhaseKind::Other, |_, _, _| {}),
                1 => machine.barrier(),
                2 => machine.allreduce(
                    PhaseKind::Other,
                    |_, st: &RankState| st.len() as f64,
                    |a, b| a + b,
                    |_, _, _| {},
                ),
                _ => machine.superstep::<(), _, _>(
                    PhaseKind::Other,
                    |_, _, _, _| {},
                    |_, _, _, _| {},
                ),
            };
            s.push(t.elapsed().as_secs_f64() * 1e6);
            tally.record(r.is_ok());
        }
        machine.stats_mut().drain();
    }
    samples.map(|s| crate::host::median(&s))
}
