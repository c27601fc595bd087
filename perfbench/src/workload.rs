//! The benchmark's workloads and the untraced run: episodes of
//! `GenericPicSim` set-up plus iterations, each ending in a state digest.

use std::time::Instant;

use pic_core::state::RankState;
use pic_core::{GenericPicSim, SimConfig};
use pic_index::IndexScheme;
use pic_machine::{MachineConfig, SpmdEngine};
use pic_particles::ParticleDistribution;
use pic_partition::PolicyKind;

use crate::host::{allocations, process_cpu_s};

/// Which executor a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// `ThreadedMachine`: one OS thread per rank, wall-clock time.
    Threaded,
    /// The modeled BSP `Machine`: ranks on the host worker threads.
    Modeled,
}

impl Executor {
    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Executor::Threaded => "threaded",
            Executor::Modeled => "modeled",
        }
    }

    /// The executor the output check compares against.
    pub fn other(self) -> Executor {
        match self {
            Executor::Threaded => Executor::Modeled,
            Executor::Modeled => Executor::Threaded,
        }
    }
}

/// One named workload: the problem, the executor, and the episode shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Executor the timed iterations run on.
    pub executor: Executor,
    /// Ranks.
    pub ranks: usize,
    /// Mesh cells along x.
    pub nx: usize,
    /// Mesh cells along y.
    pub ny: usize,
    /// Particles (4 per cell, the paper's density).
    pub particles: usize,
    /// Initial particle distribution.
    pub distribution: ParticleDistribution,
    /// Redistribute every `period` iterations.
    pub period: usize,
    /// Untimed iterations after set-up (one redistribution period or
    /// more), so scratch buffers and caches are warm before timing.
    pub warm: usize,
    /// Timed iterations per episode (a multiple of `period`, so every
    /// episode holds the same share of redistributions).
    pub iters: usize,
}

/// Every workload; `BENCHMARK.json` lists the same names.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_uniform_t2",
        executor: Executor::Threaded,
        ranks: 2,
        nx: 128,
        ny: 64,
        particles: 32_768,
        distribution: ParticleDistribution::Uniform,
        period: 5,
        warm: 5,
        iters: 50,
    },
    Workload {
        name: "rank_share_t2",
        executor: Executor::Threaded,
        ranks: 2,
        nx: 16,
        ny: 8,
        particles: 512,
        distribution: ParticleDistribution::Uniform,
        period: 5,
        warm: 5,
        iters: 200,
    },
    Workload {
        name: "irregular_p1_m32",
        executor: Executor::Modeled,
        ranks: 32,
        nx: 128,
        ny: 64,
        particles: 32_768,
        distribution: ParticleDistribution::IrregularCenter,
        period: 1,
        warm: 2,
        iters: 20,
    },
    Workload {
        name: "large_uniform_t2",
        executor: Executor::Threaded,
        ranks: 2,
        nx: 512,
        ny: 256,
        particles: 524_288,
        distribution: ParticleDistribution::Uniform,
        period: 5,
        warm: 5,
        iters: 40,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The simulation configuration for `seed`: the paper defaults
    /// (Hilbert indexing, hash dedup, CM-5 constants) with this
    /// workload's problem, and the per-iteration invariant guards on.
    pub fn config(&self, seed: u64) -> SimConfig {
        SimConfig {
            nx: self.nx,
            ny: self.ny,
            particles: self.particles,
            distribution: self.distribution,
            scheme: IndexScheme::Hilbert,
            policy: PolicyKind::Periodic(self.period),
            machine: MachineConfig::cm5(self.ranks),
            seed,
            check_invariants: true,
            ..SimConfig::paper_default()
        }
    }

    /// Particle-steps in one episode's timed window.
    pub fn particle_steps(&self) -> f64 {
        (self.particles * self.iters) as f64
    }
}

/// Operations attempted and failed: every `try_step`, every output check.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Add another tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One untraced episode: set-up, warm-up, timed iterations, digest.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Wall seconds of `GenericPicSim::try_new`.
    pub setup_s: f64,
    /// Wall seconds of each timed `try_step`.
    pub iter_s: Vec<f64>,
    /// Wall seconds of the whole timed window.
    pub wall_s: f64,
    /// Process CPU seconds over the timed window.
    pub cpu_s: f64,
    /// The engine's own clock over the timed window: modeled seconds on
    /// the modeled machine, wall seconds on the threaded one.
    pub engine_s: f64,
    /// Heap allocations in the timed window (0 unless counting is on).
    pub allocs: u64,
    /// Digest of the final rank states (0 when the episode failed).
    pub digest: u64,
    /// `try_step` outcomes.
    pub tally: Tally,
}

/// Run one untraced episode of `w` on executor `E`.
pub fn untraced_episode<E: SpmdEngine<RankState>>(w: &Workload, seed: u64) -> Episode {
    let mut ep = Episode {
        setup_s: 0.0,
        iter_s: Vec::with_capacity(w.iters),
        wall_s: 0.0,
        cpu_s: 0.0,
        engine_s: 0.0,
        allocs: 0,
        digest: 0,
        tally: Tally::default(),
    };
    let t = Instant::now();
    let built = GenericPicSim::<E>::try_new(w.config(seed));
    ep.setup_s = t.elapsed().as_secs_f64();
    let Ok(mut sim) = built else {
        ep.tally.record(false);
        return ep;
    };
    for _ in 0..w.warm {
        let ok = sim.try_step().is_ok();
        ep.tally.record(ok);
        if !ok {
            return ep;
        }
    }
    let (engine0, allocs0) = (sim.machine().elapsed_s(), allocations());
    let (wall0, cpu0) = (Instant::now(), process_cpu_s());
    for _ in 0..w.iters {
        let t = Instant::now();
        let ok = sim.try_step().is_ok();
        ep.iter_s.push(t.elapsed().as_secs_f64());
        ep.tally.record(ok);
        if !ok {
            return ep;
        }
    }
    ep.cpu_s = process_cpu_s() - cpu0;
    ep.wall_s = wall0.elapsed().as_secs_f64();
    ep.allocs = allocations() - allocs0;
    ep.engine_s = sim.machine().elapsed_s() - engine0;
    ep.digest = digest(sim.machine().ranks());
    ep
}

/// Digest of the final state: every particle's bits in rank order, keys,
/// rank bounds and the padded field blocks.  Equal digests mean
/// bit-identical states (up to a 64-bit hash collision).
pub fn digest(ranks: &[RankState]) -> u64 {
    let mut h = Fnv::default();
    for st in ranks {
        h.word(st.len() as u64);
        let p = &st.particles;
        for arr in [&p.x, &p.y, &p.ux, &p.uy, &p.uz] {
            arr.iter().for_each(|v| h.word(v.to_bits()));
        }
        st.keys.iter().for_each(|&k| h.word(k));
        st.bounds.iter().for_each(|&b| h.word(b));
        let f = &st.fields;
        for g in [&f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz] {
            g.as_slice().iter().for_each(|v| h.word(v.to_bits()));
        }
    }
    h.0
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
}
