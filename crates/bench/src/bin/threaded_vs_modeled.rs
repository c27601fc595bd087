//! Wall-clock comparison of the two executors running the identical
//! simulation: the modeled BSP machine (host-parallel rank loops,
//! `ExecMode::HostThreads`) versus the real-threads executor (one OS thread
//! per rank, genuine message passing).
//!
//! Three things worth reading off the table:
//!
//! * **validation** — both executors must report identical particle
//!   spreads (`max/min n_r`); the physics is executor-independent;
//! * **host cost of real message passing** — the threaded executor pays
//!   for thread spawns, channel sends and scheduler pressure every
//!   superstep, where the modeled machine just loops over ranks;
//! * **model vs reality** — the modeled seconds (τ/μ/δ) against the
//!   threaded executor's wall seconds show how the abstract CM-5 cost
//!   model scales relative to an actual shared-memory host.
//!
//! Usage: `threaded_vs_modeled [iterations] [ranks...]`

use std::time::Instant;

use pic_bench::write_csv;
use pic_core::state::RankState;
use pic_core::{GenericPicSim, SimConfig};
use pic_machine::{Machine, MachineConfig, SpmdEngine, ThreadedMachine};
use pic_partition::PolicyKind;

struct Row {
    executor: &'static str,
    ranks: usize,
    wall_s: f64,
    reported_s: f64,
    max_particles: usize,
    min_particles: usize,
}

fn bench_cfg(ranks: usize) -> SimConfig {
    SimConfig {
        machine: MachineConfig::cm5(ranks),
        particles: 4096,
        // periodic policy: keeps the two executors' redistribution
        // schedules identical, so the workloads match step for step
        policy: PolicyKind::Periodic(10),
        ..SimConfig::small_test()
    }
}

fn run_one<E: SpmdEngine<RankState>>(executor: &'static str, ranks: usize, iters: usize) -> Row {
    let start = Instant::now();
    let mut sim: GenericPicSim<E> = GenericPicSim::new(bench_cfg(ranks));
    let report = sim.run(iters);
    let wall_s = start.elapsed().as_secs_f64();
    let counts = sim.particle_counts();
    let last = report
        .iterations
        .last()
        .expect("ran at least one iteration");
    assert_eq!(
        counts.iter().sum::<usize>(),
        sim.config().particles,
        "particle conservation"
    );
    Row {
        executor,
        ranks,
        wall_s,
        reported_s: report.total_s,
        max_particles: last.max_particles,
        min_particles: last.min_particles,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let iters: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);
    let rank_list: Vec<usize> = {
        let rest: Vec<usize> = args.filter_map(|a| a.parse().ok()).collect();
        if rest.is_empty() {
            vec![2, 4, 8]
        } else {
            rest
        }
    };

    println!("Executor comparison: modeled BSP machine vs real-threads, {iters} iterations\n");
    println!(
        "{:<10} {:>6} {:>12} {:>14} {:>10} {:>10}",
        "executor", "p", "wall (s)", "reported (s)", "max n_r", "min n_r"
    );
    let mut rows = Vec::new();
    for &p in &rank_list {
        let modeled = run_one::<Machine<RankState>>("modeled", p, iters);
        let threaded = run_one::<ThreadedMachine<RankState>>("threaded", p, iters);
        assert_eq!(
            (modeled.max_particles, modeled.min_particles),
            (threaded.max_particles, threaded.min_particles),
            "executors disagree on particle spread at p={p}"
        );
        for r in [&modeled, &threaded] {
            println!(
                "{:<10} {:>6} {:>12.4} {:>14.4} {:>10} {:>10}",
                r.executor, r.ranks, r.wall_s, r.reported_s, r.max_particles, r.min_particles
            );
            rows.push(format!(
                "{},{},{:.6},{:.6},{},{}",
                r.executor, r.ranks, r.wall_s, r.reported_s, r.max_particles, r.min_particles
            ));
        }
    }
    write_csv(
        "threaded_vs_modeled.csv",
        "executor,ranks,wall_s,reported_s,max_particles,min_particles",
        &rows,
    );
    println!();
    println!("(\"reported\" is modeled tau/mu/delta seconds for the modeled executor and");
    println!(" accumulated wall seconds for the threaded one; wall is end-to-end host time)");
}
