//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it runs untraced episodes of the named workload for
//! `S` seconds (each: `GenericPicSim::try_new`, warm-up iterations, timed
//! iterations, state digest), checks every digest against the other
//! executor's digest for the same configuration, and prints the
//! end-to-end metrics.  With `--trace 1` it alternates untraced episodes
//! with traced ones, in which the benchmark drives the phases itself and
//! times every call from outside, then times the kernels and the machine
//! synchronisation on the workload's own data and prints the per-layer
//! table.  The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--corrupt-digest` flips one bit of the reference digest, so every
//! digest check fails; the self-test uses it to prove the checks count.

mod host;
mod kernels;
mod traced;
mod workload;

use std::time::{Duration, Instant};

use pic_core::state::RankState;
use pic_core::SequentialPicSim;
use pic_machine::{Machine, SpmdEngine, ThreadedMachine};

use host::{median, CountingAlloc};
use kernels::Kernels;
use traced::{sync_timings, traced_episode, Env, PHASES};
use workload::{untraced_episode, Episode, Executor, Tally, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Untraced episodes per run, at least.
const MIN_EPISODES: usize = 3;
/// Share of `--seconds` the traced run spends on episodes; the rest goes
/// to kernel, synchronisation and sequential timings.
const TRACE_EPISODE_SHARE: f64 = 0.6;
/// Repetitions of each synchronisation primitive.
const SYNC_REPS: usize = 200;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        corrupt_digest: argv.iter().any(|a| a == "--corrupt-digest"),
    })
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    tally: Tally,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Print the table and the JSON result line.  A metric that could not
    /// be measured (not finite) is one failed operation.
    fn print(mut self, args: &Args) {
        for (_, v, _) in &mut self.metrics {
            if !v.is_finite() {
                self.tally.record(false);
                *v = 0.0;
            }
        }
        let t = self.tally;
        println!(
            "perfbench {} seed={} trace={}",
            args.workload.name,
            args.seed,
            u8::from(args.trace)
        );
        for note in &self.notes {
            println!("  {note}");
        }
        println!(
            "  {:<34} {:>16} ratio ({} failed of {} attempted)",
            "error_rate",
            t.failed as f64 / t.attempted.max(1) as f64,
            t.failed,
            t.attempted
        );
        for (name, v, unit) in &self.metrics {
            println!("  {name:<34} {v:>16.6} {unit}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            t.failed == 0,
            t.attempted.max(1),
            t.failed,
            body.join(", ")
        );
    }
}

/// The host record of a run: process CPU per wall second, the share of
/// host CPU time stolen by the hypervisor, and a fixed single-thread loop
/// timed at both ends of the run, so host drift can be told apart from a
/// code change.
struct HostRecord {
    cpu_per_wall: f64,
    steal_share: f64,
    calibration_ns: f64,
}

/// Process CPU and `/proc/stat` steal over a window, for the host record.
struct HostWindow {
    wall: Instant,
    cpu_s: f64,
    steal: (u64, u64),
    calibration_ns: f64,
}

impl HostWindow {
    fn open() -> Self {
        let calibration_ns = host::calibration_ns();
        Self {
            wall: Instant::now(),
            cpu_s: host::process_cpu_s(),
            steal: host::steal_jiffies(),
            calibration_ns,
        }
    }

    fn close(&self) -> HostRecord {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_s() - self.cpu_s;
        let (steal, total) = host::steal_jiffies();
        let d_total = total.saturating_sub(self.steal.1);
        let steal_share = if d_total == 0 {
            0.0
        } else {
            steal.saturating_sub(self.steal.0) as f64 / d_total as f64
        };
        HostRecord {
            cpu_per_wall: cpu_s / wall,
            steal_share,
            calibration_ns: 0.5 * (self.calibration_ns + host::calibration_ns()),
        }
    }
}

fn untraced(w: &Workload, seed: u64, exec: Executor) -> Episode {
    match exec {
        Executor::Threaded => untraced_episode::<ThreadedMachine<RankState>>(w, seed),
        Executor::Modeled => untraced_episode::<Machine<RankState>>(w, seed),
    }
}

/// Episodes that ran every timed iteration.
fn complete<'a>(w: &'a Workload, eps: &'a [Episode]) -> impl Iterator<Item = &'a Episode> + 'a {
    eps.iter()
        .filter(|e| e.iter_s.len() == w.iters && e.digest != 0)
}

/// Wall ns per particle-step of every complete episode.
fn wall_ns(w: &Workload, eps: &[Episode]) -> Vec<f64> {
    complete(w, eps)
        .map(|e| e.wall_s * 1e9 / w.particle_steps())
        .collect()
}

/// The reference digest: the same configuration and seed on the other
/// executor, which must produce a bit-identical state.
fn reference(w: &Workload, args: &Args) -> (Episode, u64) {
    let ep = untraced(w, args.seed, w.executor.other());
    let digest = ep.digest ^ u64::from(args.corrupt_digest);
    (ep, digest)
}

fn host_notes(report: &mut Report, w: &Workload, h: &HostRecord) {
    report.notes.push(format!(
        "host: nproc={} ranks={} host_workers={} executor={} cpu_per_wall={:.3} \
         steal_share={:.4} calibration_ns={:.4}",
        host::nproc(),
        w.ranks,
        host::host_workers(),
        w.executor.label(),
        h.cpu_per_wall,
        h.steal_share,
        h.calibration_ns,
    ));
}

/// `--trace 0`: the end-to-end metrics.
fn run_untraced(args: &Args) -> Report {
    let w = &args.workload;
    let mut report = Report::default();
    let window = HostWindow::open();
    let deadline = Duration::from_secs_f64(args.seconds);
    // peak RSS of one simulation in a fresh process: read after the
    // first episode, before allocator reuse across episodes inflates it
    let mut eps = vec![untraced(w, args.seed, w.executor)];
    let peak_rss = host::peak_rss_mb();
    while eps.len() < MIN_EPISODES || window.wall.elapsed() < deadline {
        eps.push(untraced(w, args.seed, w.executor));
    }
    let host_record = window.close();

    let (ref_ep, ref_digest) = reference(w, args);
    report.tally.absorb(ref_ep.tally);
    for e in &eps {
        report.tally.absorb(e.tally);
        report.tally.record(e.digest == ref_digest);
    }

    // Host preemption and co-tenant load slow whole episodes at random
    // (see the host record), so the wall-clock metrics are taken over the
    // quieter half of the episodes, ranked by wall time; CPU time, which
    // preemption does not inflate, is taken over all of them.
    let ps = w.particle_steps();
    let mut done: Vec<&Episode> = complete(w, &eps).collect();
    done.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let quiet = &done[..done.len().div_ceil(2)];
    let wall: Vec<f64> = quiet.iter().map(|e| e.wall_s * 1e9 / ps).collect();
    let cpu: Vec<f64> = done.iter().map(|e| e.cpu_s * 1e9 / ps).collect();
    let iters: Vec<f64> = quiet
        .iter()
        .flat_map(|e| e.iter_s.iter().copied())
        .collect();
    let (pct, tail) = host::tail(&iters);
    let setups: Vec<f64> = eps.iter().map(|e| e.setup_s).collect();
    host_notes(&mut report, w, &host_record);
    report.notes.push(format!(
        "{} episodes of {} warm + {} timed iterations, {} particles; wall metrics over the \
         quieter {}; iter_tail_ms is p{pct} of {} samples ({} beyond it); digest {:016x}",
        eps.len(),
        w.warm,
        w.iters,
        w.particles,
        quiet.len(),
        iters.len(),
        (iters.len() as f64 * (1.0 - pct / 100.0)).floor(),
        ref_digest,
    ));
    report.metric("ns_per_particle_step", median(&wall), "ns");
    report.metric("cpu_ns_per_particle_step", median(&cpu), "ns");
    report.metric("iter_p50_ms", median(&iters) * 1e3, "ms");
    report.metric("iter_tail_ms", tail * 1e3, "ms");
    // lower quartile: set-up is short and a single preemption doubles it
    report.metric("setup_s", host::quantile(&setups, 0.25), "s");
    report.metric("peak_rss_mb", peak_rss, "MB");
    report
}

/// `--trace 1`: the per-layer table.
fn run_traced<E: SpmdEngine<RankState>>(args: &Args) -> Report {
    host::count_allocations();
    let w = &args.workload;
    let mut report = Report::default();
    let env = Env::new(w.config(args.seed));
    let window = HostWindow::open();
    let budget = Duration::from_secs_f64(args.seconds * TRACE_EPISODE_SHARE);

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut engine: Option<E> = None;
    while traced.is_empty() || window.wall.elapsed() < budget {
        plain.push(untraced(w, args.seed, w.executor));
        let (ep, machine) = traced_episode::<E>(w, &env, traced.is_empty());
        traced.push(ep);
        engine = Some(machine);
    }
    let mut engine = engine.expect("at least one traced episode");
    let sync = sync_timings(&mut engine, SYNC_REPS, &mut report.tally);
    drop(engine);
    let (seq_ns, seq_steps) = sequential_ns(w, args.seed);
    let host_record = window.close();

    // output checks: untraced digests against the other executor, traced
    // digests against the untraced one
    let (ref_ep, ref_digest) = reference(w, args);
    report.tally.absorb(ref_ep.tally);
    let plain_digest = plain[0].digest;
    for e in &plain {
        report.tally.absorb(e.tally);
        report.tally.record(e.digest == ref_digest);
    }
    for e in &traced {
        report.tally.absorb(e.tally);
        report.tally.record(e.digest == plain_digest);
    }

    // phases: p50 per call and share of the phase total
    let mut per_call = [const { Vec::new() }; 5];
    for e in &traced {
        for (k, s) in e.phase_s.iter().enumerate() {
            per_call[k].extend_from_slice(s);
        }
    }
    let sums: Vec<f64> = per_call.iter().map(|v| v.iter().sum()).collect();
    let total: f64 = sums.iter().sum();
    for (k, name) in PHASES.iter().enumerate() {
        report.metric(
            format!("phases.{name}_ms"),
            median(&per_call[k]) * 1e3,
            "ms",
        );
    }
    for (k, name) in PHASES.iter().enumerate() {
        report.metric(format!("phases.{name}_share"), sums[k] / total, "ratio");
    }

    // kernels, from the first traced episode's snapshot (unmeasured, and
    // so counted as failed, when that episode failed before the probe)
    let kernels = traced[0]
        .kernels
        .clone()
        .unwrap_or_else(Kernels::unmeasured);
    for k in &kernels.rows {
        report.notes.push(format!(
            "kernel {:<28} {:>10.3} ns/{} x {} ops, {} B/op computed",
            k.name, k.ns_per_op, k.op, k.ops, k.bytes_per_op
        ));
    }
    let row = |name: &str| {
        kernels
            .rows
            .iter()
            .find(|k| k.name == name)
            .map_or(f64::NAN, |k| k.ns_per_op)
    };
    report.metric("particles.boris_ns", row("particles.boris_ns"), "ns");
    report.metric("particles.shape_ns", row("particles.shape_ns"), "ns");
    report.metric("ghost.add_ns", row("ghost.add_ns"), "ns");
    report.metric("ghost.dedup_ratio", kernels.dedup_ratio, "ratio");
    report.metric(
        "field.maxwell_ns_per_cell",
        row("field.maxwell_ns_per_cell"),
        "ns",
    );
    report.metric(
        "field.halo_cells_per_iter",
        kernels.halo_cells_per_iter,
        "count",
    );
    report.metric("index.hilbert_ns", row("index.hilbert_ns"), "ns");
    for name in ["keys", "classify", "radix", "incremental"] {
        let metric = format!("partition.{name}_ns");
        let v = row(&metric);
        report.metric(metric, v, "ns");
    }
    report.metric("partition.movers_share", kernels.movers_share, "ratio");
    report.metric("partition.balance_moved", kernels.balance_moved, "count");

    // machine: synchronisation and communication counts
    for (name, v) in ["local_step", "barrier", "allreduce", "exchange"]
        .iter()
        .zip(sync)
    {
        report.metric(format!("machine.{name}_us"), v, "us");
    }
    let iters = (traced.len() * w.iters) as f64;
    let sum = |f: fn(&traced::TracedEpisode) -> f64| traced.iter().map(f).sum::<f64>();
    report.metric(
        "machine.msgs_per_iter",
        sum(|e| e.msgs as f64) / iters,
        "count",
    );
    report.metric(
        "machine.bytes_per_iter",
        sum(|e| e.bytes as f64) / iters,
        "B",
    );

    // sim: iteration counts and the modeled clock
    report.metric(
        "sim.supersteps_per_iter",
        sum(|e| e.supersteps as f64) / iters,
        "count",
    );
    report.metric(
        "sim.redistributions",
        sum(|e| e.redistributions as f64) / traced.len() as f64,
        "count",
    );
    let plain_iters = (complete(w, &plain).count() * w.iters) as f64;
    report.metric(
        "sim.allocs_per_iter",
        complete(w, &plain).map(|e| e.allocs as f64).sum::<f64>() / plain_iters,
        "count",
    );
    let modeled = if w.executor == Executor::Modeled {
        median(&complete(w, &plain).map(|e| e.engine_s).collect::<Vec<_>>())
    } else {
        ref_ep.engine_s
    };
    report.metric(
        "sim.modeled_s_per_iter",
        modeled / w.iters as f64,
        "modeled_s",
    );

    // baseline, host record, tracing overhead
    let untraced_ns = median(&wall_ns(w, &plain));
    let traced_ns: Vec<f64> = traced
        .iter()
        .filter(|e| e.digest != 0)
        .map(|e| e.wall_s * 1e9 / w.particle_steps())
        .collect();
    report.metric("sequential.ns_per_particle_step", seq_ns, "ns");
    report.metric("sequential.speedup", seq_ns / untraced_ns, "ratio");
    report.metric("host.cpu_per_wall", host_record.cpu_per_wall, "ratio");
    report.metric("host.steal_share", host_record.steal_share, "ratio");
    report.metric("host.calibration_ns", host_record.calibration_ns, "ns");
    report.metric("host.nproc", host::nproc() as f64, "count");
    report.metric("host.ranks", w.ranks as f64, "count");
    report.metric("host.workers", host::host_workers() as f64, "count");
    report.metric(
        "trace.overhead",
        median(&traced_ns) / untraced_ns - 1.0,
        "ratio",
    );
    host_notes(&mut report, w, &host_record);
    report.notes.push(format!(
        "{} untraced + {} traced episodes; {seq_steps} sequential steps",
        plain.len(),
        traced.len()
    ));
    report
}

/// Wall ns per particle-step of `SequentialPicSim` on the workload's
/// problem (one thread, no redistribution), and the steps timed.
fn sequential_ns(w: &Workload, seed: u64) -> (f64, usize) {
    const MIN_STEPS: usize = 3;
    const MIN_S: f64 = 0.3;
    let mut sim = SequentialPicSim::new(w.config(seed));
    sim.step();
    let t = Instant::now();
    let mut steps = 0;
    while steps < MIN_STEPS || t.elapsed().as_secs_f64() < MIN_S {
        sim.step();
        steps += 1;
    }
    let ns = t.elapsed().as_secs_f64() * 1e9 / (steps * w.particles) as f64;
    (ns, steps)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                 [--corrupt-digest]"
            );
            std::process::exit(2);
        }
    };
    let report = match (args.trace, args.workload.executor) {
        (false, _) => run_untraced(&args),
        (true, Executor::Threaded) => run_traced::<ThreadedMachine<RankState>>(&args),
        (true, Executor::Modeled) => run_traced::<Machine<RankState>>(&args),
    };
    report.print(&args);
}
