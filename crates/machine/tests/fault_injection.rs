//! Chaos tests for the fault-injection harness, run on the engine that
//! ships: [`ThreadedMachine`].
//!
//! Two properties anchor the failure model:
//!
//! 1. **Benign faults are invisible.**  Delay, reorder and drop-retry
//!    faults exercise timing, queueing and retransmission, but the
//!    protocol (one batch per rank pair, sender-indexed delivery) must
//!    absorb them: results are bit-identical to a fault-free run for
//!    *any* seed.
//! 2. **Kills are loud and attributed.**  A killed rank must surface as
//!    a typed error naming the rank and epoch, promptly (poison
//!    propagation, not timeout expiry), on every seed.
//!
//! Seeds are fixed for reproducibility; set `CHAOS_SEED=<n>` to probe an
//! extra seed locally or in the CI chaos job.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pic_machine::{
    FaultNoise, FaultPlan, MachineConfig, Outbox, PhaseKind, SpmdEngine, SpmdError,
    ThreadedMachine, Topology,
};

const FIXED_SEEDS: [u64; 3] = [0xC0FFEE, 0xBADF00D, 0x5EED];

/// The fixed seeds plus an optional `CHAOS_SEED` from the environment.
fn chaos_seeds() -> Vec<u64> {
    let mut seeds = FIXED_SEEDS.to_vec();
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        seeds.push(s.parse().expect("CHAOS_SEED must be an integer"));
    }
    seeds
}

/// Fold `v` into a running digest.
fn mix(digest: u64, k: u64, v: u64) -> u64 {
    digest.wrapping_mul(k).wrapping_add(v)
}

/// A protocol-heavy SPMD program over every engine operation: ring
/// traffic, barriers, an irregular exchange, an allgatherv and both
/// all-reduces, folded into one digest per rank.  Runs on `p` threaded
/// ranks under `plan` (if any) at fault epoch 0.
fn protocol_mix(p: usize, plan: Option<Arc<FaultPlan>>) -> Result<Vec<u64>, SpmdError> {
    let cfg = MachineConfig {
        ranks: p,
        tau: 1.0,
        mu: 0.1,
        delta: 0.01,
        topology: Topology::FullyConnected,
    };
    let mut m =
        ThreadedMachine::new(cfg, (0..p as u64).collect()).with_timeout(Duration::from_secs(30));
    m.instruments_mut().fault_plan = plan;
    // ring rotation
    m.superstep(
        PhaseKind::Scatter,
        |r, _d, _ctx, ob: &mut Outbox<Vec<u64>>| ob.send((r + 1) % p, vec![r as u64 * 17 + 1]),
        |_r, d, _ctx, inbox| {
            for (from, v) in inbox {
                *d = mix(*d, 31, from as u64 ^ v[0]);
            }
        },
    )?;
    m.barrier()?;
    // irregular exchange: rank r sends r%3 messages to each smaller rank
    m.superstep(
        PhaseKind::Redistribute,
        |r, _d, _ctx, ob: &mut Outbox<Vec<u64>>| {
            for to in 0..r {
                for k in 0..r % 3 {
                    ob.send(to, vec![(r * 100 + to * 10 + k) as u64]);
                }
            }
        },
        |_r, d, _ctx, inbox| {
            for (from, v) in inbox {
                *d = mix(*d, 37, ((from as u64) << 8) | (v[0] % 251));
            }
        },
    )?;
    // collectives fold in rank order on every rank
    m.allgatherv(
        PhaseKind::Setup,
        8,
        |_r, d| vec![*d, *d ^ 0xA5A5],
        |_r, d, all: &[u64]| {
            for &v in all {
                *d = mix(*d, 41, v);
            }
        },
    )?;
    m.allreduce(
        PhaseKind::FieldSolve,
        |_r, d| *d,
        |a, b| mix(a, 43, b),
        |_r, d, &v| *d ^= v,
    )?;
    m.allreduce_elementwise(
        PhaseKind::Gather,
        16,
        |r, d| vec![*d, r as u64],
        |a, b| mix(*a, 47, *b),
        |_r, d, acc| *d = mix(*d, 53, acc[0] ^ acc[1]),
    )?;
    m.barrier()?;
    Ok(m.into_ranks())
}

fn protocol_mix_with_plan(p: usize, plan: Arc<FaultPlan>) -> Result<Vec<u64>, SpmdError> {
    protocol_mix(p, Some(plan))
}

#[test]
fn benign_chaos_is_bit_identical_across_seeds() {
    for p in [2usize, 5, 8] {
        let clean = protocol_mix(p, None).expect("clean run");
        for seed in chaos_seeds() {
            let plan = Arc::new(FaultPlan::benign(seed));
            let noisy = protocol_mix_with_plan(p, plan)
                .unwrap_or_else(|e| panic!("benign plan seed {seed} failed: {e}"));
            assert_eq!(noisy, clean, "seed {seed} at {p} ranks changed results");
        }
    }
}

#[test]
fn heavy_drop_noise_exhausts_the_retry_path_without_changing_results() {
    let noise = FaultNoise {
        drop_prob: 0.9,
        ..FaultNoise::aggressive()
    };
    let p = 4;
    let clean = protocol_mix(p, None).expect("clean run");
    for seed in chaos_seeds() {
        let plan = Arc::new(FaultPlan::new(seed).with_noise(noise));
        let noisy = protocol_mix_with_plan(p, plan).expect("drops must be retransmitted");
        assert_eq!(noisy, clean, "seed {seed} changed results");
    }
}

#[test]
fn kill_plans_name_the_rank_promptly_on_every_seed() {
    let p = 6;
    for seed in chaos_seeds() {
        let victim = (seed % p as u64) as usize;
        let plan = Arc::new(
            FaultPlan::new(seed)
                .kill(victim, 0)
                .with_noise(FaultNoise::mild()),
        );
        let started = Instant::now();
        let err = protocol_mix_with_plan(p, plan).expect_err("the kill must fail the run");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "kill detection leaned on the receive timeout"
        );
        assert!(err.is_injected_kill(), "seed {seed}: {err}");
        assert_eq!(err.rank, Some(victim), "seed {seed}: {err}");
        assert_eq!(err.epoch, Some(0), "seed {seed}: {err}");
    }
}

#[test]
fn killed_plans_rearm_for_repeated_injection() {
    let p = 3;
    let plan = Arc::new(FaultPlan::new(7).kill(1, 0));
    let err = protocol_mix_with_plan(p, Arc::clone(&plan)).expect_err("armed kill");
    assert_eq!(err.rank, Some(1));
    // consumed: the same plan no longer fires
    protocol_mix_with_plan(p, Arc::clone(&plan)).expect("consumed kill must not re-fire");
    plan.rearm();
    let err = protocol_mix_with_plan(p, plan).expect_err("re-armed kill");
    assert_eq!(err.rank, Some(1));
}

#[test]
fn forced_delays_and_reorders_compose_with_kills() {
    // a plan can mix benign specs with a kill: the kill still wins, the
    // benign specs still never corrupt the surviving protocol rounds
    let p = 4;
    let plan = Arc::new(
        FaultPlan::new(11)
            .delay(0, 0, Duration::from_millis(2))
            .kill(3, 0),
    );
    let err = protocol_mix_with_plan(p, plan).expect_err("kill fires");
    assert!(err.is_injected_kill());
    assert_eq!(err.rank, Some(3));
}
