//! The BSP engine: supersteps over rank-local states.
//!
//! A superstep is `compute -> route -> deliver -> barrier`:
//!
//! 1. every rank runs the *compute* closure against its own state,
//!    charging abstract op units and enqueueing typed messages;
//! 2. the router groups messages by destination (sender order preserved,
//!    so results never depend on execution order);
//! 3. every rank runs the *deliver* closure over its inbox;
//! 4. clocks synchronize to the slowest rank — idle time is charged to
//!    the communication component, which is exactly how load imbalance
//!    shows up as "overhead" in the paper's Figures 21/22.
//!
//! Self-messages are delivered but cost nothing, matching the paper's
//! machine model where only *off-processor* accesses pay τ/μ.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::clock::Clock;
use crate::config::MachineConfig;
use crate::engine::SpmdEngine;
use crate::error::{FailureCause, SpmdError};
use crate::host_par;
use crate::instruments::{Instruments, RankRow, Shares};
use crate::payload::Payload;
use crate::stats::PhaseKind;

/// How virtual ranks are executed on the host.
///
/// Both modes produce bit-identical simulation results; `HostThreads`
/// simply spreads rank loops over host cores (`std` scoped threads, see
/// `host_par`) for wall-clock speed on the big parameter sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Run ranks one after another on the calling thread.
    Sequential,
    /// Run ranks across host threads, one contiguous chunk per core.
    HostThreads,
}

/// Per-rank, per-superstep accounting handed to the phase closures.
#[derive(Debug, Default)]
pub struct PhaseCtx {
    ops: f64,
}

impl PhaseCtx {
    /// Charge `units` abstract op units of local computation (converted to
    /// seconds via the machine's δ).
    #[inline]
    pub fn charge_ops(&mut self, units: f64) {
        debug_assert!(units >= 0.0, "negative op charge {units}");
        self.ops += units;
    }

    /// Units charged so far this superstep.
    #[inline]
    pub fn ops(&self) -> f64 {
        self.ops
    }
}

/// Message staging area for one rank during the compute half-step.
#[derive(Debug)]
pub struct Outbox<M> {
    msgs: Vec<(usize, M)>,
    ranks: usize,
}

impl<M: Payload> Outbox<M> {
    pub(crate) fn new(ranks: usize) -> Self {
        Self {
            msgs: Vec::new(),
            ranks,
        }
    }

    /// Consume the outbox, returning the staged `(to, msg)` pairs in send
    /// order (crate-internal: executors drain it after the compute half).
    pub(crate) fn into_msgs(self) -> Vec<(usize, M)> {
        self.msgs
    }

    /// Queue `msg` for delivery to rank `to` at the end of the superstep.
    ///
    /// # Panics
    /// Panics if `to` is not a valid rank.
    #[inline]
    pub fn send(&mut self, to: usize, msg: M) {
        assert!(to < self.ranks, "destination rank {to} out of range");
        self.msgs.push((to, msg));
    }

    /// Number of messages queued so far.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

/// The virtual machine: configuration, rank states, clocks and statistics.
///
/// Every operation and accessor comes from its [`SpmdEngine`] impl; the
/// inherent API is only [`Machine::new`] and [`Machine::clocks`].
pub struct Machine<S> {
    pub(crate) cfg: MachineConfig,
    mode: ExecMode,
    states: Vec<S>,
    pub(crate) clocks: Vec<Clock>,
    /// Stats log, recorder, metrics and fault plan (see
    /// [`crate::instruments`]).
    pub(crate) instruments: Instruments,
    /// Operations issued so far (the superstep index in error context).
    supersteps: u64,
}

impl<S: Send> Machine<S> {
    /// Build a machine whose rank `r` starts with `states[r]`.
    ///
    /// # Panics
    /// Panics if `states.len() != cfg.ranks`.
    pub fn new(cfg: MachineConfig, mode: ExecMode, states: Vec<S>) -> Self {
        assert_eq!(
            states.len(),
            cfg.ranks,
            "state count {} != configured ranks {}",
            states.len(),
            cfg.ranks
        );
        let clocks = vec![Clock::default(); cfg.ranks];
        Self {
            cfg,
            mode,
            states,
            clocks,
            instruments: Instruments::default(),
            supersteps: 0,
        }
    }

    /// Run one engine operation: bump the superstep counter, fail
    /// if a kill fault strikes any rank now, and turn a rank panic into a
    /// typed error carrying the phase, superstep index and fault epoch.
    fn guarded(&mut self, phase: PhaseKind, op: impl FnOnce(&mut Self)) -> Result<(), SpmdError> {
        let step = self.supersteps;
        self.supersteps += 1;
        let epoch = self.instruments.fault_epoch;
        if let Some(plan) = &self.instruments.fault_plan {
            for r in 0..self.cfg.ranks {
                if plan.consume_kill(r, epoch, phase) {
                    return Err(SpmdError::on_rank(r, FailureCause::Killed { epoch })
                        .in_phase(phase, step, epoch));
                }
            }
        }
        catch_unwind(AssertUnwindSafe(|| op(self)))
            .map_err(|p| SpmdError::from_panic_payload(p).in_phase(phase, step, epoch))
    }

    /// Per-rank clocks (all equal after a barrier).
    pub fn clocks(&self) -> &[Clock] {
        &self.clocks
    }
}

impl<S: Send> SpmdEngine<S> for Machine<S> {
    fn build(cfg: MachineConfig, mode: ExecMode, states: Vec<S>) -> Self {
        Machine::new(cfg, mode, states)
    }

    fn num_ranks(&self) -> usize {
        self.cfg.ranks
    }

    fn machine_config(&self) -> &MachineConfig {
        &self.cfg
    }

    fn ranks(&self) -> &[S] {
        &self.states
    }

    fn ranks_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    fn into_ranks(self) -> Vec<S> {
        self.states
    }

    /// Modeled elapsed time: the slowest rank's total.
    fn elapsed_s(&self) -> f64 {
        self.clocks.iter().map(Clock::total_s).fold(0.0, f64::max)
    }

    fn compute_s(&self) -> f64 {
        self.clocks.iter().map(|c| c.compute_s).fold(0.0, f64::max)
    }

    fn instruments(&self) -> &Instruments {
        &self.instruments
    }

    fn instruments_mut(&mut self) -> &mut Instruments {
        &mut self.instruments
    }

    fn superstep<M, F, G>(
        &mut self,
        phase: PhaseKind,
        compute: F,
        deliver: G,
    ) -> Result<(), SpmdError>
    where
        M: Payload,
        F: Fn(usize, &mut S, &mut PhaseCtx, &mut Outbox<M>) + Sync,
        G: Fn(usize, &mut S, &mut PhaseCtx, Vec<(usize, M)>) + Sync,
    {
        self.guarded(phase, |m| {
            let p = m.cfg.ranks;

            // --- compute half-step ---------------------------------------------
            let run_compute = |r: usize, s: &mut S, (): ()| {
                let mut ctx = PhaseCtx::default();
                let mut outbox = Outbox::new(p);
                compute(r, s, &mut ctx, &mut outbox);
                (outbox.msgs, ctx.ops)
            };
            let outputs: Vec<(Vec<(usize, M)>, f64)> = match m.mode {
                ExecMode::Sequential => m
                    .states
                    .iter_mut()
                    .enumerate()
                    .map(|(r, s)| run_compute(r, s, ()))
                    .collect(),
                ExecMode::HostThreads => {
                    host_par::par_map(&mut m.states, vec![(); p], &run_compute)
                }
            };

            // --- route ---------------------------------------------------------
            let mut rows = vec![RankRow::default(); p];
            let mut compute_ops = vec![0.0f64; p];
            let mut inboxes: Vec<Vec<(usize, M)>> = (0..p).map(|_| Vec::new()).collect();
            // Per-pair tallies for the metrics comm matrix; only collected
            // when a registry is installed so the hot path stays alloc-free.
            // The router sees both ends of every transfer, so it logs the
            // sender and the receiver side from the same message.
            let log_pairs = m.instruments.metrics.is_some();
            for (from, (msgs, ops)) in outputs.into_iter().enumerate() {
                compute_ops[from] = ops;
                for (to, msg) in msgs {
                    if to != from {
                        let bytes = msg.size_bytes() as u64;
                        rows[from].msgs_sent += 1;
                        rows[from].bytes_sent += bytes;
                        rows[to].msgs_recv += 1;
                        rows[to].bytes_recv += bytes;
                        if log_pairs {
                            rows[from].sent_to.push((to, 1, bytes));
                            rows[to].recv_from.push((from, 1, bytes));
                        }
                    }
                    inboxes[to].push((from, msg));
                }
            }

            // --- deliver half-step ---------------------------------------------
            let deliver_ops: Vec<f64> = {
                let run_deliver = |r: usize, s: &mut S, inbox: Vec<(usize, M)>| {
                    let mut ctx = PhaseCtx::default();
                    deliver(r, s, &mut ctx, inbox);
                    ctx.ops
                };
                match m.mode {
                    ExecMode::Sequential => m
                        .states
                        .iter_mut()
                        .enumerate()
                        .zip(inboxes)
                        .map(|((r, s), inbox)| run_deliver(r, s, inbox))
                        .collect(),
                    ExecMode::HostThreads => {
                        host_par::par_map(&mut m.states, inboxes, &run_deliver)
                    }
                }
            };

            // --- charge clocks and barrier -------------------------------------
            let start = m.clocks.first().map_or(0.0, Clock::total_s);
            for (r, row) in rows.iter_mut().enumerate() {
                row.compute_s = m.cfg.compute_cost(compute_ops[r] + deliver_ops[r]);
                row.comm_s = row.msgs_sent as f64 * m.cfg.tau
                    + row.bytes_sent as f64 * m.cfg.mu
                    + row.msgs_recv as f64 * m.cfg.tau
                    + row.bytes_recv as f64 * m.cfg.mu;
                m.clocks[r].advance_compute(row.compute_s);
                m.clocks[r].advance_comm(row.comm_s);
            }
            let elapsed = m.elapsed_s() - start;
            let barrier = start + elapsed;
            for c in &mut m.clocks {
                c.sync_to(barrier);
            }
            m.instruments
                .record(&m.cfg, phase, start, elapsed, Shares::Ranks(&rows));
        })
    }

    /// The modeled share is the maximum contribution size (recursive
    /// doubling is bottlenecked by the largest share).
    fn allgatherv<T, F, G>(
        &mut self,
        phase: PhaseKind,
        bytes_per_item: usize,
        extract: F,
        apply: G,
    ) -> Result<(), SpmdError>
    where
        T: Clone + Send,
        F: Fn(usize, &S) -> Vec<T> + Sync,
        G: Fn(usize, &mut S, &[T]) + Sync,
    {
        self.guarded(phase, |m| {
            let parts: Vec<Vec<T>> = m
                .states
                .iter()
                .enumerate()
                .map(|(r, s)| extract(r, s))
                .collect();
            let max_share = parts.iter().map(Vec::len).max().unwrap_or(0);
            let concat: Vec<T> = parts.into_iter().flatten().collect();
            for (r, s) in m.states.iter_mut().enumerate() {
                apply(r, s, &concat);
            }
            m.recursive_doubling(phase, max_share * bytes_per_item);
        })
    }

    /// Each rank is charged a pipelined tree reduction over the whole
    /// array, the dominant cost of the replicated-grid method (Lubeck &
    /// Faber baseline) at scale.
    fn allreduce_elementwise<T, F, R, G>(
        &mut self,
        phase: PhaseKind,
        share_bytes: usize,
        extract: F,
        reduce: R,
        apply: G,
    ) -> Result<(), SpmdError>
    where
        T: Clone + Send,
        F: Fn(usize, &S) -> Vec<T> + Sync,
        R: Fn(&T, &T) -> T + Sync,
        G: Fn(usize, &mut S, &[T]) + Sync,
    {
        self.guarded(phase, |m| {
            let mut it = m.states.iter().enumerate().map(|(r, s)| extract(r, s));
            let mut acc = it.next().expect("machine has at least one rank");
            for v in it {
                assert_eq!(v.len(), acc.len(), "ragged allreduce contributions");
                for (a, b) in acc.iter_mut().zip(&v) {
                    *a = reduce(a, b);
                }
            }
            for (r, s) in m.states.iter_mut().enumerate() {
                apply(r, s, &acc);
            }
            m.pipelined_tree(phase, share_bytes);
        })
    }

    /// Level all clocks to the slowest rank (idle -> comm).
    fn barrier(&mut self) -> Result<(), SpmdError> {
        self.guarded(PhaseKind::Other, |m| {
            let barrier = m.elapsed_s();
            for c in &mut m.clocks {
                c.sync_to(barrier);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(p: usize) -> MachineConfig {
        MachineConfig {
            ranks: p,
            tau: 1.0,
            mu: 0.1,
            delta: 0.01,
            topology: crate::Topology::FullyConnected,
        }
    }

    #[test]
    fn ring_exchange_delivers_in_sender_order() {
        let mut m = Machine::new(tiny(4), ExecMode::Sequential, vec![Vec::<usize>::new(); 4]);
        m.superstep(
            PhaseKind::Other,
            |r, _s, _ctx, ob: &mut Outbox<Vec<u64>>| {
                // everyone sends to rank 0
                ob.send(0, vec![r as u64]);
            },
            |_r, s, _ctx, inbox| {
                for (from, _msg) in inbox {
                    s.push(from);
                }
            },
        )
        .unwrap();
        assert_eq!(m.ranks()[0], vec![0, 1, 2, 3]);
        assert!(m.ranks()[1].is_empty());
    }

    #[test]
    fn self_messages_are_free() {
        let mut m = Machine::new(tiny(2), ExecMode::Sequential, vec![0u64; 2]);
        m.superstep(
            PhaseKind::Other,
            |r, _s, _ctx, ob: &mut Outbox<Vec<u64>>| ob.send(r, vec![1, 2, 3]),
            |_r, s, _ctx, inbox| *s += inbox.len() as u64,
        )
        .unwrap();
        let rec = m.stats().records()[0];
        assert_eq!(rec.total_msgs, 0);
        assert_eq!(rec.total_bytes, 0);
        assert_eq!(rec.elapsed_s, 0.0);
        assert_eq!(m.ranks(), &[1, 1]);
    }

    #[test]
    fn off_rank_message_costs_tau_plus_mu() {
        let mut m = Machine::new(tiny(2), ExecMode::Sequential, vec![(); 2]);
        m.superstep(
            PhaseKind::Scatter,
            |r, _s, _ctx, ob: &mut Outbox<Vec<f64>>| {
                if r == 0 {
                    ob.send(1, vec![0.0; 10]); // 80 bytes
                }
            },
            |_, _, _, _| {},
        )
        .unwrap();
        let rec = m.stats().records()[0];
        assert_eq!(rec.max_bytes_sent, 80);
        assert_eq!(rec.max_msgs_sent, 1);
        assert_eq!(rec.max_msgs_recv, 1);
        // sender pays tau + 80 mu = 1 + 8; receiver the same; elapsed is
        // the max single-rank cost, i.e. 9.
        assert!((rec.elapsed_s - 9.0).abs() < 1e-12, "{}", rec.elapsed_s);
        // both clocks synced to the barrier
        assert!((m.clocks()[0].total_s() - 9.0).abs() < 1e-12);
        assert!((m.clocks()[1].total_s() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn compute_ops_charged_via_delta() {
        let mut m = Machine::new(tiny(2), ExecMode::Sequential, vec![(); 2]);
        m.local_step(PhaseKind::Push, |r, _s, ctx| {
            ctx.charge_ops(if r == 0 { 100.0 } else { 300.0 });
        })
        .unwrap();
        // slowest rank: 300 * 0.01 = 3.0
        assert!((m.elapsed_s() - 3.0).abs() < 1e-12);
        let rec = m.stats().records()[0];
        assert!((rec.max_compute_s - 3.0).abs() < 1e-12);
        // rank 0 idled 2.0s, charged to comm by the barrier
        assert!((m.clocks()[0].comm_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_and_rayon_agree() {
        let run = |mode| {
            let mut m = Machine::new(tiny(8), mode, (0..8u64).collect::<Vec<_>>());
            for _ in 0..5 {
                m.superstep(
                    PhaseKind::Other,
                    |r, s, ctx, ob: &mut Outbox<Vec<u64>>| {
                        ctx.charge_ops(*s as f64);
                        ob.send((r + 3) % 8, vec![*s]);
                        ob.send((r + 5) % 8, vec![*s * 2]);
                    },
                    |_r, s, _ctx, inbox| {
                        for (from, msg) in inbox {
                            *s = s.wrapping_add(msg[0]).wrapping_mul(from as u64 | 1);
                        }
                    },
                )
                .unwrap();
            }
            (m.ranks().to_vec(), m.elapsed_s())
        };
        let (seq_states, seq_t) = run(ExecMode::Sequential);
        let (par_states, par_t) = run(ExecMode::HostThreads);
        assert_eq!(seq_states, par_states);
        assert!((seq_t - par_t).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sending_to_invalid_rank_panics() {
        let mut m = Machine::new(tiny(2), ExecMode::Sequential, vec![(); 2]);
        m.superstep(
            PhaseKind::Other,
            |_r, _s, _ctx, ob: &mut Outbox<Vec<u64>>| ob.send(7, vec![]),
            |_, _, _, _| {},
        )
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "state count")]
    fn state_count_mismatch_panics() {
        let _ = Machine::new(tiny(3), ExecMode::Sequential, vec![(); 2]);
    }

    #[test]
    fn stats_track_max_over_ranks() {
        let mut m = Machine::new(tiny(3), ExecMode::Sequential, vec![(); 3]);
        m.superstep(
            PhaseKind::Scatter,
            |r, _s, _ctx, ob: &mut Outbox<Vec<u8>>| {
                // rank 2 sends the most
                for _ in 0..=r {
                    ob.send((r + 1) % 3, vec![0u8; 4]);
                }
            },
            |_, _, _, _| {},
        )
        .unwrap();
        let rec = m.stats().records()[0];
        assert_eq!(rec.max_msgs_sent, 3);
        assert_eq!(rec.max_bytes_sent, 12);
        assert_eq!(rec.total_msgs, 6);
        assert_eq!(rec.total_bytes, 24);
    }
}
