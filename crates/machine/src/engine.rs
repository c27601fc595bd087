//! The executor abstraction: one SPMD phase program, two machines.
//!
//! Every PIC phase is written as a sequence of *supersteps* and
//! *collectives* against this trait, so the identical program runs on
//!
//! * the modeled BSP [`Machine`](crate::Machine) — deterministic,
//!   charges the paper's two-level (τ/μ/δ) cost model, reports **modeled
//!   seconds**; and
//! * the real-threads [`ThreadedMachine`](crate::ThreadedMachine) — one OS
//!   thread per virtual rank, genuine message passing over mailboxes,
//!   reports **wall-clock seconds**.
//!
//! Cross-validation tests assert that both executors produce bit-identical
//! rank states for full multi-iteration simulations; the bench binary
//! `threaded_vs_modeled` quantifies how far the cost model drifts from
//! real execution.
//!
//! ## Required and provided operations
//!
//! An engine implements [`SpmdEngine::superstep`],
//! [`SpmdEngine::allgatherv`], [`SpmdEngine::allreduce_elementwise`] and
//! [`SpmdEngine::barrier`].  The rest are provided, written once for
//! both engines: [`SpmdEngine::local_step`] is a superstep that sends
//! nothing (the threaded engine overrides it to skip the empty
//! exchange), [`SpmdEngine::allgather`] is an `allgatherv` of
//! one-element parts, and [`SpmdEngine::allreduce`] is an `allgather` of
//! 8-byte shares folded in rank order.  A provided collective is charged
//! and recorded exactly as the operation it is written in.
//!
//! ## Failure reporting
//!
//! Every communication operation returns `Result<(), SpmdError>` so a
//! rank failure — panic, receive timeout, injected kill, poisoned
//! mailbox — surfaces as a typed value carrying the failing rank, the
//! phase, the engine's superstep index, and the driver's fault epoch.
//! Fault schedules are installed in the engine's [`Instruments`] and
//! scoped in time by [`SpmdEngine::set_fault_epoch`] (the PIC driver sets
//! the epoch to the iteration number every iteration).  The modeled
//! machine honors only kill faults — it has no real wires for benign
//! delay/reorder/drop faults to act on; the threaded machine honors all
//! of them at the mailbox layer.

use crate::config::MachineConfig;
use crate::error::SpmdError;
use crate::instruments::Instruments;
use crate::machine::{ExecMode, Outbox, PhaseCtx};
use crate::payload::Payload;
use crate::stats::{PhaseKind, StatsLog};

/// A machine that can run SPMD phase programs over rank states of type `S`.
///
/// The closure bounds mirror the strictest executor (the threaded one,
/// which shares the closures across rank threads); the modeled machine
/// simply ignores the extra `Sync` requirement.
pub trait SpmdEngine<S: Send>: Sized {
    /// Build an engine whose rank `r` starts with `states[r]`.
    ///
    /// # Panics
    /// Panics if `states.len() != cfg.ranks`.
    fn build(cfg: MachineConfig, mode: ExecMode, states: Vec<S>) -> Self;

    /// Number of virtual ranks.
    fn num_ranks(&self) -> usize;

    /// The machine parameters the engine was built with.
    fn machine_config(&self) -> &MachineConfig;

    /// Immutable view of rank states.
    fn ranks(&self) -> &[S];

    /// Mutable view of rank states (setup only; not charged to clocks).
    fn ranks_mut(&mut self) -> &mut [S];

    /// Consume the engine, returning final rank states.
    fn into_ranks(self) -> Vec<S>;

    /// Elapsed seconds so far: modeled time on the BSP machine,
    /// accumulated wall-clock time on the threaded one.
    fn elapsed_s(&self) -> f64;

    /// Computation component of [`Self::elapsed_s`] (max over ranks).
    fn compute_s(&self) -> f64;

    /// The engine's observers: statistics log, recorder, metrics, fault
    /// plan and epoch.  Every superstep and collective is recorded into
    /// them once (see [`crate::instruments`]).
    fn instruments(&self) -> &Instruments;

    /// Mutable observers: install or take a recorder, metrics registry
    /// or fault plan, or move the whole set to a rebuilt engine.
    fn instruments_mut(&mut self) -> &mut Instruments;

    /// Superstep statistics log.
    fn stats(&self) -> &StatsLog {
        &self.instruments().stats
    }

    /// Mutable statistics log (drained per iteration by the PIC driver).
    fn stats_mut(&mut self) -> &mut StatsLog {
        &mut self.instruments_mut().stats
    }

    /// Set the fault epoch faults are matched against (drivers use their
    /// iteration counter, so plans can say "kill rank 2 at iteration 25").
    fn set_fault_epoch(&mut self, epoch: u64) {
        self.instruments_mut().fault_epoch = epoch;
    }

    /// Run one superstep: `compute` on every rank (may send messages),
    /// then `deliver` on every rank with its inbox sorted by sender rank
    /// (order within one sender preserved).
    fn superstep<M, F, G>(
        &mut self,
        phase: PhaseKind,
        compute: F,
        deliver: G,
    ) -> Result<(), SpmdError>
    where
        M: Payload,
        F: Fn(usize, &mut S, &mut PhaseCtx, &mut Outbox<M>) + Sync,
        G: Fn(usize, &mut S, &mut PhaseCtx, Vec<(usize, M)>) + Sync;

    /// A communication-free superstep.
    fn local_step<F>(&mut self, phase: PhaseKind, compute: F) -> Result<(), SpmdError>
    where
        F: Fn(usize, &mut S, &mut PhaseCtx) + Sync,
    {
        self.superstep::<(), _, _>(
            phase,
            move |r, s, ctx, _outbox| compute(r, s, ctx),
            |_, _, _, _| {},
        )
    }

    /// Global concatenation: every rank contributes one value, every rank
    /// receives the full rank-indexed vector.  Provided: an
    /// [`Self::allgatherv`] with one-element parts, so it is charged and
    /// recorded as a concatenation of `bytes_per_item` shares.
    fn allgather<T, F, G>(
        &mut self,
        phase: PhaseKind,
        bytes_per_item: usize,
        extract: F,
        apply: G,
    ) -> Result<(), SpmdError>
    where
        T: Clone + Send,
        F: Fn(usize, &S) -> T + Sync,
        G: Fn(usize, &mut S, &[T]) + Sync,
    {
        self.allgatherv(
            phase,
            bytes_per_item,
            move |r, s| vec![extract(r, s)],
            apply,
        )
    }

    /// Global concatenation of vectors, in rank order.
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
        G: Fn(usize, &mut S, &[T]) + Sync;

    /// All-reduce with a caller-supplied fold.  Provided: an
    /// [`Self::allgather`] of 8-byte shares whose `apply` folds the
    /// gathered values in rank order, so floating-point results are
    /// bit-identical across executors.
    fn allreduce<T, F, R, G>(
        &mut self,
        phase: PhaseKind,
        extract: F,
        reduce: R,
        apply: G,
    ) -> Result<(), SpmdError>
    where
        T: Clone + Send,
        F: Fn(usize, &S) -> T + Sync,
        R: Fn(T, T) -> T + Sync,
        G: Fn(usize, &mut S, &T) + Sync,
    {
        self.allgather(phase, 8, extract, move |r, s, all: &[T]| {
            let (first, rest) = all.split_first().expect("machine has at least one rank");
            let folded = rest.iter().cloned().fold(first.clone(), &reduce);
            apply(r, s, &folded);
        })
    }

    /// Element-wise all-reduce of per-rank arrays (rank-ordered fold).
    /// Fails with a panic cause if ranks contribute arrays of different
    /// lengths.
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
        G: Fn(usize, &mut S, &[T]) + Sync;

    /// Synchronize all ranks.
    fn barrier(&mut self) -> Result<(), SpmdError>;
}
