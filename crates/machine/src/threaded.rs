//! The mailbox transport under [`crate::ThreadedMachine`].
//!
//! Every engine operation connects its rank threads by a fresh set of
//! mailboxes, one channel per rank, and runs at most one **batch round**
//! on them: every rank sends one batch wire to every rank (itself
//! included, round-tripping through its own channel) and collects the `p`
//! batches indexed by sender.  That one round is both collectives the
//! engine needs:
//!
//! * [`Mailbox::exchange`], the all-to-many step of a superstep: the batch
//!   for `to` holds everything this rank sends `to`, in send order, and an
//!   empty batch doubles as the "nothing from me" handshake.  One wire per
//!   rank pair keeps the wakeup count of an exchange at `p` per rank,
//!   where a count-then-stream protocol would wake a blocked receiver once
//!   per message — painful when ranks outnumber host cores;
//! * [`Mailbox::allgather`], under `allgatherv` and the element-wise
//!   all-reduce: every batch holds the sender's whole contribution.
//!
//! Mailboxes never outlive their operation, so every wire a rank
//! receives belongs to the round it is in.
//!
//! ## Failure semantics
//!
//! A failing rank must not leave peers blocked in a receive forever
//! (every mailbox holds a clone of every sender — including its own — so
//! channels never close on their own).  Three mechanisms bound every
//! operation:
//!
//! * **poison propagation** — the engine runs each rank's job under
//!   `catch_unwind`; on failure it broadcasts a poison wire to every rank
//!   ([`poison_all`]), and any rank that receives poison unwinds in turn,
//!   so the operation collapses promptly and [`resolve_rank_results`]
//!   returns the *root* cause as a typed [`SpmdError`];
//! * **retry with exponential backoff** — a blocking receive waits in
//!   slices starting at [`RETRY_INITIAL_BACKOFF`] and doubling up to
//!   [`RETRY_MAX_BACKOFF`]; each expired slice retransmits any batch this
//!   rank still owes its peers (see fault injection below), so
//!   transiently lost wires recover without aborting the run;
//! * **receive deadline** — when the cumulative wait exceeds the engine's
//!   timeout (default [`DEFAULT_RECV_TIMEOUT`]), the rank fails with a
//!   structured [`TimeoutDetail`] carrying the operation, expected vs
//!   received batch counts and the senders still outstanding, instead of
//!   hanging the process.
//!
//! ## Fault injection
//!
//! A [`Mailbox`] optionally carries a [`FaultSession`] (one rank's view of
//! a seeded [`FaultPlan`](crate::FaultPlan)).  Benign faults act at the
//! wire level — a delayed send sleeps, a reordered round visits
//! destinations in a scrambled order, a dropped batch is withheld and
//! retransmitted by the backoff loop or at operation exit.  Kill faults
//! abort the rank at its next mailbox operation with a typed `Killed`
//! failure.  Correct runs produce bit-identical results under any benign
//! plan; the chaos suite asserts this.

use std::any::Any;
use std::panic::panic_any;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::Duration;

use crate::error::{FailureCause, RankFailure, SpmdError, TimeoutDetail};
use crate::fault::{FaultSession, SendFault};

/// Default cumulative per-receive deadline before an operation is
/// declared deadlocked.
pub(crate) const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// First wait slice of the receive retry loop; each expiry retransmits
/// this rank's withheld batches and doubles the slice.
const RETRY_INITIAL_BACKOFF: Duration = Duration::from_millis(2);

/// Upper bound of the exponential backoff between retransmissions.
const RETRY_MAX_BACKOFF: Duration = Duration::from_millis(256);

/// Panic payload used when a rank aborts because a *peer* failed.
/// [`resolve_rank_results`] filters these out so the root cause is what
/// callers see.
pub(crate) struct PoisonedBy(pub(crate) usize);

/// What travels on the wire between rank threads.
pub(crate) enum Wire<M> {
    /// Everything one rank sends this destination in the operation's
    /// batch round, in send order (possibly empty).
    Batch(Vec<M>),
    /// The sending rank failed; receivers must unwind.
    Poison,
}

/// Handle to the channels of one rank inside one engine operation.
pub(crate) struct Mailbox<M> {
    rank: usize,
    senders: Vec<Sender<(usize, Wire<M>)>>,
    receiver: Receiver<(usize, Wire<M>)>,
    /// `(destination, batch)` withheld by an injected drop fault, waiting
    /// for retransmission.
    lost: Vec<(usize, Vec<M>)>,
    timeout: Duration,
    fault: Option<FaultSession>,
}

/// Build the `p` connected mailboxes of one operation; rank `r`'s mailbox
/// carries the fault session `fault(r)`.
pub(crate) fn make_mailboxes<M>(
    p: usize,
    timeout: Duration,
    mut fault: impl FnMut(usize) -> Option<FaultSession>,
) -> Vec<Mailbox<M>> {
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..p).map(|_| channel()).unzip();
    receivers
        .into_iter()
        .enumerate()
        .map(|(rank, receiver)| Mailbox {
            rank,
            senders: senders.clone(),
            receiver,
            lost: Vec::new(),
            timeout,
            fault: fault(rank),
        })
        .collect()
}

impl<M> Mailbox<M> {
    /// Retransmit every batch withheld by a drop fault.  Retransmission
    /// bypasses fault injection — a retried batch is never dropped again,
    /// so delivery is guaranteed.
    fn flush_lost(&mut self) {
        for (to, batch) in self.lost.drain(..) {
            let _ = self.senders[to].send((self.rank, Wire::Batch(batch)));
        }
    }
}

impl<M> Drop for Mailbox<M> {
    fn drop(&mut self) {
        // A rank may unwind right after a send that a fault withheld;
        // peers are still waiting on it, so the last flush happens here.
        self.flush_lost();
    }
}

impl<M: Send> Mailbox<M> {
    /// Clones of every rank's sender (for poison broadcasting by the
    /// job wrapper, which outlives the mailbox itself).
    pub(crate) fn sender_clones(&self) -> Vec<Sender<(usize, Wire<M>)>> {
        self.senders.clone()
    }

    /// Abort the rank if a kill fault is armed for it right now.  Every
    /// engine operation passes through here, including the ones that
    /// communicate nothing (`local_step`, `barrier`).
    pub(crate) fn check_kill(&self) {
        if let Some(fault) = &self.fault {
            if fault.should_kill() {
                panic_any(RankFailure::Killed {
                    rank: self.rank,
                    epoch: fault.epoch(),
                });
            }
        }
    }

    /// Send one batch to `to`, unless a fault delays or withholds it.
    fn send_batch(&mut self, to: usize, batch: Vec<M>) {
        let verdict = match self.fault.as_mut() {
            Some(f) => f.on_send(),
            None => SendFault::Deliver,
        };
        match verdict {
            SendFault::Deliver => {}
            SendFault::Delay(d) => thread::sleep(d),
            SendFault::Drop => {
                self.lost.push((to, batch));
                return;
            }
        }
        // A closed channel means the receiving thread is gone, which only
        // happens when the operation is already unwinding; drop silently
        // so the first failure stays the root cause.
        let _ = self.senders[to].send((self.rank, Wire::Batch(batch)));
    }

    /// Next batch from any sender.
    ///
    /// Waits in exponentially growing slices; each expired slice
    /// retransmits this rank's withheld batches (a peer may be blocked on
    /// one of them).  Once the cumulative wait exceeds the timeout, aborts
    /// the rank with a typed timeout whose [`TimeoutDetail`] is read off
    /// `got`, the batches received so far indexed by sender.
    fn next_batch(&mut self, operation: &'static str, got: &[Option<Vec<M>>]) -> (usize, Vec<M>) {
        let mut waited = Duration::ZERO;
        let mut backoff = RETRY_INITIAL_BACKOFF;
        loop {
            let slice = backoff.min(self.timeout.saturating_sub(waited));
            if slice.is_zero() {
                panic_any(RankFailure::Timeout {
                    rank: self.rank,
                    detail: TimeoutDetail {
                        operation,
                        expected: got.len(),
                        received: got.iter().filter(|g| g.is_some()).count(),
                        in_flight: got.iter().map(|g| usize::from(g.is_none())).collect(),
                        waited,
                    },
                });
            }
            match self.receiver.recv_timeout(slice) {
                Ok((from, Wire::Batch(batch))) => return (from, batch),
                Ok((from, Wire::Poison)) => panic_any(PoisonedBy(from)),
                Err(RecvTimeoutError::Timeout) => {
                    waited += slice;
                    self.flush_lost();
                    backoff = (backoff * 2).min(RETRY_MAX_BACKOFF);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic_any(RankFailure::Disconnected { rank: self.rank })
                }
            }
        }
    }

    /// The batch round: send `batches[to]` to every rank `to`, then
    /// return the batch every rank sent this one, indexed by sender.  An
    /// injected reorder fault only scrambles which destination is served
    /// first, so results never change.
    fn round(&mut self, operation: &'static str, mut batches: Vec<Vec<M>>) -> Vec<Vec<M>> {
        self.check_kill();
        let p = self.senders.len();
        let mut order: Vec<usize> = (0..p).collect();
        if let Some(f) = self.fault.as_mut() {
            if f.reorder_exchange() {
                order = f.destination_permutation(p);
            }
        }
        for to in order {
            let batch = std::mem::take(&mut batches[to]);
            self.send_batch(to, batch);
        }
        let mut got: Vec<Option<Vec<M>>> = (0..p).map(|_| None).collect();
        for _ in 0..p {
            let (from, batch) = self.next_batch(operation, &got);
            assert!(
                got[from].is_none(),
                "rank {from} sent two batches in one round"
            );
            got[from] = Some(batch);
        }
        self.flush_lost();
        got.into_iter()
            .map(|batch| batch.expect("one batch per sender"))
            .collect()
    }

    /// All-to-many exchange of `(destination, message)` pairs.  Returns
    /// the inbox sorted by sender rank with per-sender order preserved —
    /// exactly the modeled machine's delivery order.
    pub(crate) fn exchange(&mut self, outgoing: Vec<(usize, M)>) -> Vec<(usize, M)> {
        let mut batches: Vec<Vec<M>> = (0..self.senders.len()).map(|_| Vec::new()).collect();
        for (to, msg) in outgoing {
            batches[to].push(msg);
        }
        self.round("exchange", batches)
            .into_iter()
            .enumerate()
            .flat_map(|(from, msgs)| msgs.into_iter().map(move |m| (from, m)))
            .collect()
    }

    /// Contribute `values` to every rank; returns every rank's
    /// contribution indexed by rank.
    pub(crate) fn allgather(&mut self, values: Vec<M>) -> Vec<Vec<M>>
    where
        M: Clone,
    {
        let p = self.senders.len();
        self.round("allgather", vec![values; p])
    }
}

/// Broadcast poison to every rank (used by the job wrapper on failure).
pub(crate) fn poison_all<M: Send>(rank: usize, senders: &[Sender<(usize, Wire<M>)>]) {
    for tx in senders {
        let _ = tx.send((rank, Wire::Poison));
    }
}

/// Split per-rank outcomes into results or the error to surface.
///
/// When several ranks failed, the *root cause* wins: a [`PoisonedBy`]
/// payload means the rank only unwound because a peer died, so any
/// non-poison payload takes precedence regardless of rank order.  An
/// operation that only saw poison (root thread died without unwinding
/// through `catch_unwind`, e.g. via abort-on-double-panic) still names
/// the rank whose poison was received.
pub(crate) fn resolve_rank_results<R>(
    outcomes: Vec<Result<R, Box<dyn Any + Send>>>,
) -> Result<Vec<R>, SpmdError> {
    let mut results = Vec::with_capacity(outcomes.len());
    let mut root: Option<Box<dyn Any + Send>> = None;
    let mut poisoned_by: Option<usize> = None;
    for outcome in outcomes {
        match outcome {
            Ok(r) => results.push(r),
            Err(e) => match e.downcast::<PoisonedBy>() {
                Ok(p) => {
                    poisoned_by.get_or_insert(p.0);
                }
                Err(e) => {
                    root.get_or_insert(e);
                }
            },
        }
    }
    match (root, poisoned_by) {
        (Some(payload), _) => Err(SpmdError::from_panic_payload(payload)),
        (None, Some(by)) => Err(SpmdError::on_rank(by, FailureCause::Poisoned { by })),
        (None, None) => Ok(results),
    }
}

#[cfg(test)]
mod tests {
    //! The transport is tested through the engine that ships it.

    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use crate::{
        FailureCause, FaultNoise, FaultPlan, MachineConfig, Outbox, PhaseKind, SpmdEngine,
        ThreadedMachine, Topology,
    };

    fn machine<S: Send>(states: Vec<S>) -> ThreadedMachine<S> {
        let cfg = MachineConfig {
            ranks: states.len(),
            tau: 1.0,
            mu: 0.1,
            delta: 0.01,
            topology: Topology::FullyConnected,
        };
        ThreadedMachine::new(cfg, states)
    }

    /// A machine whose operations run under `plan` at fault epoch 0.
    fn planned<S: Send>(states: Vec<S>, plan: Arc<FaultPlan>) -> ThreadedMachine<S> {
        let mut m = machine(states).with_timeout(Duration::from_secs(20));
        m.instruments_mut().fault_plan = Some(plan);
        m
    }

    /// Every rank sends `per_peer` messages to every rank (itself too)
    /// and keeps its inbox as `(sender, value)` pairs.
    fn all_to_all<E: SpmdEngine<Vec<(usize, u64)>>>(m: &mut E, per_peer: u64) {
        let p = m.num_ranks();
        m.superstep(
            PhaseKind::Other,
            |r, _s, _ctx, ob: &mut Outbox<Vec<u64>>| {
                for to in 0..p {
                    for k in 0..per_peer {
                        ob.send(to, vec![(r * 1000 + to * 10) as u64 + k]);
                    }
                }
            },
            |_r, s, _ctx, inbox| s.extend(inbox.into_iter().map(|(from, v)| (from, v[0]))),
        )
        .expect("all-to-all superstep");
    }

    #[test]
    fn ring_rotation_on_real_threads() {
        let mut m = machine(vec![0u64; 4]);
        m.superstep(
            PhaseKind::Other,
            |r, _s, _ctx, ob: &mut Outbox<Vec<u64>>| ob.send((r + 1) % 4, vec![r as u64 * 100]),
            |_r, s, _ctx, inbox| *s = inbox[0].1[0],
        )
        .expect("fault-free run");
        assert_eq!(m.ranks(), &[300, 0, 100, 200]);
    }

    #[test]
    fn all_to_all_is_deterministic() {
        let mut m = machine(vec![Vec::new(); 8]);
        all_to_all(&mut m, 1);
        for (r, got) in m.ranks().iter().enumerate() {
            let expect: Vec<(usize, u64)> =
                (0..8).map(|s| (s, (s * 1000 + r * 10) as u64)).collect();
            assert_eq!(got, &expect, "rank {r}");
        }
    }

    #[test]
    fn exchange_handshake_round_trips() {
        // rank r sends k = r messages, spread over peers (r+1)..(r+1+r);
        // most rank pairs exchange only the empty handshake batch
        let mut m = machine(vec![Vec::<(usize, Vec<u64>)>::new(); 6]);
        m.superstep(
            PhaseKind::Other,
            |r, _s, _ctx, ob: &mut Outbox<Vec<u64>>| {
                for k in 0..r {
                    ob.send((r + 1 + k) % 6, vec![r as u64, k as u64]);
                }
            },
            |_r, s, _ctx, inbox| *s = inbox,
        )
        .expect("fault-free run");
        let total: usize = m.ranks().iter().map(Vec::len).sum();
        assert_eq!(total, (0..6).sum::<usize>());
        for inbox in m.ranks() {
            // sorted by sender, per-sender send order preserved
            assert!(inbox.windows(2).all(|w| w[0].0 <= w[1].0));
            for w in inbox.windows(2) {
                if w[0].0 == w[1].0 {
                    assert!(w[0].1[1] < w[1].1[1]);
                }
            }
        }
    }

    #[test]
    fn collectives_agree_with_direct_computation() {
        let mut m = machine(vec![(Vec::<u64>::new(), Vec::<u64>::new()); 5]);
        m.allgather(
            PhaseKind::Setup,
            8,
            |r, _s| r as u64 * 7,
            |_r, s, all| s.0 = all.to_vec(),
        )
        .expect("allgather");
        m.allgatherv(
            PhaseKind::Setup,
            8,
            |r, _s| vec![r as u64; r],
            |_r, s, concat| s.1 = concat.to_vec(),
        )
        .expect("allgatherv");
        m.barrier().expect("barrier");
        let expect_concat: Vec<u64> = (0..5u64).flat_map(|r| vec![r; r as usize]).collect();
        for (gathered, concat) in m.ranks() {
            assert_eq!(gathered, &[0, 7, 14, 21, 28]);
            assert_eq!(concat, &expect_concat);
        }
    }

    #[test]
    fn panicking_rank_fails_the_run_promptly() {
        for p in [1usize, 2, 4, 8] {
            let mut m = machine(vec![0u64; p]).with_timeout(Duration::from_secs(20));
            let start = Instant::now();
            let err = m
                .superstep(
                    PhaseKind::Other,
                    move |r, _s, _ctx, _ob: &mut Outbox<Vec<u64>>| {
                        if r == p / 2 {
                            panic!("injected failure on rank {r}");
                        }
                        // everyone else goes on to wait for its batch
                    },
                    |_, _, _, _| {},
                )
                .expect_err("run must fail");
            match &err.cause {
                FailureCause::Panic(msg) => {
                    assert!(msg.contains("injected failure"), "p={p}: got {msg:?}")
                }
                other => panic!("p={p}: expected Panic cause, got {other:?}"),
            }
            assert!(
                start.elapsed() < Duration::from_secs(15),
                "p={p}: failure must propagate promptly, took {:?}",
                start.elapsed()
            );
        }
    }

    /// A rank that stalls past the deadline looks deadlocked to its
    /// peers: the superstep fails with the timeout of a waiting rank,
    /// and the rank pool serves the next superstep.
    #[test]
    fn deadlock_times_out_with_structured_detail() {
        let p = 4;
        let sleeper = 1;
        let mut m = machine(vec![0u64; p]).with_timeout(Duration::from_millis(200));
        let start = Instant::now();
        let err = m
            .superstep(
                PhaseKind::Scatter,
                |r, _s, _ctx, _ob: &mut Outbox<Vec<u64>>| {
                    if r == sleeper {
                        std::thread::sleep(Duration::from_secs(1));
                    }
                },
                |_, _, _, _| {},
            )
            .expect_err("a stalled rank must time its peers out");
        assert!(start.elapsed() < Duration::from_secs(10));
        assert!(err.is_timeout(), "got {err:?}");
        let rank = err.rank.expect("timeout must name a rank");
        assert!(
            rank < p && rank != sleeper,
            "named rank {rank} did not wait"
        );
        let FailureCause::Timeout(detail) = &err.cause else {
            panic!("expected timeout cause");
        };
        assert_eq!(detail.operation, "exchange");
        assert_eq!(detail.expected, p);
        assert!(detail.received < p, "{detail:?}");
        assert_eq!(detail.in_flight[sleeper], 1, "{detail:?}");
        assert!(detail.waited >= Duration::from_millis(200));
        m.superstep(
            PhaseKind::Scatter,
            |r, _s, _ctx, ob: &mut Outbox<Vec<u64>>| ob.send((r + 1) % p, vec![r as u64 + 1]),
            |_r, s, _ctx, inbox| *s = inbox[0].1[0],
        )
        .expect("the pool must serve the next superstep");
        assert_eq!(m.ranks(), &[4, 1, 2, 3]);
    }

    #[test]
    fn injected_kill_names_the_rank() {
        let plan = Arc::new(FaultPlan::new(3).kill(2, 0));
        let mut m = planned(vec![Vec::new(); 8], plan);
        let start = Instant::now();
        let err = m
            .superstep(
                PhaseKind::Other,
                |r, _s, _ctx, ob: &mut Outbox<Vec<u64>>| ob.send((r + 1) % 8, vec![r as u64]),
                |_r, s: &mut Vec<u64>, _ctx, inbox| s.push(inbox[0].1[0]),
            )
            .expect_err("killed run must fail");
        assert!(err.is_injected_kill(), "got {err:?}");
        assert_eq!(err.rank, Some(2));
        assert_eq!(err.epoch, Some(0));
        assert!(start.elapsed() < Duration::from_secs(15));
    }

    #[test]
    fn dropped_messages_are_retransmitted() {
        // Every batch from every rank is dropped on first attempt; the
        // backoff loop retransmits and the exchange still completes with
        // the fault-free result.
        let noisy = Arc::new(FaultPlan::new(11).with_noise(FaultNoise {
            delay_prob: 0.0,
            max_delay: Duration::ZERO,
            reorder_prob: 0.0,
            drop_prob: 1.0,
        }));
        let mut clean = machine(vec![Vec::new(); 4]);
        let mut faulty = planned(vec![Vec::new(); 4], noisy);
        all_to_all(&mut clean, 1);
        all_to_all(&mut faulty, 1);
        assert_eq!(clean.ranks(), faulty.ranks());
    }

    #[test]
    fn benign_noise_preserves_results() {
        fn program<E: SpmdEngine<Vec<(usize, u64)>>>(m: &mut E) {
            all_to_all(m, 3);
            m.allgather(
                PhaseKind::Other,
                8,
                |_r, s| (usize::MAX, s.iter().map(|(_, v)| v).sum::<u64>()),
                |_r, s, sums| s.extend_from_slice(sums),
            )
            .expect("allgather");
            m.barrier().expect("barrier");
        }
        let mut clean = machine(vec![Vec::new(); 6]);
        program(&mut clean);
        for seed in [1u64, 2, 3] {
            let mut noisy = planned(vec![Vec::new(); 6], Arc::new(FaultPlan::benign(seed)));
            program(&mut noisy);
            assert_eq!(clean.ranks(), noisy.ranks(), "seed {seed} changed results");
        }
    }
}
