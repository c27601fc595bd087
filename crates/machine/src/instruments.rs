//! One record per superstep, read by every observer.
//!
//! Each engine owns one [`Instruments`] value: the statistics log, the
//! optional trace recorder and metrics registry, the fault plan and
//! epoch, and the trace superstep counter.  Every superstep and
//! collective of either engine is written through one entry,
//! `Instruments::record`, which derives the [`SuperstepStats`] row, the
//! metrics family and communication-matrix entries, and the trace spans
//! and [`SuperstepEvent`] from the same facts.  The stats log, the
//! metrics and the trace therefore cannot disagree, and collective
//! message/byte accounting exists once for both engines.
//!
//! With no recorder and no metrics installed, recording is one stats
//! push: no allocation beyond the log's own growth, no lock.
//!
//! Drivers move the whole value across an engine rebuild (checkpoint
//! restart), so the trace numbering, the metrics and the fault plan
//! continue where the failed engine left them.

use std::sync::Arc;

use crate::config::MachineConfig;
use crate::fault::FaultPlan;
use crate::metrics::SharedMetrics;
use crate::stats::{PhaseKind, StatsLog, SuperstepStats};
use crate::trace::{Recorder, SpanEvent, SuperstepEvent, TraceEvent};

/// The observers of one engine, installed by the caller and fed by the
/// engine on every superstep and collective.
///
/// ```
/// use pic_machine::{Instruments, MemoryRecorder, SharedMetrics};
///
/// let instruments = Instruments {
///     recorder: Some(Box::new(MemoryRecorder::new())),
///     metrics: Some(SharedMetrics::new(4)),
///     ..Instruments::default()
/// };
/// assert_eq!(instruments.traced_steps, 0);
/// ```
#[derive(Default)]
pub struct Instruments {
    /// Superstep statistics log (the PIC driver drains it per iteration).
    pub stats: StatsLog,
    /// Observability sink.  Every superstep and collective emits
    /// per-rank [`SpanEvent`]s and one aggregated [`SuperstepEvent`] to
    /// it — modeled seconds on the BSP machine, wall-clock seconds on the
    /// threaded one — and drivers append their own events (see
    /// [`crate::trace`]).
    pub recorder: Option<Box<dyn Recorder>>,
    /// Metrics registry.  Every superstep and collective feeds its phase
    /// family and the rank-pair communication matrix, locking the
    /// registry once per superstep, never per message (see
    /// [`crate::metrics`]).
    pub metrics: Option<SharedMetrics>,
    /// Fault schedule for subsequent operations.  The modeled machine
    /// has no real wires, so it honors only kill faults; the threaded
    /// machine also honors delay, reorder and drop faults.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Epoch faults are matched against (the PIC driver uses its
    /// iteration number, so a plan can say "kill rank 2 at iteration 25").
    pub fault_epoch: u64,
    /// Supersteps emitted to the recorder so far: the index the next
    /// traced superstep gets.
    pub traced_steps: u64,
}

/// One rank's share of a point-to-point superstep.
#[derive(Debug, Clone, Default)]
pub(crate) struct RankRow {
    /// Computation seconds.
    pub compute_s: f64,
    /// Communication (and idle) seconds.
    pub comm_s: f64,
    /// Off-rank messages sent.
    pub msgs_sent: u64,
    /// Off-rank bytes sent.
    pub bytes_sent: u64,
    /// Off-rank messages received.
    pub msgs_recv: u64,
    /// Off-rank bytes received.
    pub bytes_recv: u64,
    /// `(to, msgs, bytes)` per off-rank send; logged only while metrics
    /// are installed.
    pub sent_to: Vec<(usize, u64, u64)>,
    /// `(from, msgs, bytes)` per off-rank receive, tallied on the
    /// receiving side; logged only while metrics are installed.
    pub recv_from: Vec<(usize, u64, u64)>,
}

/// How a superstep's time and traffic divide over the ranks.
#[derive(Clone, Copy)]
pub(crate) enum Shares<'a> {
    /// A point-to-point superstep: one row per rank.
    Ranks(&'a [RankRow]),
    /// A recursive-doubling collective (allgather, allgatherv,
    /// allreduce): each rank sends `stages` messages carrying
    /// `(p - 1) * share_bytes` bytes in total.
    Collective {
        /// Bytes one rank contributes.
        share_bytes: usize,
    },
    /// A pipelined tree reduction (element-wise allreduce): each rank
    /// sends `stages` messages of `share_bytes` bytes.
    Pipelined {
        /// Bytes of the reduced array.
        share_bytes: usize,
    },
}

impl Instruments {
    /// Record one superstep or collective of `phase` that started at
    /// `start_s` and took `elapsed_s` (engine seconds): push its stats
    /// row, feed the metrics and emit its trace events.  A collective
    /// charges every rank alike: comm time `elapsed_s`, no compute, and
    /// its algorithm's message/byte counts.  Returns the stats row.
    pub(crate) fn record(
        &mut self,
        cfg: &MachineConfig,
        phase: PhaseKind,
        start_s: f64,
        elapsed_s: f64,
        shares: Shares<'_>,
    ) -> SuperstepStats {
        let p = cfg.ranks;
        let stages = u64::from(cfg.topology.collective_stages(p));
        let msgs = if p > 1 { stages } else { 0 };
        let uniform_row = |bytes: usize| RankRow {
            comm_s: elapsed_s,
            msgs_sent: msgs,
            bytes_sent: bytes as u64,
            msgs_recv: msgs,
            bytes_recv: bytes as u64,
            ..RankRow::default()
        };
        let uniform = match shares {
            Shares::Ranks(_) => RankRow::default(),
            Shares::Collective { share_bytes } => uniform_row((p - 1) * share_bytes),
            Shares::Pipelined { share_bytes } => uniform_row(stages as usize * share_bytes),
        };
        let row = |rank: usize| match shares {
            Shares::Ranks(rows) => &rows[rank],
            _ => &uniform,
        };
        let max = |f: fn(&RankRow) -> u64| (0..p).map(|r| f(row(r))).max().unwrap_or(0);
        let stats = SuperstepStats {
            phase,
            max_msgs_sent: max(|r| r.msgs_sent),
            max_msgs_recv: max(|r| r.msgs_recv),
            max_bytes_sent: max(|r| r.bytes_sent),
            max_bytes_recv: max(|r| r.bytes_recv),
            total_msgs: (0..p).map(|r| row(r).msgs_sent).sum(),
            total_bytes: (0..p).map(|r| row(r).bytes_sent).sum(),
            max_compute_s: (0..p).map(|r| row(r).compute_s).fold(0.0, f64::max),
            max_comm_s: (0..p).map(|r| row(r).comm_s).fold(0.0, f64::max),
            elapsed_s,
        };
        self.stats.push(stats);

        if let Some(metrics) = &self.metrics {
            metrics.with(|reg| match shares {
                Shares::Ranks(rows) => {
                    for (rank, r) in rows.iter().enumerate() {
                        for &(to, msgs, bytes) in &r.sent_to {
                            reg.comm_mut().record_send(rank, to, msgs, bytes);
                        }
                        for &(from, msgs, bytes) in &r.recv_from {
                            reg.comm_mut().record_recv(rank, from, msgs, bytes);
                        }
                    }
                    reg.observe_superstep(phase, elapsed_s, stats.total_msgs, stats.total_bytes);
                }
                // collectives are attributed uniformly: one logical
                // message of the share to every ordered pair
                Shares::Collective { share_bytes } | Shares::Pipelined { share_bytes } => reg
                    .observe_collective(
                        phase,
                        elapsed_s,
                        share_bytes as u64,
                        stats.total_msgs,
                        stats.total_bytes,
                    ),
            });
        }

        if let Some(recorder) = &mut self.recorder {
            let step = self.traced_steps;
            self.traced_steps += 1;
            let epoch = self.fault_epoch;
            for rank in 0..p {
                let r = row(rank);
                recorder.record(&TraceEvent::Span(SpanEvent {
                    rank,
                    phase,
                    superstep: step,
                    epoch,
                    start_s,
                    compute_s: r.compute_s,
                    comm_s: r.comm_s,
                    end_s: start_s + r.compute_s + r.comm_s,
                    msgs_sent: r.msgs_sent,
                    msgs_recv: r.msgs_recv,
                    bytes_sent: r.bytes_sent,
                    bytes_recv: r.bytes_recv,
                }));
            }
            recorder.record(&TraceEvent::Superstep(SuperstepEvent {
                phase,
                superstep: step,
                epoch,
                start_s,
                elapsed_s,
                max_compute_s: stats.max_compute_s,
                max_comm_s: stats.max_comm_s,
                total_msgs: stats.total_msgs,
                total_bytes: stats.total_bytes,
                collective: !matches!(shares, Shares::Ranks(_)),
            }));
        }
        stats
    }
}
