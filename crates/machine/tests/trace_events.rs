//! Property tests: the trace event stream agrees with the superstep
//! statistics the machine already reports.
//!
//! The [`StatsLog`](pic_machine::StatsLog) is the oracle: it is computed
//! from the same per-rank counters the span events are built from, but
//! through an independent code path (max/sum folds at the barrier vs.
//! per-rank event emission).  Any disagreement means one of the two
//! aggregations dropped a rank, double-charged a collective, or mixed
//! up supersteps.

use pic_machine::{
    ExecMode, Machine, MachineConfig, MemoryRecorder, MetricsReport, PhaseKind, SharedMetrics,
    SharedRecorder, SpmdEngine, ThreadedMachine, Topology, TraceEvent,
};
use proptest::prelude::*;

fn cfg(p: usize) -> MachineConfig {
    MachineConfig {
        ranks: p,
        tau: 1.0,
        mu: 0.01,
        delta: 0.001,
        topology: Topology::FullyConnected,
    }
}

/// Group span events by superstep id, in emission order.
fn spans_by_step(events: &[TraceEvent]) -> Vec<(u64, Vec<&pic_machine::SpanEvent>)> {
    let mut out: Vec<(u64, Vec<&pic_machine::SpanEvent>)> = Vec::new();
    for ev in events {
        if let TraceEvent::Span(s) = ev {
            match out.last_mut() {
                Some((step, group)) if *step == s.superstep => group.push(s),
                _ => out.push((s.superstep, vec![s])),
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every modeled superstep: the per-rank spans reproduce the
    /// `SuperstepStats` record bit-for-bit — max compute, max comm,
    /// total messages and total bytes over ranks, and the superstep
    /// event's elapsed time.
    #[test]
    fn modeled_span_totals_equal_superstep_stats(
        p in 1usize..9,
        steps in 1usize..5,
        fanout in 0usize..4,
        ops in 0u64..500,
        salt in 0u64..1000,
    ) {
        let shared = SharedRecorder::new(MemoryRecorder::new());
        let mut m = Machine::new(cfg(p), ExecMode::Sequential, vec![0u64; p]);
        m.instruments_mut().recorder = Some(Box::new(shared.clone()));
        for step in 0..steps {
            m.superstep(
                PhaseKind::Scatter,
                |r, s, ctx, out: &mut pic_machine::Outbox<Vec<u64>>| {
                    ctx.charge_ops((ops as f64) * (r as f64 + 1.0));
                    for k in 0..fanout {
                        let to = (r + k + step) % p;
                        out.send(to, vec![salt + r as u64; (r + k) % 3 + 1]);
                    }
                    *s += 1;
                },
                |_r, s, _ctx, inbox| {
                    *s += inbox.len() as u64;
                },
            ).unwrap();
        }

        let events = shared.with(|rec| rec.take());
        let grouped = spans_by_step(&events);
        let records = m.stats().records().to_vec();
        prop_assert_eq!(grouped.len(), records.len());
        prop_assert_eq!(grouped.len(), steps);

        let superstep_events: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Superstep(s) => Some(s),
                _ => None,
            })
            .collect();
        prop_assert_eq!(superstep_events.len(), records.len());

        for (((_, spans), rec), agg) in
            grouped.iter().zip(&records).zip(&superstep_events)
        {
            prop_assert_eq!(spans.len(), p);
            let max_compute = spans.iter().map(|s| s.compute_s).fold(0.0, f64::max);
            let max_comm = spans.iter().map(|s| s.comm_s).fold(0.0, f64::max);
            let total_msgs: u64 = spans.iter().map(|s| s.msgs_sent).sum();
            let total_bytes: u64 = spans.iter().map(|s| s.bytes_sent).sum();
            let recv_msgs: u64 = spans.iter().map(|s| s.msgs_recv).sum();
            let recv_bytes: u64 = spans.iter().map(|s| s.bytes_recv).sum();
            prop_assert_eq!(max_compute, rec.max_compute_s);
            prop_assert_eq!(max_comm, rec.max_comm_s);
            prop_assert_eq!(total_msgs, rec.total_msgs);
            prop_assert_eq!(total_bytes, rec.total_bytes);
            // every off-rank send is received exactly once
            prop_assert_eq!(recv_msgs, rec.total_msgs);
            prop_assert_eq!(recv_bytes, rec.total_bytes);
            prop_assert_eq!(agg.max_compute_s, rec.max_compute_s);
            prop_assert_eq!(agg.max_comm_s, rec.max_comm_s);
            prop_assert_eq!(agg.elapsed_s, rec.elapsed_s);
            prop_assert_eq!(agg.total_msgs, rec.total_msgs);
            prop_assert_eq!(agg.total_bytes, rec.total_bytes);
            prop_assert!(!agg.collective);
            // spans fit inside the superstep window
            for s in spans {
                prop_assert_eq!(s.start_s, agg.start_s);
                prop_assert!(s.end_s <= agg.start_s + agg.elapsed_s + 1e-12);
            }
        }
    }

    /// Modeled collectives emit one span per rank with uniform comm
    /// charges matching the stats record, flagged as collectives.
    #[test]
    fn modeled_collective_spans_match_stats(
        p in 1usize..9,
        salt in 0u64..1000,
    ) {
        let shared = SharedRecorder::new(MemoryRecorder::new());
        let states: Vec<(u64, u64)> = (0..p).map(|r| (salt + r as u64, 0)).collect();
        let mut m = Machine::new(cfg(p), ExecMode::Sequential, states);
        m.instruments_mut().recorder = Some(Box::new(shared.clone()));
        m.allgather(
            PhaseKind::Setup,
            8,
            |_r, s: &(u64, u64)| s.0,
            |_r, s, all: &[u64]| s.1 = all.iter().sum(),
        ).unwrap();

        let events = shared.with(|rec| rec.take());
        let spans: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        prop_assert_eq!(spans.len(), p);
        let rec = m.stats().records()[0];
        for s in &spans {
            // the model charges every rank identically in a collective
            prop_assert_eq!(s.comm_s, rec.max_comm_s);
            prop_assert_eq!(s.compute_s, 0.0);
        }
        let agg = events.iter().find_map(|e| match e {
            TraceEvent::Superstep(s) => Some(s),
            _ => None,
        });
        let agg = agg.expect("collective superstep event");
        prop_assert!(agg.collective);
        prop_assert_eq!(agg.total_msgs, rec.total_msgs);
        prop_assert_eq!(agg.total_bytes, rec.total_bytes);
    }
}

/// The threaded executor emits the same event shapes: one span per rank
/// per superstep (wall-clock times), plus superstep and collective
/// aggregates consistent with its stats log.
#[test]
fn threaded_recorder_captures_spans_and_collectives() {
    let p = 4;
    let shared = SharedRecorder::new(MemoryRecorder::new());
    let mut m = ThreadedMachine::new(cfg(p), vec![0u64; p]);
    m.instruments_mut().recorder = Some(Box::new(shared.clone()));

    m.superstep(
        PhaseKind::Push,
        |r, s: &mut u64, _ctx, out: &mut pic_machine::Outbox<Vec<u64>>| {
            out.send((r + 1) % 4, vec![r as u64]);
            *s += 1;
        },
        |_r, s, _ctx, inbox: Vec<(usize, Vec<u64>)>| {
            *s += inbox.len() as u64;
        },
    )
    .expect("fault-free superstep");
    m.allreduce(
        PhaseKind::FieldSolve,
        |_r, s: &u64| *s,
        |a, b| a + b,
        |_r, s, sum: &u64| *s = *sum,
    )
    .expect("fault-free allreduce");

    let events = shared.with(|rec| rec.take());
    let spans: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span(s) => Some(s),
            _ => None,
        })
        .collect();
    // one span per rank for the superstep, one per rank for the collective
    assert_eq!(spans.len(), 2 * p);
    for s in &spans {
        assert!(s.end_s >= s.start_s);
        assert!(s.compute_s >= 0.0 && s.comm_s >= 0.0);
    }
    let aggs: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Superstep(s) => Some(s),
            _ => None,
        })
        .collect();
    assert_eq!(aggs.len(), 2);
    assert!(!aggs[0].collective);
    assert!(aggs[1].collective);
    let stats = m.stats().records().to_vec();
    assert_eq!(aggs[0].total_msgs, stats[0].total_msgs);
    assert_eq!(aggs[0].total_bytes, stats[0].total_bytes);
    // supersteps are numbered consecutively within one executor
    assert_eq!(aggs[0].superstep + 1, aggs[1].superstep);
}

/// Taking the recorder out of the instruments hands the live sink back
/// and leaves the machine silent; re-installing resumes the stream.
#[test]
fn take_and_reinstall_recorder_round_trips() {
    fn drive<E: SpmdEngine<u64>>(m: &mut E) {
        m.allreduce(
            PhaseKind::Other,
            |_r, s: &u64| *s,
            |a, b| a + b,
            |_r, s, sum: &u64| *s = *sum,
        )
        .expect("fault-free allreduce");
    }

    let shared = SharedRecorder::new(MemoryRecorder::new());
    let mut m = ThreadedMachine::new(cfg(3), vec![1u64; 3]);
    m.instruments_mut().recorder = Some(Box::new(shared.clone()));
    drive(&mut m);
    let n_traced = shared.with(|rec| rec.events().len());
    assert!(n_traced > 0);

    let taken = m.instruments_mut().recorder.take();
    assert!(taken.is_some());
    assert!(m.instruments().recorder.is_none());
    drive(&mut m); // silent: no recorder installed
    assert_eq!(shared.with(|rec| rec.events().len()), n_traced);

    m.instruments_mut().recorder = taken;
    drive(&mut m);
    assert!(shared.with(|rec| rec.events().len()) > n_traced);
    assert!(m.instruments().recorder.is_some());
}

/// The three views of a superstep agree: for every phase, the stats
/// log, the metrics registry and the trace (through [`MetricsReport`])
/// count the same supersteps, messages and bytes, on both executors and
/// for every kind of operation.
#[test]
fn stats_metrics_and_trace_agree_per_phase() {
    type State = (u64, Vec<u64>);

    fn program<E: SpmdEngine<State>>(m: &mut E) {
        let p = m.num_ranks();
        m.superstep(
            PhaseKind::Scatter,
            |r, s: &mut State, ctx, out: &mut pic_machine::Outbox<Vec<u64>>| {
                ctx.charge_ops(10.0 * (r as f64 + 1.0));
                out.send((r + 1) % p, vec![s.0; r + 1]);
                out.send(r, vec![s.0]); // self-message: free
            },
            |_r, s, _ctx, inbox| s.0 += inbox.len() as u64,
        )
        .expect("superstep");
        m.local_step(PhaseKind::Push, |_r, s, ctx| {
            ctx.charge_ops(5.0);
            s.0 += 1;
        })
        .expect("local_step");
        m.allgather(
            PhaseKind::Setup,
            8,
            |_r, s: &State| s.0,
            |_r, s, all: &[u64]| s.1 = all.to_vec(),
        )
        .expect("allgather");
        m.allgatherv(
            PhaseKind::Redistribute,
            8,
            |r, _s: &State| vec![r as u64; r + 1],
            |_r, s, all: &[u64]| s.1.extend_from_slice(all),
        )
        .expect("allgatherv");
        m.allreduce(
            PhaseKind::FieldSolve,
            |_r, s: &State| s.0,
            |a, b| a + b,
            |_r, s, sum: &u64| s.0 = *sum,
        )
        .expect("allreduce");
        m.allreduce_elementwise(
            PhaseKind::Gather,
            16,
            |r, _s: &State| vec![r as u64, 1],
            |a, b| a + b,
            |_r, s, acc: &[u64]| s.1.extend_from_slice(acc),
        )
        .expect("allreduce_elementwise");
    }

    fn check<E: SpmdEngine<State>>(mut m: E) {
        let shared = SharedRecorder::new(MemoryRecorder::new());
        let metrics = SharedMetrics::new(m.num_ranks());
        m.instruments_mut().recorder = Some(Box::new(shared.clone()));
        m.instruments_mut().metrics = Some(metrics.clone());
        program(&mut m);
        program(&mut m);

        let events = shared.with(|rec| rec.take());
        let report = MetricsReport::from_events(&events);
        // (supersteps, msgs, bytes) of one phase, straight from the log
        let log_totals = |phase| {
            m.stats()
                .phase(phase)
                .fold((0, 0, 0), |(n, msgs, bytes), r| {
                    (n + 1, msgs + r.total_msgs, bytes + r.total_bytes)
                })
        };
        let reg = metrics.snapshot();
        for phase in PhaseKind::ALL {
            let stats = log_totals(phase);
            let fam = reg.phase(phase);
            let traced = report
                .phases()
                .iter()
                .find(|t| t.phase == phase)
                .map_or((0, 0, 0), |t| (t.count, t.total_msgs, t.total_bytes));
            assert_eq!((fam.supersteps, fam.msgs, fam.bytes), stats, "{phase:?}");
            assert_eq!(traced, stats, "{phase:?}");
        }
        // the program touches six phases, twice each
        let totals: Vec<_> = PhaseKind::ALL
            .into_iter()
            .map(log_totals)
            .filter(|t| t.0 > 0)
            .collect();
        assert_eq!(totals.len(), 6);
        assert!(totals.iter().all(|t| t.0 == 2));
    }

    let p = 5;
    let states = || vec![(1u64, Vec::new()); p];
    check(Machine::new(cfg(p), ExecMode::Sequential, states()));
    check(ThreadedMachine::new(cfg(p), states()));
}
