//! Modeled costs of the global collectives.
//!
//! The paper's algorithms use two collectives: **global concatenation**
//! (line 1 of `Bucket_incremental_sorting`, to gather all ranks' bucket
//! boundaries) and the global sums of the redistribution bookkeeping.
//! Under the two-level model a recursive-doubling implementation costs
//! each rank `stages * tau + (p - 1) * share_bytes * mu`, with `stages`
//! depending on the topology.  The data movement itself lives in
//! [`Machine`]'s [`SpmdEngine`](crate::SpmdEngine) impl; this module only
//! charges the clocks and records the operation.

use crate::engine::SpmdEngine;
use crate::instruments::Shares;
use crate::machine::Machine;
use crate::stats::PhaseKind;

impl<S: Send> Machine<S> {
    /// Charge a recursive-doubling collective moving `share_bytes` per
    /// rank — `stages * tau + (p - 1) * share_bytes * mu` on every rank —
    /// and record it (global concatenation and the scalar all-reduce).
    pub(crate) fn recursive_doubling(&mut self, phase: PhaseKind, share_bytes: usize) {
        let cfg = self.cfg;
        let p = cfg.ranks;
        let stages = cfg.topology.collective_stages(p) as f64;
        let comm = if p > 1 {
            stages * cfg.tau + ((p - 1) * share_bytes) as f64 * cfg.mu
        } else {
            0.0
        };
        self.charge_collective(phase, comm, Shares::Collective { share_bytes });
    }

    /// Charge a pipelined tree reduction over a `share_bytes` array —
    /// `stages * (tau + share_bytes * mu)` on every rank — and record it
    /// (the element-wise all-reduce of the replicated-grid baseline).
    pub(crate) fn pipelined_tree(&mut self, phase: PhaseKind, share_bytes: usize) {
        let cfg = self.cfg;
        let p = cfg.ranks;
        let stages = cfg.topology.collective_stages(p) as f64;
        let comm = if p > 1 {
            stages * (cfg.tau + share_bytes as f64 * cfg.mu)
        } else {
            0.0
        };
        self.charge_collective(phase, comm, Shares::Pipelined { share_bytes });
    }

    /// Charge every rank `comm` seconds of a collective and record it.
    fn charge_collective(&mut self, phase: PhaseKind, comm: f64, shares: Shares<'_>) {
        let start = self.elapsed_s();
        for c in &mut self.clocks {
            c.advance_comm(comm);
        }
        self.instruments
            .record(&self.cfg, phase, start, comm, shares);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ExecMode;
    use crate::MachineConfig;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig {
            ranks: p,
            tau: 1.0,
            mu: 0.1,
            delta: 0.01,
            topology: crate::Topology::FullyConnected,
        }
    }

    #[test]
    fn allgather_distributes_all_values() {
        let mut m = Machine::new(cfg(4), ExecMode::Sequential, vec![(0u64, Vec::new()); 4]);
        m.allgather(
            PhaseKind::Setup,
            8,
            |r, _s| r as u64 * 10,
            |_r, s, all: &[u64]| s.1 = all.to_vec(),
        )
        .unwrap();
        for (_v, all) in m.ranks() {
            assert_eq!(all, &[0, 10, 20, 30]);
        }
        // log2(4)=2 stages * tau + 3 ranks * 8B * mu = 2 + 2.4
        assert!((m.elapsed_s() - 4.4).abs() < 1e-12, "{}", m.elapsed_s());
    }

    #[test]
    fn allgatherv_concatenates_in_rank_order() {
        let mut m = Machine::new(cfg(3), ExecMode::Sequential, vec![Vec::<u32>::new(); 3]);
        m.allgatherv(
            PhaseKind::Setup,
            4,
            |r, _s| vec![r as u32; r + 1],
            |_r, s, concat: &[u32]| *s = concat.to_vec(),
        )
        .unwrap();
        assert_eq!(m.ranks()[0], vec![0, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn allreduce_folds_over_all_ranks() {
        let mut m = Machine::new(cfg(4), ExecMode::Sequential, vec![0.0f64; 4]);
        for (r, s) in m.ranks_mut().iter_mut().enumerate() {
            *s = r as f64 + 1.0;
        }
        m.allreduce(
            PhaseKind::Other,
            |_r, s| *s,
            f64::max,
            |_r, s, &max| *s = max,
        )
        .unwrap();
        assert!(m.ranks().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let mut m = Machine::new(cfg(1), ExecMode::Sequential, vec![0u64]);
        m.allgather(PhaseKind::Setup, 8, |_r, s| *s, |_r, _s, _all: &[u64]| {})
            .unwrap();
        assert_eq!(m.elapsed_s(), 0.0);
    }
}
