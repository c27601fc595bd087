//! Per-rank simulated clocks.
//!
//! Each rank accumulates modeled compute and communication seconds
//! separately; the figure harness needs the split because the paper's
//! "overhead" figures (21, 22) plot `execution time - computation time`.

/// Simulated time of one virtual rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Clock {
    /// Modeled seconds spent computing.
    pub compute_s: f64,
    /// Modeled seconds spent communicating (startup + transfer).
    pub comm_s: f64,
}

impl Clock {
    /// Total modeled time.
    #[inline]
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.comm_s
    }

    /// Advance the compute component.
    #[inline]
    pub fn advance_compute(&mut self, s: f64) {
        debug_assert!(s >= 0.0, "negative compute advance {s}");
        self.compute_s += s;
    }

    /// Advance the communication component.
    #[inline]
    pub fn advance_comm(&mut self, s: f64) {
        debug_assert!(s >= 0.0, "negative comm advance {s}");
        self.comm_s += s;
    }

    /// Synchronize this clock up to a barrier instant: idle wait counts as
    /// communication time, matching how the paper's measured "overhead"
    /// swallows load-imbalance stalls.
    #[inline]
    pub fn sync_to(&mut self, barrier_total_s: f64) {
        let gap = barrier_total_s - self.total_s();
        if gap > 0.0 {
            self.comm_s += gap;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate() {
        let mut c = Clock::default();
        c.advance_compute(1.0);
        c.advance_comm(0.5);
        c.advance_compute(0.25);
        assert!((c.total_s() - 1.75).abs() < 1e-12);
        assert!((c.compute_s - 1.25).abs() < 1e-12);
    }

    #[test]
    fn sync_charges_idle_to_comm() {
        let mut c = Clock {
            compute_s: 1.0,
            comm_s: 0.0,
        };
        c.sync_to(3.0);
        assert!((c.comm_s - 2.0).abs() < 1e-12);
        assert!((c.total_s() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sync_to_past_is_a_noop() {
        let mut c = Clock {
            compute_s: 5.0,
            comm_s: 1.0,
        };
        c.sync_to(2.0);
        assert!((c.total_s() - 6.0).abs() < 1e-12);
    }
}
