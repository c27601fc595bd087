//! Redistribution decision policies (paper Section 5.2).
//!
//! * **Static** never redistributes (the baseline the paper's Figure 16
//!   shows losing badly);
//! * **Periodic(k)** redistributes every `k` iterations — needs the
//!   "potentially impractical pre-runtime analysis to determine an
//!   optimal periodicity";
//! * **DynamicSar** adapts the Stop-At-Rise heuristic: with `t0` the
//!   iteration time right after the last redistribution at `i0`, trigger
//!   at iteration `i1` with time `t1` when
//!   `(t1 - t0) * (i1 - i0) >= T_redistribution` (paper Eq. 1), using the
//!   previous redistribution's cost as the estimate of the next one.

/// Serializable snapshot of a policy's mutable decision state, so a
/// checkpointed simulation resumes with the same redistribution
/// behaviour it would have had uninterrupted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyState {
    /// The policy keeps no mutable state (static, periodic).
    Stateless,
    /// Stop-At-Rise bookkeeping (see [`DynamicSarPolicy`]).
    DynamicSar {
        /// Iteration of the last redistribution.
        i0: usize,
        /// Post-redistribution baseline iteration time, if observed.
        t0: Option<f64>,
        /// Cost estimate for the next redistribution.
        redist_cost: f64,
    },
}

/// An auditable record of one `should_redistribute` evaluation — what
/// the policy observed, what it compared against, and what it decided.
/// Consumed by the simulation driver, which converts it into a
/// `policy_decision` trace event so every redistribution (and every
/// deliberate *non*-redistribution) can be replayed from the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyDecision {
    /// Iteration the decision was made at.
    pub iter: usize,
    /// The iteration time the policy observed (its input).
    pub observed_s: f64,
    /// The baseline it compared against (`t0` for Stop-At-Rise); equals
    /// `observed_s` on the seeding iteration right after a
    /// redistribution, and NaN for policies without a time baseline.
    pub baseline_s: f64,
    /// Projected loss of *not* redistributing: `rise * (iter - i0)`
    /// (paper Eq. 1 left-hand side). NaN for time-blind policies.
    pub projected_loss_s: f64,
    /// The trigger threshold (`T_redistribution` for Stop-At-Rise).
    /// NaN for time-blind policies.
    pub threshold_s: f64,
    /// Whether the policy decided to redistribute.
    pub fired: bool,
}

/// Decides when the particles should be redistributed.
pub trait RedistributionPolicy: Send {
    /// Called after every iteration with the iteration's execution time;
    /// returns true when a redistribution should run *now*.
    fn should_redistribute(&mut self, iter: usize, iter_time_s: f64) -> bool;

    /// Called after each redistribution completes, with its cost; also
    /// called once after the initial distribution (iteration 0).
    fn notify_redistributed(&mut self, iter: usize, cost_s: f64);

    /// The audit record of the most recent `should_redistribute` call,
    /// if the policy produces one. The default (stateless policies)
    /// returns None; the driver then synthesizes a minimal record.
    fn last_decision(&self) -> Option<PolicyDecision> {
        None
    }

    /// Snapshot the mutable decision state for a checkpoint.
    fn snapshot_state(&self) -> PolicyState {
        PolicyState::Stateless
    }

    /// Restore state captured by [`RedistributionPolicy::snapshot_state`].
    /// A mismatched variant is ignored (the policy keeps its defaults).
    fn restore_state(&mut self, _state: &PolicyState) {}
}

/// Runtime-selectable policy configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Never redistribute.
    Static,
    /// Redistribute every `k` iterations.
    Periodic(usize),
    /// Stop-At-Rise dynamic criterion (paper Eq. 1).
    DynamicSar,
}

impl PolicyKind {
    /// Instantiate the policy.
    pub fn build(self) -> Box<dyn RedistributionPolicy> {
        match self {
            PolicyKind::Static => Box::new(StaticPolicy),
            PolicyKind::Periodic(k) => Box::new(PeriodicPolicy::new(k)),
            PolicyKind::DynamicSar => Box::new(DynamicSarPolicy::new()),
        }
    }

    /// Label used in experiment rows.
    pub fn label(self) -> String {
        match self {
            PolicyKind::Static => "static".to_string(),
            PolicyKind::Periodic(k) => format!("periodic({k})"),
            PolicyKind::DynamicSar => "dynamic".to_string(),
        }
    }
}

/// Never redistributes.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticPolicy;

impl RedistributionPolicy for StaticPolicy {
    fn should_redistribute(&mut self, _iter: usize, _t: f64) -> bool {
        false
    }

    fn notify_redistributed(&mut self, _iter: usize, _cost_s: f64) {}
}

/// Redistributes every `k` iterations.
#[derive(Debug, Clone, Copy)]
pub struct PeriodicPolicy {
    k: usize,
}

impl PeriodicPolicy {
    /// Period `k` must be nonzero.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "period must be nonzero");
        Self { k }
    }
}

impl RedistributionPolicy for PeriodicPolicy {
    fn should_redistribute(&mut self, iter: usize, _t: f64) -> bool {
        iter > 0 && iter.is_multiple_of(self.k)
    }

    fn notify_redistributed(&mut self, _iter: usize, _cost_s: f64) {}
}

/// Stop-At-Rise dynamic policy (paper Eq. 1).
#[derive(Debug, Clone, Copy)]
pub struct DynamicSarPolicy {
    /// Iteration of the last redistribution (`i0`).
    i0: usize,
    /// Execution time of the iteration right after the last
    /// redistribution (`t0`); None until observed.
    t0: Option<f64>,
    /// Cost of the previous redistribution (`T_redistribution`).
    redist_cost: f64,
    /// Audit record of the most recent decision.
    last: Option<PolicyDecision>,
}

impl DynamicSarPolicy {
    /// A fresh policy; the first `notify_redistributed` (from the initial
    /// distribution) seeds the cost estimate.
    pub fn new() -> Self {
        Self {
            i0: 0,
            t0: None,
            redist_cost: f64::INFINITY,
            last: None,
        }
    }

    /// The current redistribution cost estimate.
    pub fn cost_estimate(&self) -> f64 {
        self.redist_cost
    }
}

impl Default for DynamicSarPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl RedistributionPolicy for DynamicSarPolicy {
    fn should_redistribute(&mut self, iter: usize, iter_time_s: f64) -> bool {
        let t0 = match self.t0 {
            // first iteration after a redistribution defines t0
            None => {
                self.t0 = Some(iter_time_s);
                self.last = Some(PolicyDecision {
                    iter,
                    observed_s: iter_time_s,
                    baseline_s: iter_time_s,
                    projected_loss_s: 0.0,
                    threshold_s: self.redist_cost,
                    fired: false,
                });
                return false;
            }
            Some(t0) => t0,
        };
        let rise = iter_time_s - t0;
        let projected_loss_s = rise.max(0.0) * (iter - self.i0) as f64;
        let fired = rise > 0.0 && projected_loss_s >= self.redist_cost;
        self.last = Some(PolicyDecision {
            iter,
            observed_s: iter_time_s,
            baseline_s: t0,
            projected_loss_s,
            threshold_s: self.redist_cost,
            fired,
        });
        fired
    }

    fn last_decision(&self) -> Option<PolicyDecision> {
        self.last
    }

    fn notify_redistributed(&mut self, iter: usize, cost_s: f64) {
        self.i0 = iter;
        self.t0 = None;
        self.redist_cost = cost_s;
    }

    fn snapshot_state(&self) -> PolicyState {
        PolicyState::DynamicSar {
            i0: self.i0,
            t0: self.t0,
            redist_cost: self.redist_cost,
        }
    }

    fn restore_state(&mut self, state: &PolicyState) {
        if let PolicyState::DynamicSar {
            i0,
            t0,
            redist_cost,
        } = *state
        {
            self.i0 = i0;
            self.t0 = t0;
            self.redist_cost = redist_cost;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_never_triggers() {
        let mut p = PolicyKind::Static.build();
        for i in 1..100 {
            assert!(!p.should_redistribute(i, i as f64 * 100.0));
        }
    }

    #[test]
    fn periodic_triggers_on_multiples() {
        let mut p = PolicyKind::Periodic(25).build();
        let fired: Vec<usize> = (1..=100)
            .filter(|&i| p.should_redistribute(i, 1.0))
            .collect();
        assert_eq!(fired, vec![25, 50, 75, 100]);
    }

    #[test]
    fn dynamic_waits_for_rise_to_amortize_cost() {
        let mut p = DynamicSarPolicy::new();
        p.notify_redistributed(0, 10.0); // redistribution costs 10s
                                         // iteration time grows by 0.1s per iteration from t0 = 1.0
        let mut fired_at = None;
        for i in 1..=200 {
            let t = 1.0 + 0.1 * (i - 1) as f64;
            if p.should_redistribute(i, t) {
                fired_at = Some(i);
                break;
            }
        }
        // (t1 - t0) * (i1 - i0) = 0.1 (i-1) * i >= 10 -> i = 11 is the
        // first integer with 0.1*(i-1)*i >= 10 (0.1*10*11 = 11)
        assert_eq!(fired_at, Some(11));
    }

    #[test]
    fn dynamic_never_fires_when_time_is_flat() {
        let mut p = DynamicSarPolicy::new();
        p.notify_redistributed(0, 1.0);
        for i in 1..1000 {
            assert!(!p.should_redistribute(i, 2.0), "fired at {i}");
        }
    }

    #[test]
    fn dynamic_resets_after_redistribution() {
        let mut p = DynamicSarPolicy::new();
        p.notify_redistributed(0, 1.0);
        assert!(!p.should_redistribute(1, 1.0)); // seeds t0
        assert!(p.should_redistribute(2, 3.0)); // rise 2 * span 2 >= 1
        p.notify_redistributed(2, 1.0);
        // t0 must be re-seeded: the first post-redistribution iteration
        // never fires even if slow
        assert!(!p.should_redistribute(3, 100.0));
    }

    #[test]
    fn dynamic_with_infinite_cost_never_fires_before_seed() {
        let mut p = DynamicSarPolicy::new();
        assert!(!p.should_redistribute(1, 5.0));
        assert!(!p.should_redistribute(2, 50.0));
    }

    #[test]
    fn labels() {
        assert_eq!(PolicyKind::Static.label(), "static");
        assert_eq!(PolicyKind::Periodic(25).label(), "periodic(25)");
        assert_eq!(PolicyKind::DynamicSar.label(), "dynamic");
    }

    #[test]
    #[should_panic(expected = "period must be nonzero")]
    fn zero_period_rejected() {
        PeriodicPolicy::new(0);
    }
}
