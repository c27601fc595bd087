//! Closed-form phase bounds (paper Section 4).
//!
//! These are the paper's worst-case formulas under the two-level machine
//! model; the `model_vs_measured` integration test and the Table 1
//! harness compare them against the simulated machine's actual charges.

use pic_machine::MachineConfig;

use crate::costs;

/// Modeled upper bounds for one iteration of the four phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseBounds {
    /// Scatter bound: `4 n/p T_s + (p-1) tau + u l mu`.
    pub scatter_s: f64,
    /// Field solve bound: `m/p T_f + 4 tau + 4 sqrt(m/p) l mu`.
    pub fields_s: f64,
    /// Gather bound: `4 n/p T_g + (p-1) tau + 2 u l mu`.
    pub gather_s: f64,
    /// Push: `n/p T_push` (no communication under direct Lagrangian).
    pub push_s: f64,
}

impl PhaseBounds {
    /// Total per-iteration bound (`T_ideal` in the paper).
    pub fn total_s(&self) -> f64 {
        self.scatter_s + self.fields_s + self.gather_s + self.push_s
    }
}

/// Evaluate the Section-4 bounds for `n` particles and `m` grid points on
/// the machine `mc`, with `l_grid` bytes per transferred grid value.
///
/// # Panics
/// Panics if the machine has zero ranks (impossible by construction).
pub fn ideal_bounds(mc: &MachineConfig, n: usize, m: usize, l_grid: usize) -> PhaseBounds {
    let p = mc.ranks as f64;
    assert!(p >= 1.0);
    let np = n as f64 / p;
    let mp = m as f64 / p;
    // u = min(m/p, 4 n/p): the ghost grid point bound
    let u = mp.min(4.0 * np);
    let l = l_grid as f64;
    let scatter_s =
        4.0 * np * costs::SCATTER_VERTEX * mc.delta + (p - 1.0) * mc.tau + u * l * mc.mu;
    let fields_s = mp * (costs::FIELD_POINT_B + costs::FIELD_POINT_E) * mc.delta
        + 4.0 * mc.tau
        + 4.0 * mp.sqrt() * l * mc.mu;
    let gather_s =
        4.0 * np * costs::GATHER_VERTEX * mc.delta + (p - 1.0) * mc.tau + 2.0 * u * l * mc.mu;
    let push_s = np * costs::PUSH_PARTICLE * mc.delta;
    PhaseBounds {
        scatter_s,
        fields_s,
        gather_s,
        push_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_scale_down_with_more_processors() {
        let n = 32_768;
        let m = 128 * 64;
        let b32 = ideal_bounds(&MachineConfig::cm5(32), n, m, 28);
        let b128 = ideal_bounds(&MachineConfig::cm5(128), n, m, 28);
        // compute terms shrink 4x; the startup term grows, so total
        // shrinks but less than 4x
        assert!(b128.total_s() < b32.total_s());
        assert!(b128.push_s * 3.9 < b32.push_s * 1.01);
    }

    #[test]
    fn push_has_no_communication_term() {
        let a = ideal_bounds(&MachineConfig::cm5(32), 1000, 1000, 28);
        let mut expensive_net = MachineConfig::cm5(32);
        expensive_net.tau *= 100.0;
        expensive_net.mu *= 100.0;
        let b = ideal_bounds(&expensive_net, 1000, 1000, 28);
        assert_eq!(a.push_s, b.push_s);
        assert!(b.scatter_s > a.scatter_s);
    }

    #[test]
    fn ghost_bound_switches_regime() {
        // dense particles: u capped by m/p; sparse: u capped by 4 n/p
        let mc = MachineConfig::cm5(4);
        let dense = ideal_bounds(&mc, 1_000_000, 400, 28);
        let sparse = ideal_bounds(&mc, 40, 400, 28);
        // in the sparse case the transfer term is 4*10*28*mu, tiny
        assert!(sparse.scatter_s < dense.scatter_s);
    }

    #[test]
    fn total_sums_phases() {
        let b = ideal_bounds(&MachineConfig::cm5(32), 32_768, 8192, 28);
        let sum = b.scatter_s + b.fields_s + b.gather_s + b.push_s;
        assert!((b.total_s() - sum).abs() < 1e-15);
    }
}
