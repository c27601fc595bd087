//! Physics conservation diagnostics.

use crate::state::RankState;

/// Energy split of the whole system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Total particle kinetic energy.
    pub kinetic: f64,
    /// Total field energy over owned (interior) cells.
    pub field: f64,
}

impl EnergyReport {
    /// Kinetic plus field energy.
    pub fn total(&self) -> f64 {
        self.kinetic + self.field
    }
}

/// Compute the energy report across all rank states.  Field energy only
/// counts each rank's interior cells (ghost-ring values are copies).
pub fn energy_of(ranks: &[RankState], dx: f64, dy: f64) -> EnergyReport {
    let mut kinetic = 0.0;
    let mut field = 0.0;
    let cell = dx * dy;
    for st in ranks {
        kinetic += st.particles.kinetic_energy();
        for ly in 1..=st.rect.h {
            for lx in 1..=st.rect.w {
                let v = st.fields.at(lx, ly);
                let e2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
                let b2 = v[3] * v[3] + v[4] * v[4] + v[5] * v[5];
                field += 0.5 * (e2 + b2) * cell;
            }
        }
    }
    EnergyReport { kinetic, field }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use pic_field::Rect;

    #[test]
    fn energy_counts_interior_only() {
        let cfg = SimConfig::small_test();
        let mut st = RankState::new(
            0,
            Rect {
                x0: 0,
                y0: 0,
                w: 4,
                h: 4,
            },
            &cfg,
        );
        // fill everything including ghosts with Ez = 1
        st.fields.ez.fill(1.0);
        let r = energy_of(std::slice::from_ref(&st), 1.0, 1.0);
        // 16 interior cells * 0.5
        assert!((r.field - 8.0).abs() < 1e-12);
        assert_eq!(r.kinetic, 0.0);
    }

    #[test]
    fn kinetic_energy_sums_over_ranks() {
        let cfg = SimConfig::small_test();
        let rect = Rect {
            x0: 0,
            y0: 0,
            w: 4,
            h: 4,
        };
        let mut a = RankState::new(0, rect, &cfg);
        let mut b = RankState::new(1, rect, &cfg);
        a.particles.push(0.5, 0.5, 3.0, 0.0, 4.0);
        b.particles.push(0.5, 0.5, 3.0, 0.0, 4.0);
        let r = energy_of(&[a, b], 1.0, 1.0);
        let single = 26f64.sqrt() - 1.0;
        assert!((r.kinetic - 2.0 * single).abs() < 1e-12);
        assert!((r.total() - r.kinetic).abs() < 1e-12);
    }
}
