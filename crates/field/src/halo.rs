//! Halo (ghost-ring) exchange plans for the field-solve stencil.
//!
//! Each grid point "needs data from its four neighboring grid points"
//! (paper Section 4, field solve phase), so every rank needs a one-cell
//! ghost ring around its block, filled from the owners of the wrapped
//! neighbouring cells.  [`HaloPlan`] precomputes, for every rank, which of
//! its *owned* cells must be sent to which neighbour — the plan is static
//! because the mesh distribution never changes during a run.

use crate::layout::BlockLayout;

/// A halo transfer unit: the sender's owned global cell and the padded
/// ghost slot it fills on the receiver.
pub type CellSlot = ((usize, usize), (usize, usize));

/// One rank's outgoing halo traffic to a single neighbour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloMsg {
    /// Destination rank.
    pub to: usize,
    /// Owned global cells whose values the destination needs, paired with
    /// the *padded-grid slot* `(px, py)` they fill on the receiver (the
    /// receiver's local block plus a one-cell ghost ring, so
    /// `px in 0..w+2`, `py in 0..h+2`).  Order is deterministic (scan
    /// order of the receiver's ghost ring), so sender and receiver agree
    /// on the layout of the packed message.
    pub cells: Vec<CellSlot>,
}

/// Precomputed halo exchange plan for a [`BlockLayout`] with periodic
/// boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloPlan {
    /// `sends[rank]` lists this rank's outgoing messages, sorted by
    /// destination rank.
    sends: Vec<Vec<HaloMsg>>,
    /// `self_copies[rank]` lists ghost slots the rank fills from its own
    /// cells (periodic wrap onto itself, e.g. a full-width strip in a 1-D
    /// layout): `((source global cell), (padded slot))`.
    self_copies: Vec<Vec<CellSlot>>,
}

impl HaloPlan {
    /// Build the plan for `layout` (one-cell ghost ring, periodic wrap).
    pub fn build(layout: &BlockLayout) -> Self {
        let p = layout.num_ranks();
        let (nx, ny) = (layout.nx(), layout.ny());
        // For each rank, walk the ghost ring around its block; the owner
        // of each (wrapped) ghost cell must send that cell's value here.
        // Invert that into per-sender lists.
        let mut sends: Vec<Vec<HaloMsg>> = (0..p).map(|_| Vec::new()).collect();
        let mut self_copies: Vec<Vec<CellSlot>> = (0..p).map(|_| Vec::new()).collect();
        for (rank, self_list) in self_copies.iter_mut().enumerate() {
            let r = layout.local_rect(rank);
            let mut wanted: Vec<(usize, CellSlot)> = Vec::new();
            let x0 = r.x0 as isize;
            let y0 = r.y0 as isize;
            let (w, h) = (r.w as isize, r.h as isize);
            let mut ghost = |gx: isize, gy: isize| {
                let sx = gx.rem_euclid(nx as isize) as usize;
                let sy = gy.rem_euclid(ny as isize) as usize;
                let owner = layout.owner_of(sx, sy);
                // receiver's padded slot for this ghost cell
                let px = (gx - (x0 - 1)) as usize;
                let py = (gy - (y0 - 1)) as usize;
                if owner != rank {
                    wanted.push((owner, ((sx, sy), (px, py))));
                } else {
                    self_list.push(((sx, sy), (px, py)));
                }
            };
            for gx in x0 - 1..=x0 + w {
                ghost(gx, y0 - 1);
                ghost(gx, y0 + h);
            }
            for gy in y0..y0 + h {
                ghost(x0 - 1, gy);
                ghost(x0 + w, gy);
            }
            // group by owner, preserving scan order
            wanted.sort_by_key(|&(owner, _)| owner);
            let mut i = 0;
            while i < wanted.len() {
                let owner = wanted[i].0;
                let mut cells = Vec::new();
                while i < wanted.len() && wanted[i].0 == owner {
                    cells.push(wanted[i].1);
                    i += 1;
                }
                sends[owner].push(HaloMsg { to: rank, cells });
            }
        }
        for list in &mut sends {
            list.sort_by_key(|m| m.to);
        }
        Self { sends, self_copies }
    }

    /// Outgoing messages of `rank`.
    pub fn sends(&self, rank: usize) -> &[HaloMsg] {
        &self.sends[rank]
    }

    /// Ghost slots `rank` fills from its own cells (periodic self-wrap).
    pub fn self_copies(&self, rank: usize) -> &[CellSlot] {
        &self.self_copies[rank]
    }

    /// Number of ranks in the plan.
    pub fn num_ranks(&self) -> usize {
        self.sends.len()
    }

    /// Total cells this rank sends per exchange (its halo volume).
    pub fn send_volume(&self, rank: usize) -> usize {
        self.sends[rank].iter().map(|m| m.cells.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BlockLayout;

    #[test]
    fn plan_is_symmetric_in_volume() {
        // On a uniform 2-D split with periodic wrap, what rank a sends to
        // b equals what b sends to a.
        let layout = BlockLayout::new_2d(16, 16, 4, 4);
        let plan = HaloPlan::build(&layout);
        for a in 0..16 {
            for msg in plan.sends(a) {
                let back: usize = plan
                    .sends(msg.to)
                    .iter()
                    .filter(|m| m.to == a)
                    .map(|m| m.cells.len())
                    .sum();
                assert_eq!(back, msg.cells.len(), "{a} <-> {}", msg.to);
            }
        }
    }

    #[test]
    fn interior_rank_sends_edges_and_corners() {
        let layout = BlockLayout::new_2d(16, 16, 4, 4);
        let plan = HaloPlan::build(&layout);
        // every rank owns a 4x4 block; its neighbours need 4 cells per side
        // plus corners; total outgoing = 4*4 + 4 = 20 cells
        for rank in 0..16 {
            assert_eq!(plan.send_volume(rank), 20, "rank {rank}");
        }
    }

    #[test]
    fn sent_cells_are_owned_by_sender() {
        let layout = BlockLayout::new_2d(12, 8, 3, 2);
        let plan = HaloPlan::build(&layout);
        for rank in 0..6 {
            let rect = layout.local_rect(rank);
            for msg in plan.sends(rank) {
                for &((sx, sy), _) in &msg.cells {
                    assert!(rect.contains(sx, sy), "rank {rank} sends unowned cell");
                }
            }
        }
    }

    #[test]
    fn padded_slots_lie_on_the_ghost_ring() {
        let layout = BlockLayout::new_2d(12, 8, 3, 2);
        let plan = HaloPlan::build(&layout);
        for rank in 0..6 {
            let r = layout.local_rect(rank);
            for src in 0..6 {
                for msg in plan.sends(src).iter().filter(|m| m.to == rank) {
                    for &(_, (px, py)) in &msg.cells {
                        assert!(px <= r.w + 1 && py <= r.h + 1);
                        let on_ring = px == 0 || py == 0 || px == r.w + 1 || py == r.h + 1;
                        assert!(on_ring, "slot ({px},{py}) not on ghost ring");
                    }
                }
            }
        }
    }

    #[test]
    fn every_ghost_slot_is_filled_exactly_once() {
        // Union of incoming slots plus own wrapped cells covers the whole
        // ghost ring with no duplicates.
        let layout = BlockLayout::new_2d(16, 16, 4, 4);
        let plan = HaloPlan::build(&layout);
        for rank in 0..16 {
            let r = layout.local_rect(rank);
            let mut filled = std::collections::HashSet::new();
            for src in 0..16 {
                for msg in plan.sends(src).iter().filter(|m| m.to == rank) {
                    for &(_, slot) in &msg.cells {
                        assert!(filled.insert(slot), "slot {slot:?} filled twice");
                    }
                }
            }
            // ring has 2*(w+2) + 2*h slots; with 4x4 blocks all ghosts are
            // off-rank, so all must arrive by message
            assert_eq!(filled.len(), 2 * (r.w + 2) + 2 * r.h);
            assert!(plan.self_copies(rank).is_empty());
        }
    }

    #[test]
    fn strip_layout_fills_vertical_ghosts_locally() {
        // 1-D layout: single block row, so north/south ghosts wrap onto
        // the owning rank itself and must be local copies, not messages.
        let layout = BlockLayout::new_1d(8, 4, 4);
        let plan = HaloPlan::build(&layout);
        for rank in 0..4 {
            let r = layout.local_rect(rank);
            // the top and bottom rows of the owned columns
            assert!(
                plan.self_copies(rank).len() >= 2 * r.w,
                "rank {rank} self copies {}",
                plan.self_copies(rank).len()
            );
            for &((sx, sy), (px, py)) in plan.self_copies(rank) {
                assert!(r.contains(sx, sy));
                assert!(px <= r.w + 1 && py <= r.h + 1);
            }
        }
    }

    #[test]
    fn single_rank_plan_is_empty() {
        let layout = BlockLayout::new_2d(8, 8, 1, 1);
        let plan = HaloPlan::build(&layout);
        assert!(plan.sends(0).is_empty());
    }

    #[test]
    fn strip_layout_wraps_periodically() {
        let layout = BlockLayout::new_1d(8, 4, 4);
        let plan = HaloPlan::build(&layout);
        // rank 0 owns x in [0,2); rank 3 owns x in [6,8). They are periodic
        // neighbours, so each must send to the other.
        let r0_to_r3: usize = plan
            .sends(0)
            .iter()
            .filter(|m| m.to == 3)
            .map(|m| m.cells.len())
            .sum();
        assert!(r0_to_r3 > 0, "periodic wrap missing");
    }
}
