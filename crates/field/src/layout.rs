//! BLOCK distribution of the mesh over processors.
//!
//! The mesh is cut into `pr x pc` rectangular blocks (2-D BLOCK) or `p`
//! row/column strips (1-D BLOCK).  Block `(bi, bj)` maps to a rank through
//! an optional permutation so the partition crate can lay processor
//! addresses along a Hilbert curve (paper Figure 10) — that alignment is
//! what makes rank-adjacent particle subdomains land on rank-adjacent mesh
//! subdomains.

/// A half-open rectangle of grid cells: `x0 <= x < x0+w`, `y0 <= y < y0+h`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x0: usize,
    /// Bottom edge (inclusive).
    pub y0: usize,
    /// Width in cells.
    pub w: usize,
    /// Height in cells.
    pub h: usize,
}

impl Rect {
    /// Number of cells covered.
    pub fn area(&self) -> usize {
        self.w * self.h
    }

    /// Perimeter in cell edges — proportional to the halo volume and, for
    /// particle subdomains, to the ghost-point communication the paper's
    /// Section 6.3 discusses.
    pub fn perimeter(&self) -> usize {
        2 * (self.w + self.h)
    }

    /// True when `(x, y)` lies inside.
    pub fn contains(&self, x: usize, y: usize) -> bool {
        x >= self.x0 && x < self.x0 + self.w && y >= self.y0 && y < self.y0 + self.h
    }

    /// Intersection with `other`, if non-empty.
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let x0 = self.x0.max(other.x0);
        let y0 = self.y0.max(other.y0);
        let x1 = (self.x0 + self.w).min(other.x0 + other.w);
        let y1 = (self.y0 + self.h).min(other.y0 + other.h);
        if x0 < x1 && y0 < y1 {
            Some(Rect {
                x0,
                y0,
                w: x1 - x0,
                h: y1 - y0,
            })
        } else {
            None
        }
    }

    /// Iterate all `(x, y)` cells in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (self.y0..self.y0 + self.h)
            .flat_map(move |y| (self.x0..self.x0 + self.w).map(move |x| (x, y)))
    }
}

/// Factor `p` into `(pr, pc)` with `pr * pc == p` and the factors as close
/// to square as possible, preferring `pr >= pc`.
pub fn factor_near_square(p: usize) -> (usize, usize) {
    assert!(p > 0, "cannot factor zero ranks");
    let mut best = (p, 1);
    let mut d = 1;
    while d * d <= p {
        if p.is_multiple_of(d) {
            best = (p / d, d);
        }
        d += 1;
    }
    best
}

/// BLOCK distribution of an `nx x ny` mesh over `pr x pc` rank blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockLayout {
    nx: usize,
    ny: usize,
    pr: usize,
    pc: usize,
    /// block id (row-major over the block grid) -> rank
    block_to_rank: Vec<usize>,
    /// rank -> block id
    rank_to_block: Vec<usize>,
}

impl BlockLayout {
    /// 2-D BLOCK: `pr` blocks along x, `pc` blocks along y, identity
    /// block→rank mapping.
    ///
    /// # Panics
    /// Panics if any dimension is zero or there are more blocks than cells
    /// along a dimension.
    pub fn new_2d(nx: usize, ny: usize, pr: usize, pc: usize) -> Self {
        assert!(nx > 0 && ny > 0, "mesh dimensions must be nonzero");
        assert!(pr > 0 && pc > 0, "block grid must be nonzero");
        assert!(pr <= nx, "more x-blocks ({pr}) than columns ({nx})");
        assert!(pc <= ny, "more y-blocks ({pc}) than rows ({ny})");
        let p = pr * pc;
        Self {
            nx,
            ny,
            pr,
            pc,
            block_to_rank: (0..p).collect(),
            rank_to_block: (0..p).collect(),
        }
    }

    /// 2-D BLOCK over `p` ranks with a near-square block grid.
    pub fn new_auto(nx: usize, ny: usize, p: usize) -> Self {
        let (a, b) = factor_near_square(p);
        // put the larger factor along the longer mesh dimension
        if nx >= ny {
            Self::new_2d(nx, ny, a, b)
        } else {
            Self::new_2d(nx, ny, b, a)
        }
    }

    /// 1-D BLOCK along x (column strips).
    pub fn new_1d(nx: usize, ny: usize, p: usize) -> Self {
        Self::new_2d(nx, ny, p, 1)
    }

    /// Install a block→rank permutation (e.g. Hilbert order over the block
    /// grid).  `perm[block_id] = rank`.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..p`.
    pub fn with_block_to_rank(mut self, perm: Vec<usize>) -> Self {
        let p = self.num_ranks();
        assert_eq!(perm.len(), p, "permutation length != rank count");
        let mut rank_to_block = vec![usize::MAX; p];
        for (block, &rank) in perm.iter().enumerate() {
            assert!(rank < p, "rank {rank} out of range");
            assert_eq!(rank_to_block[rank], usize::MAX, "rank {rank} repeated");
            rank_to_block[rank] = block;
        }
        self.block_to_rank = perm;
        self.rank_to_block = rank_to_block;
        self
    }

    /// Mesh width.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Mesh height.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Blocks along x.
    pub fn pr(&self) -> usize {
        self.pr
    }

    /// Blocks along y.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Total ranks.
    pub fn num_ranks(&self) -> usize {
        self.pr * self.pc
    }

    /// Extent of block `bi` along a dimension of size `n` cut into `nb`
    /// blocks: the standard balanced BLOCK split.
    fn block_range(n: usize, nb: usize, bi: usize) -> (usize, usize) {
        let start = bi * n / nb;
        let end = (bi + 1) * n / nb;
        (start, end)
    }

    /// The rectangle of cells owned by `rank`.
    ///
    /// # Panics
    /// Panics if `rank` is out of range.
    pub fn local_rect(&self, rank: usize) -> Rect {
        assert!(rank < self.num_ranks(), "rank {rank} out of range");
        let block = self.rank_to_block[rank];
        let (bi, bj) = (block % self.pr, block / self.pr);
        let (x0, x1) = Self::block_range(self.nx, self.pr, bi);
        let (y0, y1) = Self::block_range(self.ny, self.pc, bj);
        Rect {
            x0,
            y0,
            w: x1 - x0,
            h: y1 - y0,
        }
    }

    /// The rank owning global cell `(x, y)`.
    ///
    /// # Panics
    /// Panics if the cell is outside the mesh.
    #[inline]
    pub fn owner_of(&self, x: usize, y: usize) -> usize {
        assert!(x < self.nx && y < self.ny, "cell ({x},{y}) outside mesh");
        // Invert the balanced split: block bi owns [bi*n/nb, (bi+1)*n/nb),
        // so bi = floor(((x+1)*nb - 1) / n) gives the block with
        // bi*n/nb <= x. Using integer search keeps it exact for all sizes.
        let bi = Self::block_of(x, self.nx, self.pr);
        let bj = Self::block_of(y, self.ny, self.pc);
        self.block_to_rank[bj * self.pr + bi]
    }

    /// The block index owning coordinate `x` of a dimension of `n` cells
    /// split into `nb` blocks.
    #[inline]
    fn block_of(x: usize, n: usize, nb: usize) -> usize {
        // candidate from the affine estimate, corrected by +-1
        let mut bi = (x * nb) / n;
        loop {
            let (s, e) = Self::block_range(n, nb, bi);
            if x < s {
                bi -= 1;
            } else if x >= e {
                bi += 1;
            } else {
                return bi;
            }
        }
    }

    /// Convert global coordinates to rank-local coordinates.
    ///
    /// # Panics
    /// Panics if the cell is not owned by `rank`.
    pub fn global_to_local(&self, rank: usize, x: usize, y: usize) -> (usize, usize) {
        let r = self.local_rect(rank);
        assert!(r.contains(x, y), "cell ({x},{y}) not owned by rank {rank}");
        (x - r.x0, y - r.y0)
    }

    /// Convert rank-local coordinates to global coordinates.
    pub fn local_to_global(&self, rank: usize, lx: usize, ly: usize) -> (usize, usize) {
        let r = self.local_rect(rank);
        assert!(
            lx < r.w && ly < r.h,
            "local ({lx},{ly}) outside rank {rank} block"
        );
        (r.x0 + lx, r.y0 + ly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factoring_prefers_square() {
        assert_eq!(factor_near_square(1), (1, 1));
        assert_eq!(factor_near_square(32), (8, 4));
        assert_eq!(factor_near_square(64), (8, 8));
        assert_eq!(factor_near_square(128), (16, 8));
        assert_eq!(factor_near_square(7), (7, 1));
        assert_eq!(factor_near_square(12), (4, 3));
    }

    #[test]
    fn blocks_tile_the_mesh_exactly() {
        for (nx, ny, pr, pc) in [(128, 64, 8, 4), (10, 7, 3, 2), (5, 5, 5, 5)] {
            let l = BlockLayout::new_2d(nx, ny, pr, pc);
            let mut owned = vec![0u32; nx * ny];
            for rank in 0..l.num_ranks() {
                for (x, y) in l.local_rect(rank).cells() {
                    owned[y * nx + x] += 1;
                    assert_eq!(l.owner_of(x, y), rank);
                }
            }
            assert!(owned.iter().all(|&c| c == 1), "{nx}x{ny}/{pr}x{pc}");
        }
    }

    #[test]
    fn balanced_split_sizes_differ_by_at_most_one() {
        let l = BlockLayout::new_2d(10, 7, 3, 2);
        let areas: Vec<usize> = (0..6).map(|r| l.local_rect(r).area()).collect();
        let min = *areas.iter().min().unwrap();
        let max = *areas.iter().max().unwrap();
        // 10/3 in {3,4}, 7/2 in {3,4} -> areas in 9..=16
        assert!(max <= min * 2, "{areas:?}");
        assert_eq!(areas.iter().sum::<usize>(), 70);
    }

    #[test]
    fn local_global_roundtrip() {
        let l = BlockLayout::new_2d(64, 32, 4, 4);
        for rank in [0, 5, 15] {
            let r = l.local_rect(rank);
            for (x, y) in r.cells().take(10) {
                let (lx, ly) = l.global_to_local(rank, x, y);
                assert_eq!(l.local_to_global(rank, lx, ly), (x, y));
            }
        }
    }

    #[test]
    fn permutation_reroutes_ownership() {
        let l = BlockLayout::new_2d(8, 8, 2, 2);
        let perm = vec![3, 2, 1, 0];
        let lp = l.clone().with_block_to_rank(perm);
        // block 0 (bottom-left) now belongs to rank 3
        assert_eq!(lp.owner_of(0, 0), 3);
        assert_eq!(lp.local_rect(3), l.local_rect(0));
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn non_permutation_rejected() {
        BlockLayout::new_2d(8, 8, 2, 2).with_block_to_rank(vec![0, 0, 1, 2]);
    }

    #[test]
    fn one_dimensional_layout_is_strips() {
        let l = BlockLayout::new_1d(16, 4, 4);
        let r = l.local_rect(2);
        assert_eq!(
            r,
            Rect {
                x0: 8,
                y0: 0,
                w: 4,
                h: 4
            }
        );
    }

    #[test]
    fn rect_geometry() {
        let a = Rect {
            x0: 0,
            y0: 0,
            w: 4,
            h: 4,
        };
        let b = Rect {
            x0: 2,
            y0: 3,
            w: 4,
            h: 4,
        };
        let i = a.intersect(&b).unwrap();
        assert_eq!(
            i,
            Rect {
                x0: 2,
                y0: 3,
                w: 2,
                h: 1
            }
        );
        assert_eq!(a.perimeter(), 16);
        assert!(a.contains(3, 3));
        assert!(!a.contains(4, 3));
        let far = Rect {
            x0: 10,
            y0: 10,
            w: 1,
            h: 1,
        };
        assert!(a.intersect(&far).is_none());
    }

    #[test]
    fn auto_layout_orients_blocks_with_mesh() {
        let l = BlockLayout::new_auto(128, 64, 32);
        assert_eq!((l.pr(), l.pc()), (8, 4));
        let l = BlockLayout::new_auto(64, 128, 32);
        assert_eq!((l.pr(), l.pc()), (4, 8));
    }
}
