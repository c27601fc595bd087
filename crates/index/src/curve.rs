//! The [`CellIndexer`] trait and the [`IndexScheme`] enum that selects an
//! indexing at runtime (experiment configurations are data, not types).

use crate::{HilbertIndexer, MortonIndexer, RowMajorIndexer, SnakeIndexer};

/// A bijection between 2-D cell coordinates and a 1-D index.
///
/// Implementations index the cells of a `width x height` mesh with the
/// integers `0..width*height`.  `index` and `coords` must be inverses on
/// that domain; this is enforced by shared property tests.
pub trait CellIndexer: Send + Sync {
    /// Mesh width (number of cells along x).
    fn width(&self) -> usize;
    /// Mesh height (number of cells along y).
    fn height(&self) -> usize;
    /// Map cell coordinates to its 1-D curve index.
    ///
    /// # Panics
    /// Panics if `x >= width()` or `y >= height()`.
    fn index(&self, x: usize, y: usize) -> u64;
    /// Map a 1-D curve index back to cell coordinates.
    ///
    /// # Panics
    /// Panics if `idx >= width()*height()`.
    fn coords(&self, idx: u64) -> (usize, usize);

    /// Number of cells on the mesh.
    fn len(&self) -> usize {
        self.width() * self.height()
    }

    /// True when the mesh has no cells.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runtime-selectable indexing scheme.
///
/// The experiment harness sweeps over schemes, so they need to be plain
/// data that can live in a config file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexScheme {
    /// 2-D Hilbert curve (the paper's proposal).
    Hilbert,
    /// Snakelike / boustrophedon row ordering (the paper's baseline).
    Snake,
    /// Plain row-major ordering.
    RowMajor,
    /// Z-order (Morton) curve.
    Morton,
}

impl IndexScheme {
    /// All schemes, in the order they appear in ablation tables.
    pub const ALL: [IndexScheme; 4] = [
        IndexScheme::Hilbert,
        IndexScheme::Snake,
        IndexScheme::RowMajor,
        IndexScheme::Morton,
    ];

    /// Construct the corresponding indexer for a `width x height` mesh.
    pub fn build(self, width: usize, height: usize) -> Box<dyn CellIndexer> {
        match self {
            IndexScheme::Hilbert => Box::new(HilbertIndexer::new(width, height)),
            IndexScheme::Snake => Box::new(SnakeIndexer::new(width, height)),
            IndexScheme::RowMajor => Box::new(RowMajorIndexer::new(width, height)),
            IndexScheme::Morton => Box::new(MortonIndexer::new(width, height)),
        }
    }

    /// Short lower-case label used in experiment output rows.
    pub fn label(self) -> &'static str {
        match self {
            IndexScheme::Hilbert => "hilbert",
            IndexScheme::Snake => "snake",
            IndexScheme::RowMajor => "rowmajor",
            IndexScheme::Morton => "morton",
        }
    }
}

impl std::fmt::Display for IndexScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_builds_correct_dimensions() {
        for scheme in IndexScheme::ALL {
            let ix = scheme.build(16, 8);
            assert_eq!(ix.width(), 16, "{scheme}");
            assert_eq!(ix.height(), 8, "{scheme}");
            assert_eq!(ix.len(), 128, "{scheme}");
            assert!(!ix.is_empty());
        }
    }

    #[test]
    fn every_scheme_is_a_bijection_on_a_small_mesh() {
        for scheme in IndexScheme::ALL {
            let ix = scheme.build(8, 4);
            let mut seen = vec![false; ix.len()];
            for y in 0..4 {
                for x in 0..8 {
                    let i = ix.index(x, y) as usize;
                    assert!(i < ix.len(), "{scheme}: index {i} out of range");
                    assert!(!seen[i], "{scheme}: index {i} assigned twice");
                    seen[i] = true;
                    assert_eq!(ix.coords(i as u64), (x, y), "{scheme}: roundtrip");
                }
            }
            assert!(seen.iter().all(|&s| s), "{scheme}: surjective");
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            IndexScheme::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), IndexScheme::ALL.len());
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(IndexScheme::Hilbert.to_string(), "hilbert");
        assert_eq!(IndexScheme::Snake.to_string(), "snake");
    }
}
