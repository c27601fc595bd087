//! Bucket incremental sorting (paper Figure 12).
//!
//! After the initial full sort, each rank divides its sorted particle
//! array into `L` equal buckets and remembers the `L - 1` key boundaries.
//! On the next redistribution most particles still belong to the same
//! bucket (movement is incremental), so sorting reduces to a cheap
//! classification (binary search over the remembered boundaries) plus
//! small per-bucket sorts — `O(n log(n/L))` comparisons instead of
//! `O(n log n)`, and in practice far fewer because buckets stay almost
//! sorted.  The sorting ablation bench quantifies the win against a full
//! `sort_unstable` and a from-scratch sample sort.

use crate::radix::{radix_sort_indices, radix_sorted_order_into, RadixScratch};

/// Stable sorted-order permutation: `order[i]` is the original index of
/// the `i`-th smallest key.  Equal keys keep their original relative
/// order, which keeps redistribution deterministic.
///
/// Runs on the radix path (bit-identical to the historical comparison
/// sort, see [`sorted_order_comparison`]); allocation-sensitive callers
/// should use [`crate::radix::radix_sorted_order_into`] with a reused
/// scratch instead.
pub fn sorted_order(keys: &[u64]) -> Vec<usize> {
    let mut order = Vec::new();
    let mut scratch = RadixScratch::default();
    radix_sorted_order_into(keys, &mut order, &mut scratch);
    order
}

/// The historical comparison-sort path: materialize `(key, index)`
/// tuples and `sort_by_key`.  Kept as the reference oracle for the
/// radix path (debug asserts, proptests, and the key-sort microbench
/// in `hot_path_baseline`); the hot path itself uses
/// [`crate::radix::radix_sorted_order_into`].
pub fn sorted_order_comparison(keys: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| (keys[i], i));
    order
}

/// Result of one incremental sort pass.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalClassification {
    /// Permutation: `order[i]` is the original index of the `i`-th element
    /// of the sorted result.
    pub order: Vec<usize>,
    /// Number of keys per bucket after classification.
    pub bucket_sizes: Vec<usize>,
    /// Modeled comparison count: `n * ceil(log2 L)` for classification
    /// plus an adaptive `n_b * log2(max(runs_b, 2))` per bucket sort,
    /// where `runs_b` is the number of maximal non-decreasing runs in the
    /// bucket (natural merge sort cost — Rust's stable sort is run-
    /// adaptive, and the paper's incremental win comes precisely from
    /// buckets arriving almost sorted).  The redistribution phase charges
    /// this to the compute clock.
    pub comparisons: f64,
}

/// The remembered bucket boundaries of one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketIncrementalSorter {
    l: usize,
    /// `l - 1` exclusive upper bounds of buckets `0..l-1`; empty until the
    /// first [`Self::rebuild`].
    bounds: Vec<u64>,
}

impl BucketIncrementalSorter {
    /// A sorter with `l` buckets (paper uses `L` buckets per processor).
    ///
    /// # Panics
    /// Panics if `l == 0`.
    pub fn new(l: usize) -> Self {
        assert!(l > 0, "need at least one bucket");
        Self {
            l,
            bounds: Vec::new(),
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.l
    }

    /// Current internal boundaries (empty before the first rebuild).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Recompute boundaries from the freshly sorted local keys (paper
    /// Figure 12, `Particle_Redistribution` lines 4–6: boundary `i` is the
    /// key at position `i * span`).
    pub fn rebuild(&mut self, sorted_keys: &[u64]) {
        debug_assert!(sorted_keys.windows(2).all(|w| w[0] <= w[1]));
        self.bounds.clear();
        if sorted_keys.is_empty() {
            return;
        }
        let n = sorted_keys.len();
        for i in 1..self.l {
            self.bounds.push(sorted_keys[(i * n) / self.l]);
        }
    }

    /// Bucket of `key` under the current boundaries.
    #[inline]
    pub fn bucket_of(&self, key: u64) -> usize {
        self.bounds.partition_point(|&b| b <= key)
    }

    /// Sort `keys` incrementally: classify into the remembered buckets,
    /// sort each bucket (stable), and concatenate.
    ///
    /// Correct for *any* input (falls back to one big bucket before the
    /// first rebuild); cheap when the input is close to sorted.
    ///
    /// Allocating convenience wrapper around
    /// [`Self::sort_incremental_into`] for tests and benches; the hot
    /// path reuses caller-owned buffers.
    pub fn sort_incremental(&self, keys: &[u64]) -> IncrementalClassification {
        let mut order = Vec::new();
        let mut bucket_sizes = Vec::new();
        let mut scratch = RadixScratch::default();
        let comparisons =
            self.sort_incremental_into(keys, &mut order, &mut bucket_sizes, &mut scratch);
        IncrementalClassification {
            order,
            bucket_sizes,
            comparisons,
        }
    }

    /// Allocation-free incremental sort into caller-owned buffers:
    /// `order` receives the stable permutation, `bucket_sizes` the
    /// per-bucket key counts, and the modeled comparison count is
    /// returned (see [`IncrementalClassification::comparisons`] for the
    /// cost model — identical to the historical comparison-sort path).
    ///
    /// Classification is a stable counting scatter (histogram of bucket
    /// ids, exclusive prefix sum, ordered placement), and each bucket
    /// slice is then sorted by [`radix_sort_indices`] — no `(key,
    /// index)` tuples, no per-bucket `Vec`s.  Steady-state calls with a
    /// warmed-up scratch perform zero heap allocations.
    pub fn sort_incremental_into(
        &self,
        keys: &[u64],
        order: &mut Vec<usize>,
        bucket_sizes: &mut Vec<usize>,
        scratch: &mut RadixScratch,
    ) -> f64 {
        let n = keys.len();
        let nb = self.bounds.len() + 1;
        bucket_sizes.clear();
        bucket_sizes.resize(nb, 0);
        for &k in keys {
            bucket_sizes[self.bucket_of(k)] += 1;
        }
        // exclusive prefix sum -> write offsets (scratch.counts is free
        // here; the per-bucket sorts below reuse it afterwards)
        scratch.counts.clear();
        scratch.counts.resize(nb, 0);
        let mut off = 0usize;
        for (b, c) in bucket_sizes.iter().enumerate() {
            scratch.counts[b] = off;
            off += c;
        }
        order.clear();
        order.resize(n, 0);
        for (i, &k) in keys.iter().enumerate() {
            let b = self.bucket_of(k);
            order[scratch.counts[b]] = i;
            scratch.counts[b] += 1;
        }
        let classify_cmp = n as f64 * (nb.max(2) as f64).log2().ceil();
        let mut comparisons = classify_cmp;
        let mut start = 0usize;
        for &len in bucket_sizes.iter().take(nb) {
            let bucket = &mut order[start..start + len];
            start += len;
            if len > 1 {
                let runs = count_runs(keys, bucket);
                comparisons += len as f64 * (runs.max(2) as f64).log2();
                radix_sort_indices(keys, bucket, scratch);
            }
        }
        comparisons
    }
}

/// Number of maximal non-decreasing runs of `keys` restricted to `idxs`.
fn count_runs(keys: &[u64], idxs: &[usize]) -> usize {
    if idxs.is_empty() {
        return 0;
    }
    1 + idxs.windows(2).filter(|w| keys[w[0]] > keys[w[1]]).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_sorted_by_order(keys: &[u64], order: &[usize]) -> bool {
        order.windows(2).all(|w| keys[w[0]] <= keys[w[1]])
    }

    #[test]
    fn sorted_order_is_stable() {
        let keys = vec![3, 1, 3, 0, 1];
        let order = sorted_order(&keys);
        assert_eq!(order, vec![3, 1, 4, 0, 2]);
    }

    #[test]
    fn incremental_sort_without_rebuild_still_sorts() {
        let s = BucketIncrementalSorter::new(8);
        let keys = vec![9, 2, 7, 2, 0, 5];
        let r = s.sort_incremental(&keys);
        assert!(is_sorted_by_order(&keys, &r.order));
        assert_eq!(r.order.len(), 6);
    }

    #[test]
    fn rebuild_then_sort_matches_full_sort() {
        let mut s = BucketIncrementalSorter::new(4);
        let mut keys: Vec<u64> = (0..100).map(|i| (i * 37) % 100).collect();
        let order = sorted_order(&keys);
        let sorted: Vec<u64> = order.iter().map(|&i| keys[i]).collect();
        s.rebuild(&sorted);
        assert_eq!(s.bounds().len(), 3);
        // perturb slightly (incremental movement)
        for k in keys.iter_mut().step_by(10) {
            *k = k.saturating_add(1);
        }
        let r = s.sort_incremental(&keys);
        assert!(is_sorted_by_order(&keys, &r.order));
        let full = sorted_order(&keys);
        let by_incr: Vec<u64> = r.order.iter().map(|&i| keys[i]).collect();
        let by_full: Vec<u64> = full.iter().map(|&i| keys[i]).collect();
        assert_eq!(by_incr, by_full);
    }

    #[test]
    fn nearly_sorted_input_costs_fewer_comparisons() {
        // The incremental advantage: buckets arrive almost sorted after
        // small particle movement, so the adaptive cost is far below the
        // cost of the same keys in random order.
        let n = 4096u64;
        let mut nearly: Vec<u64> = (0..n).collect();
        for i in (0..n as usize - 1).step_by(97) {
            nearly.swap(i, i + 1);
        }
        let shuffled: Vec<u64> = (0..n).map(|i| (i * 2654435761) % n).collect();
        let mut s = BucketIncrementalSorter::new(64);
        s.rebuild(&(0..n).collect::<Vec<u64>>());
        let cheap = s.sort_incremental(&nearly);
        let costly = s.sort_incremental(&shuffled);
        assert!(
            cheap.comparisons < 0.7 * costly.comparisons,
            "nearly-sorted {} vs shuffled {}",
            cheap.comparisons,
            costly.comparisons
        );
        // beyond the fixed classification cost, the sort itself is the
        // adaptive part — it must collapse almost entirely
        let classify = 4096.0 * 6.0;
        assert!(
            cheap.comparisons - classify < 0.25 * (costly.comparisons - classify),
            "adaptive sort cost did not collapse: {} vs {}",
            cheap.comparisons - classify,
            costly.comparisons - classify
        );
        assert!(is_sorted_by_order(&nearly, &cheap.order));
        assert!(is_sorted_by_order(&shuffled, &costly.order));
    }

    #[test]
    fn bucket_sizes_sum_to_n() {
        let mut s = BucketIncrementalSorter::new(4);
        s.rebuild(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let r = s.sort_incremental(&[7, 0, 3, 3, 9]);
        assert_eq!(r.bucket_sizes.iter().sum::<usize>(), 5);
        assert_eq!(r.bucket_sizes.len(), 4);
    }

    #[test]
    fn bucket_of_respects_bounds() {
        let mut s = BucketIncrementalSorter::new(4);
        s.rebuild(&[0, 10, 20, 30, 40, 50, 60, 70]);
        // bounds at positions 2, 4, 6 -> keys 20, 40, 60
        assert_eq!(s.bounds(), &[20, 40, 60]);
        assert_eq!(s.bucket_of(0), 0);
        assert_eq!(s.bucket_of(19), 0);
        assert_eq!(s.bucket_of(20), 1);
        assert_eq!(s.bucket_of(65), 3);
    }

    #[test]
    fn empty_input_yields_empty_result() {
        let s = BucketIncrementalSorter::new(4);
        let r = s.sort_incremental(&[]);
        assert!(r.order.is_empty());
    }

    #[test]
    fn rebuild_on_empty_clears_bounds() {
        let mut s = BucketIncrementalSorter::new(4);
        s.rebuild(&[1, 2, 3, 4]);
        assert!(!s.bounds().is_empty());
        s.rebuild(&[]);
        assert!(s.bounds().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        BucketIncrementalSorter::new(0);
    }
}
