//! Kernel microtimings: the public kernel functions of `particles`,
//! `ghost`, `field`, `index` and `partition`, timed on a snapshot of the
//! workload's own rank data.  Each row carries its operation count and
//! the bytes one operation moves, computed from the data types (not
//! measured; cache misses are not in it).

use std::hint::black_box;
use std::time::Instant;

use pic_core::ghost::make_accumulator;
use pic_core::state::RankState;
use pic_particles::push::{boris_push, BorisStep};
use pic_particles::Cic;
use pic_partition::{
    assign_keys_into, classify_by_bounds_into, order_maintaining_balance, radix_sorted_order_into,
    RadixScratch,
};

use crate::host::median;
use crate::traced::Env;

/// One timed kernel.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Metric name (`layer.kernel_ns`).
    pub name: &'static str,
    /// What one operation is.
    pub op: &'static str,
    /// Median nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations in one pass over the snapshot.
    pub ops: usize,
    /// Bytes one operation reads and writes, computed from the types.
    pub bytes_per_op: f64,
}

/// Kernel rows plus the counts the same snapshot yields.
#[derive(Debug, Clone)]
pub struct Kernels {
    /// Timed kernels.
    pub rows: Vec<Kernel>,
    /// Distinct ghost vertices ÷ ghost adds.
    pub dedup_ratio: f64,
    /// Particles whose fresh key classifies to another rank ÷ classified.
    pub movers_share: f64,
    /// Particles the order-maintaining balance moves after that exchange.
    pub balance_moved: f64,
    /// Cells sent by all ranks in one field solve (two halo exchanges).
    pub halo_cells_per_iter: f64,
}

impl Kernels {
    /// No measurement: every value NaN, no rows.
    pub fn unmeasured() -> Self {
        Self {
            rows: Vec::new(),
            dedup_ratio: f64::NAN,
            movers_share: f64::NAN,
            balance_moved: f64::NAN,
            halo_cells_per_iter: f64::NAN,
        }
    }
}

/// Passes per sample are repeated until a sample lasts this long.
const MIN_SAMPLE_S: f64 = 0.002;
/// Samples per kernel; the median is reported.
const SAMPLES: usize = 7;

/// Median ns per operation of `pass`, which performs `ops` operations.
fn time_per_op(ops: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        let mut passes = 0u32;
        while passes == 0 || t.elapsed().as_secs_f64() < MIN_SAMPLE_S {
            pass();
            passes += 1;
        }
        samples.push(t.elapsed().as_secs_f64() * 1e9 / (f64::from(passes) * ops.max(1) as f64));
    }
    median(&samples)
}

/// Time every kernel on `ranks` (a state just before a redistribution,
/// so gathered fields match the particles and keys are due a refresh).
pub fn probe(ranks: &[RankState], env: &Env) -> Kernels {
    let cfg = &env.cfg;
    let (nx, ny, dx, dy) = (cfg.nx, cfg.ny, cfg.dx, cfg.dy);
    let n: usize = ranks.iter().map(RankState::len).sum();
    let mut rows = Vec::new();
    let mut row = |name, op, ops, bytes_per_op, ns_per_op| {
        rows.push(Kernel {
            name,
            op,
            ns_per_op,
            ops,
            bytes_per_op,
        })
    };

    // particles: Boris push on the gathered fields (u, E, B in; u out)
    let boris = time_per_op(n, || {
        for st in ranks {
            let p = &st.particles;
            let qm = p.qm();
            let fields = st.e_at.iter().zip(&st.b_at);
            for (i, (&e, &b)) in fields.enumerate().take(p.len()) {
                let u = [p.ux[i], p.uy[i], p.uz[i]];
                black_box(boris_push(u, &BorisStep { e, b }, qm, cfg.dt));
            }
        }
    });
    row("particles.boris_ns", "particle", n, 96.0, boris);

    // particles: CIC weights + one interpolation (x, y and 4 vertices in)
    let shape = time_per_op(n, || {
        for st in ranks {
            let p = &st.particles;
            for i in 0..p.len() {
                let cic = Cic::new(p.x[i], p.y[i], dx, dy, nx, ny);
                black_box(cic.interpolate(black_box([1.0, 2.0, 3.0, 4.0])));
            }
        }
    });
    row("particles.shape_ns", "particle", n, 48.0, shape);

    // ghost: every off-block vertex contribution of the snapshot, added
    // to the configured accumulator and drained by owner
    let adds: Vec<Vec<(u32, u32, [f64; 3])>> = ranks
        .iter()
        .map(|st| {
            let p = &st.particles;
            let mut out = Vec::new();
            for i in 0..p.len() {
                let cic = Cic::new(p.x[i], p.y[i], dx, dy, nx, ny);
                for (k, (cx, cy)) in cic.corners(nx, ny).into_iter().enumerate() {
                    if !st.rect.contains(cx, cy) {
                        out.push((cx as u32, cy as u32, [cic.w[k]; 3]));
                    }
                }
            }
            out
        })
        .collect();
    let n_adds: usize = adds.iter().map(Vec::len).sum();
    let mut accs: Vec<_> = ranks
        .iter()
        .map(|_| make_accumulator(cfg.dedup, nx, ny))
        .collect();
    let mut distinct = 0;
    for (acc, list) in accs.iter_mut().zip(&adds) {
        list.iter().for_each(|&(x, y, v)| acc.add(x, y, v));
        distinct += acc.distinct();
        acc.drain_by_owner(&env.layout);
    }
    let ghost = time_per_op(n_adds, || {
        for (acc, list) in accs.iter_mut().zip(&adds) {
            list.iter().for_each(|&(x, y, v)| acc.add(x, y, v));
            black_box(acc.drain_by_owner(&env.layout));
        }
    });
    row("ghost.add_ns", "add (drain included)", n_adds, 32.0, ghost);

    // field: B then E update on each padded block (9 grids in, 6 out)
    let mut blocks: Vec<_> = ranks.iter().map(|st| st.fields.clone()).collect();
    let cells: usize = ranks.iter().map(|st| st.rect.area()).sum();
    let maxwell = time_per_op(cells, || {
        for (f, st) in blocks.iter_mut().zip(ranks) {
            env.solver.update_b_padded(f);
            env.solver.update_e_padded(f, &st.currents);
        }
    });
    row("field.maxwell_ns_per_cell", "cell", cells, 120.0, maxwell);

    // index: one curve key per mesh cell
    let indexer = env.indexer.as_ref();
    let hilbert = time_per_op(nx * ny, || {
        for y in 0..ny {
            for x in 0..nx {
                black_box(indexer.index(black_box(x), y));
            }
        }
    });
    row("index.hilbert_ns", "key", nx * ny, 8.0, hilbert);

    // partition: fresh keys, classification against the rank bounds,
    // radix order and the bucket incremental sort
    let mut keys: Vec<Vec<u64>> = vec![Vec::new(); ranks.len()];
    let keys_ns = time_per_op(n, || {
        for (st, k) in ranks.iter().zip(keys.iter_mut()) {
            assign_keys_into(&st.particles, indexer, dx, dy, k);
        }
    });
    row("partition.keys_ns", "particle", n, 24.0, keys_ns);

    let mut dests: Vec<Vec<usize>> = vec![Vec::new(); ranks.len()];
    let classify = time_per_op(n, || {
        for ((st, k), d) in ranks.iter().zip(&keys).zip(dests.iter_mut()) {
            classify_by_bounds_into(k, &st.bounds, d);
        }
    });
    row("partition.classify_ns", "key", n, 16.0, classify);

    let mut order = Vec::new();
    let mut sizes = Vec::new();
    let mut scratch = RadixScratch::default();
    let radix = time_per_op(n, || {
        for k in &keys {
            radix_sorted_order_into(k, &mut order, &mut scratch);
        }
    });
    row("partition.radix_ns", "key (one pass)", n, 16.0, radix);

    let incremental = time_per_op(n, || {
        for (st, k) in ranks.iter().zip(&keys) {
            black_box(
                st.sorter
                    .sort_incremental_into(k, &mut order, &mut sizes, &mut scratch),
            );
        }
    });
    row(
        "partition.incremental_ns",
        "key (one pass)",
        n,
        16.0,
        incremental,
    );

    let mut counts = vec![0usize; ranks.len()];
    let mut movers = 0usize;
    for (st, d) in ranks.iter().zip(&dests) {
        for &dest in d {
            counts[dest] += 1;
            movers += usize::from(dest != st.rank);
        }
    }

    Kernels {
        rows,
        dedup_ratio: distinct as f64 / n_adds.max(1) as f64,
        movers_share: movers as f64 / n.max(1) as f64,
        balance_moved: order_maintaining_balance(&counts).moved() as f64,
        halo_cells_per_iter: 2.0
            * (0..ranks.len())
                .map(|r| env.halo.send_volume(r) as f64)
                .sum::<f64>(),
    }
}
