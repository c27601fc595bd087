//! Host clocks and counters: process CPU time, `/proc` readings, the
//! allocation counter, and the order statistics every metric uses.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Allocation-counting wrapper around the system allocator.  Counting is
/// off until [`count_allocations`] turns it on, so untraced runs pay one
/// relaxed load per allocation and nothing else.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every operation delegates to `System`; the counter update is the
// only addition and never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn note_alloc() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Turn allocation counting on (traced runs only).
pub fn count_allocations() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Heap allocations counted so far, by every thread of the process.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used by the whole process so far (user + system, every
/// thread, exited threads included): the quantity `/proc/self/stat`
/// reports as utime+stime, at nanosecond instead of tick resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Aggregate `/proc/stat` CPU jiffies: `(steal, total)`.
pub fn steal_jiffies() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let vals: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    // (guest time is already counted in user, so it is left out)
    let total = vals.iter().take(8).sum();
    (vals.get(7).copied().unwrap_or(0), total)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median nanoseconds per step of a fixed single-thread integer loop: a
/// host-speed probe that no change to the program can move.
pub fn calibration_ns() -> f64 {
    const STEPS: u64 = 1 << 20;
    const SAMPLES: usize = 5;
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
            for i in 0..STEPS {
                x = (x ^ (x >> 29))
                    .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                    .wrapping_add(i);
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64() * 1e9 / STEPS as f64
        })
        .collect();
    median(&samples)
}

/// Visible CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads the modeled machine runs ranks on: `PIC_HOST_THREADS`
/// when it holds a positive integer, else [`nproc`].
pub fn host_workers() -> usize {
    std::env::var("PIC_HOST_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(nproc)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (NaN if empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest of the candidate percentiles that leaves at least ten
/// samples above it, with its value: `(percentile, value)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    const CANDIDATES: [f64; 4] = [95.0, 90.0, 75.0, 50.0];
    let n = xs.len() as f64;
    let pct = CANDIDATES
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (pct, quantile(xs, pct / 100.0))
}
