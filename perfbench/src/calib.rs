//! Reference-speed normalization.
//!
//! On a shared host, allocation-heavy code (the interpreter, the chunk
//! cache, the NetCDF reader) runs 1.4–1.8× slower in phases that last
//! seconds, caused by other tenants; a pure ALU loop and a
//! pointer-chasing loop do not slow down. So every measuring loop runs
//! [`reference_loop`] — fixed, allocation-heavy code that belongs to
//! the benchmark, not to the engine — every [`CAL_EVERY`], and reports
//! each latency at the reference speed of its block: the latency times
//! [`REF_NS`] over the median reference time of the 100 ms block it
//! fell in. A change to the engine moves these figures; a slow phase
//! of the host moves the reference time with them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The reference loop's time at reference speed: figures are in
/// nanoseconds of a host on which one [`reference_loop`] takes 250 us.
pub const REF_NS: f64 = 250e3;
/// How often the loop runs between statements.
pub const CAL_EVERY: Duration = Duration::from_millis(20);
/// Normalization block length.
pub const BLOCK: Duration = Duration::from_millis(100);

/// Run the reference loop once; its wall time in nanoseconds.
pub fn reference_loop() -> u64 {
    let t0 = Instant::now();
    let mut m = BTreeMap::new();
    for i in 0..750u64 {
        m.insert(
            format!("k{}", i.wrapping_mul(2_654_435_761) % 10_007),
            Box::new(i as f64 * 1.5),
        );
    }
    let acc = m.iter().fold(0u64, |a, (k, v)| {
        a.wrapping_add(k.len() as u64 + **v as u64)
    });
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as u64
}

/// Median of `v` (non-empty), sorting it.
fn median_of(v: &mut [u64]) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// Collects raw latencies per block and hands them back normalized.
#[derive(Debug)]
pub struct Normalizer<T> {
    block_start: Instant,
    last_cal: Instant,
    cal: Vec<u64>,
    pending: Vec<(T, u64)>,
}

impl<T: Copy> Default for Normalizer<T> {
    fn default() -> Self {
        Normalizer::new()
    }
}

impl<T: Copy> Normalizer<T> {
    /// A normalizer whose first block starts now.
    pub fn new() -> Normalizer<T> {
        let now = Instant::now();
        Normalizer {
            block_start: now,
            last_cal: now,
            cal: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Record a raw latency tagged `tag`. Between statements, runs the
    /// reference loop when due, and when a block ends returns its
    /// latencies at reference speed.
    pub fn push(&mut self, tag: T, ns: u64) -> Vec<(T, f64)> {
        self.pending.push((tag, ns));
        if self.last_cal.elapsed() >= CAL_EVERY {
            self.cal.push(reference_loop());
            self.last_cal = Instant::now();
        }
        if self.block_start.elapsed() >= BLOCK {
            self.flush()
        } else {
            Vec::new()
        }
    }

    /// End the current block: its latencies at reference speed.
    pub fn flush(&mut self) -> Vec<(T, f64)> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        if self.cal.is_empty() {
            self.cal.push(reference_loop());
        }
        let scale = REF_NS / median_of(&mut self.cal) as f64;
        self.cal.clear();
        self.block_start = Instant::now();
        self.last_cal = self.block_start;
        self.pending
            .drain(..)
            .map(|(t, ns)| (t, ns as f64 * scale))
            .collect()
    }
}

/// `f()`'s wall time at reference speed, in seconds: scaled by the
/// median of three reference runs before it and three after.
pub fn timed_at_ref<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let mut cal: Vec<u64> = (0..3).map(|_| reference_loop()).collect();
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as f64;
    cal.extend((0..3).map(|_| reference_loop()));
    (r, ns * REF_NS / median_of(&mut cal) as f64 / 1e9)
}
