//! Allocation budget of a warm chunk-cache hit: once its chunk is
//! resident, an element read through `LazyArray::get_linear` or
//! `LazyArray::get` allocates nothing, with metrics and the flight
//! recorder at their defaults.
//!
//! Allocations are counted by a global allocator, only on the thread
//! that switched counting on, so this test lives in its own binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aql_store::{ChunkLayout, LazyArray, MemChunkSource, Scalar, ScalarBuf, ScalarKind};

struct Counting;

thread_local! {
    /// `Some(n)` while this thread counts: `n` allocations so far.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_alloc() {
    // `try_with`: the allocator may run while thread locals are torn
    // down, when there is nothing to count.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).unwrap_or(0)
}

const HITS: u64 = 2_500;

#[test]
fn warm_hits_allocate_nothing() {
    // 40×5×5 f64 in 8×5×5 chunks: five chunks, all resident.
    let dims = vec![40u64, 5, 5];
    let n: u64 = dims.iter().product();
    let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mem = MemChunkSource::new(dims.clone(), ScalarBuf::F64(data)).unwrap();
    let layout = ChunkLayout::new(dims.clone(), vec![8, 5, 5]).unwrap();
    let mut a = LazyArray::labeled(layout, ScalarKind::F64, Box::new(mem), 1 << 20, "mem");

    // Precompute the multidimensional indices outside the count.
    let idx: Vec<[u64; 3]> = (0..n).map(|o| [o / 25, (o / 5) % 5, o % 5]).collect();

    // Warm-up: every chunk loaded once, and every lazily registered
    // sink (metric handles, journal ring) touched by a hit.
    for off in 0..n {
        assert_eq!(a.get_linear(off).unwrap(), Some(Scalar::F64(off as f64)));
        assert_eq!(a.get(&idx[off as usize]).unwrap(), Some(Scalar::F64(off as f64)));
    }
    let misses = a.stats().misses;

    let mut sum = 0.0;
    let linear = allocations(|| {
        for k in 0..HITS {
            if let Ok(Some(Scalar::F64(v))) = a.get_linear((k * 7) % n) {
                sum += v;
            }
        }
    });
    let indexed = allocations(|| {
        for k in 0..HITS {
            if let Ok(Some(Scalar::F64(v))) = a.get(&idx[((k * 7) % n) as usize]) {
                sum += v;
            }
        }
    });
    assert!(sum > 0.0);
    assert_eq!(a.stats().misses, misses, "every counted read was a hit");
    assert_eq!(linear, 0, "{HITS} warm get_linear hits allocated {linear} times");
    assert_eq!(indexed, 0, "{HITS} warm get hits allocated {indexed} times");
}
