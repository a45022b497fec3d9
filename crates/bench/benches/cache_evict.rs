//! Chunk-cache miss cost when the cache holds many chunks: every
//! miss past the budget picks an LRU victim, so this prices the
//! recency bookkeeping that warm hits no longer pay for.
//!
//! `cargo bench -p aql-bench --bench cache_evict` prints ns per batch
//! of `ACCESSES` lookups (or chunk visits); divide to get ns per miss.

use aql_store::{
    ChunkCache, ChunkLayout, LazyArray, MemChunkSource, PrefetchConfig, Prefetcher, ScalarBuf,
    ScalarKind,
};
use criterion::{criterion_group, criterion_main, Criterion};

/// Lookups per timed batch in the bookkeeping-only benches.
const ACCESSES: u64 = 100_000;
/// Chunks a full cache holds.
const HELD: u64 = 128;
/// 32 KiB chunks of `f64`, the AQF default.
const CHUNK: u64 = 4096;
/// Chunks in the scanned array: eight times what the cache holds.
const CHUNKS: u64 = 8 * HELD;

fn one(id: u64) -> Result<ScalarBuf, aql_store::StoreError> {
    Ok(ScalarBuf::F64(vec![id as f64]))
}

/// A `LazyArray` over `CHUNKS` in-memory 32 KiB chunks with a cache
/// that holds `HELD` of them, optionally with a read-ahead prefetcher.
fn scanned_array(prefetch: bool) -> LazyArray {
    let n = CHUNKS * CHUNK;
    let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let source = |d: Vec<f64>| MemChunkSource::new(vec![n], ScalarBuf::F64(d)).expect("source");
    let layout = ChunkLayout::new(vec![n], vec![CHUNK]).expect("layout");
    let budget = HELD * CHUNK * 8;
    let mut a = LazyArray::labeled(
        layout.clone(),
        ScalarKind::F64,
        Box::new(source(data.clone())),
        budget,
        "mem",
    );
    if prefetch {
        let worker = Box::new(source(data));
        a.attach_prefetcher(Prefetcher::spawn(worker, layout, PrefetchConfig::default()));
    }
    a
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_evict");
    g.sample_size(20);

    // 1-element chunks cycled over twice the budget: every lookup
    // misses and evicts, and the loader is almost free, so the batch
    // is the miss path's own bookkeeping.
    let mut cache = ChunkCache::new(HELD * 8);
    let mut k = 0u64;
    g.bench_function("miss_evict_held128", |b| {
        b.iter(|| {
            for _ in 0..ACCESSES {
                let id = k % (2 * HELD);
                k += 1;
                cache.get_or_load(id, || one(id)).expect("load");
            }
        })
    });

    // Random lookups over 160 ids with 128 held: ~80% hits, each
    // miss evicting a victim whose recency hits have moved.
    let mut cache = ChunkCache::new(HELD * 8);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    g.bench_function("mixed_held128_of160", |b| {
        b.iter(|| {
            for _ in 0..ACCESSES {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let id = (x >> 20) % 160;
                cache.get_or_load(id, || one(id)).expect("load");
            }
        })
    });

    // One element per chunk in chunk order: every visit is a 32 KiB
    // miss that evicts; with the prefetcher most are warm-pool
    // handovers, which pay no source read.
    for (name, prefetch) in [("scan_32KiB_held128", false), ("scan_32KiB_held128_prefetch", true)] {
        let mut a = scanned_array(prefetch);
        g.bench_function(name, |b| {
            b.iter(|| {
                for chunk in 0..CHUNKS {
                    a.get_linear(chunk * CHUNK + 7).expect("visit").expect("in range");
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
