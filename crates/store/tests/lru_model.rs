//! Model equivalence of the chunk cache's LRU: random access sequences
//! under random cache and process budgets give the same evictions,
//! [`CacheStats`] and `bytes_held` as a reference `Vec`-based exact LRU.
//!
//! The sequences include failed loads, governor sheds, governor
//! denials and chunks larger than the whole cache budget (the
//! just-loaded chunk is spared). The governor's budget is process
//! state, so this test lives in its own binary.

use std::rc::{Rc, Weak};

use proptest::prelude::*;

use aql_store::{governor, CacheStats, ChunkCache, ScalarBuf, StoreError};

/// A chunk of `id`'s payload; its size is a function of `id`.
fn elems(id: u64) -> usize {
    [1, 2, 3, 5, 8][id as usize % 5]
}

fn bytes(id: u64) -> u64 {
    8 * elems(id) as u64
}

/// The reference: resident chunks in recency order, least recent first.
#[derive(Default)]
struct Model {
    lru: Vec<u64>,
    stats: CacheStats,
}

impl Model {
    fn held(&self) -> u64 {
        self.lru.iter().map(|&id| bytes(id)).sum()
    }

    /// One access; returns the chunks it evicted, oldest first.
    fn access(&mut self, id: u64, fail: bool, budget: u64, process: u64) -> Vec<u64> {
        if let Some(pos) = self.lru.iter().position(|&c| c == id) {
            self.lru.remove(pos);
            self.lru.push(id);
            self.stats.hits += 1;
            return Vec::new();
        }
        self.stats.misses += 1;
        if fail {
            self.stats.load_errors += 1;
            return Vec::new();
        }
        self.stats.bytes_read += bytes(id);
        let mut evicted = Vec::new();
        // Governor: shed least recent until the new chunk fits.
        while self.held() + bytes(id) > process && !self.lru.is_empty() {
            evicted.push(self.lru.remove(0));
        }
        if self.held() + bytes(id) > process {
            // Denied: nothing cached, nothing else changes.
        } else {
            self.lru.push(id);
            // Own budget: evict least recent, sparing `id`.
            while self.held() > budget && self.lru.len() > 1 {
                evicted.push(self.lru.remove(0));
            }
        }
        self.stats.evictions += evicted.len() as u64;
        evicted
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_matches_exact_lru(
        budget in 0u64..200,
        process in 8u64..300,
        ops in prop::collection::vec((0u64..12, 0u32..10), 0..200),
    ) {
        let base = governor::bytes_in_use();
        governor::set_budget(Some(base + process));
        let mut cache = ChunkCache::new(budget);
        let mut model = Model::default();
        // Weak handles to every loaded buffer: one dies exactly when
        // the cache drops its chunk.
        let mut alive: Vec<(u64, Weak<ScalarBuf>)> = Vec::new();
        for (step, &(id, roll)) in ops.iter().enumerate() {
            let fail = roll == 0;
            let want = model.access(id, fail, budget, process);
            let got = cache.get_or_load(id, || {
                if fail {
                    Err(StoreError::io("injected"))
                } else {
                    Ok(ScalarBuf::F64(vec![id as f64; elems(id)]))
                }
            });
            // The access succeeds exactly when the model holds `id`
            // afterwards; otherwise the loader failed or the governor
            // denied the charge.
            match got {
                Ok(buf) => {
                    prop_assert!(model.lru.contains(&id), "step {step}: {id} should fail");
                    if !alive.iter().any(|(c, _)| *c == id) {
                        alive.push((id, Rc::downgrade(&buf)));
                    }
                }
                Err(e) => {
                    prop_assert!(!model.lru.contains(&id), "step {step}: {id} failed: {e}");
                    prop_assert_eq!(fail, !matches!(e, StoreError::Budget { .. }));
                }
            }
            let mut dead: Vec<u64> = Vec::new();
            alive.retain(|(c, w)| {
                let live = w.strong_count() > 0;
                if !live {
                    dead.push(*c);
                }
                live
            });
            let mut want_sorted = want.clone();
            want_sorted.sort_unstable();
            dead.sort_unstable();
            prop_assert_eq!(&dead, &want_sorted, "step {}: evictions", step);
            prop_assert_eq!(cache.stats(), model.stats, "step {}: stats", step);
            prop_assert_eq!(cache.bytes_held(), model.held(), "step {}: bytes held", step);
            prop_assert_eq!(cache.chunks_held(), model.lru.len());
        }
        drop(cache);
        prop_assert_eq!(governor::bytes_in_use(), base);
        governor::set_budget(None);
    }
}
