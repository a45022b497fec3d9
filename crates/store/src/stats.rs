//! Cache instrumentation counters.
//!
//! Every [`ChunkCache`](crate::ChunkCache) keeps its own
//! [`CacheStats`]. Each cache event is also folded into a
//! **thread-local aggregate** readable via [`global`] — one of the
//! sinks of the [`event`](crate::event) stream. A caller measures the
//! I/O cost of any stretch of work on its thread as a before/after
//! delta ([`CacheStats::delta_since`]) without threading a cache
//! handle through every array value. The runtime is single-threaded
//! (values are `Rc`-based), so a thread-local is exact, not
//! approximate. A session statement's own account comes from its
//! attribution ledger instead ([`CacheStats::from_ledger`]); the two
//! agree because both fold the same events.

use std::cell::Cell;

use crate::event::Event;

/// Monotonic counters describing cache behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to consult the chunk source.
    pub misses: u64,
    /// Chunks evicted to stay under the byte budget.
    pub evictions: u64,
    /// Payload bytes loaded from the source on misses.
    pub bytes_read: u64,
    /// Payload bytes handed over from a prefetcher's warm pool on
    /// misses — the background worker already paid the source read,
    /// so these are *not* part of [`bytes_read`](CacheStats::bytes_read).
    pub prefetched_bytes: u64,
    /// Loader invocations that returned an error (nothing cached).
    pub load_errors: u64,
}

impl CacheStats {
    /// The counter increments since `base` was captured. Saturating:
    /// a stale base larger than `self` clamps to zero rather than
    /// wrapping.
    pub fn delta_since(&self, base: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(base.hits),
            misses: self.misses.saturating_sub(base.misses),
            evictions: self.evictions.saturating_sub(base.evictions),
            bytes_read: self.bytes_read.saturating_sub(base.bytes_read),
            prefetched_bytes: self.prefetched_bytes.saturating_sub(base.prefetched_bytes),
            load_errors: self.load_errors.saturating_sub(base.load_errors),
        }
    }

    /// The cache counters of a statement's attribution ledger, summed
    /// over its sources (`misses` = chunks loaded + load errors).
    pub fn from_ledger(ledger: &aql_journal::attr::Ledger) -> CacheStats {
        let mut s = CacheStats::default();
        for (_, c) in &ledger.sources {
            s.hits += c.hits;
            s.misses += c.chunks_loaded + c.load_errors;
            s.evictions += c.evictions;
            s.bytes_read += c.bytes_read;
            s.prefetched_bytes += c.prefetched_bytes;
            s.load_errors += c.load_errors;
        }
        s
    }

    /// Hit rate in `[0, 1]`, or `None` when no lookups happened.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

thread_local! {
    static GLOBAL: Cell<CacheStats> = const { Cell::new(CacheStats {
        hits: 0,
        misses: 0,
        evictions: 0,
        bytes_read: 0,
        prefetched_bytes: 0,
        load_errors: 0,
    }) };
}

/// Snapshot of the thread-local aggregate across all caches on this
/// thread.
pub fn global() -> CacheStats {
    GLOBAL.with(|g| g.get())
}

/// Fold a cache event into this thread's aggregate (the
/// [`event`](crate::event) module's first sink).
#[inline(always)]
pub(crate) fn fold_global(event: Event) {
    GLOBAL.with(|g| {
        let mut cur = g.get();
        cur.fold(event);
        g.set(cur);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_saturates() {
        let a = CacheStats { hits: 5, misses: 2, ..Default::default() };
        let b = CacheStats { hits: 7, misses: 1, ..Default::default() };
        let d = b.delta_since(&a);
        assert_eq!(d.hits, 2);
        assert_eq!(d.misses, 0);
    }

    #[test]
    fn hit_rate_handles_empty() {
        assert_eq!(CacheStats::default().hit_rate(), None);
        let s = CacheStats { hits: 3, misses: 1, ..Default::default() };
        assert_eq!(s.hit_rate(), Some(0.75));
    }

    #[test]
    fn global_accumulates() {
        let base = global();
        fold_global(Event::CacheHit);
        fold_global(Event::CacheHit);
        fold_global(Event::CacheLoad(16));
        let d = global().delta_since(&base);
        assert_eq!((d.hits, d.misses, d.bytes_read), (2, 1, 16));
    }

    #[test]
    fn ledger_fold_counts_failed_loads_as_misses() {
        use aql_journal::attr::{Ledger, SourceCounts};
        let row = |chunks_loaded, load_errors| SourceCounts {
            hits: 3,
            chunks_loaded,
            bytes_read: 64,
            load_errors,
            ..Default::default()
        };
        let ledger = Ledger {
            sources: vec![("a".to_string(), row(2, 1)), ("b".to_string(), row(1, 0))],
            ..Ledger::default()
        };
        let s = CacheStats::from_ledger(&ledger);
        assert_eq!((s.hits, s.misses, s.bytes_read, s.load_errors), (6, 4, 128, 1));
    }
}
