//! A budgeted LRU buffer cache for chunks.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

use crate::buffer::ScalarBuf;
use crate::error::StoreError;
use crate::event::{self, Event, Label};
use crate::governor;
use crate::interrupt;
use crate::stats::CacheStats;

struct Entry {
    buf: Rc<ScalarBuf>,
    /// Recency: the cache tick of the last access. Ticks are unique,
    /// so the smallest one names the least-recently-used entry.
    tick: u64,
}

/// How a miss was satisfied — who actually paid the source read.
///
/// Distinguishing the two closes an attribution race: a warm-pool
/// handover's bytes were read by the prefetcher's *background* thread,
/// possibly while a different statement was running. Counting them as
/// the consuming statement's `bytes_read` both inflates that statement
/// and misattributes the I/O; they are accounted separately as
/// [`CacheStats::prefetched_bytes`] against the owning binding's
/// source label.
pub enum Loaded {
    /// The loader read from the chunk source (consumer-paid I/O).
    Source(ScalarBuf),
    /// The loader claimed a buffer the prefetch worker already loaded.
    Warm(ScalarBuf),
}

/// An LRU cache of chunk buffers held under a configurable byte
/// budget.
///
/// Lookups go through [`get_or_load`](ChunkCache::get_or_load): a hit
/// returns the cached buffer and refreshes its recency; a miss runs
/// the supplied loader, accounts the loaded bytes, inserts the buffer,
/// and then evicts least-recently-used chunks until the payload bytes
/// held fit the budget again (the just-loaded chunk is never evicted,
/// so a single chunk larger than the whole budget still works — the
/// cache simply holds that one chunk). Recency lives in each entry, so
/// a hit is one map lookup and a tick store; the LRU victim comes from
/// a min-heap of `(tick, id)` that only misses touch, re-keyed lazily
/// where a hit left a key stale. A loader error is propagated
/// to the caller and leaves the cache contents untouched, so a failed
/// load can never poison previously cached chunks.
///
/// Residency is also charged against the process-wide
/// [`governor`] ledger: when a charge would exceed
/// the process budget the cache sheds its own LRU entries first and
/// only then fails the load with [`StoreError::Budget`]. Misses (and
/// only misses) poll [`interrupt::check`] so
/// a statement blocked on I/O honors its deadline and cancellation.
///
/// Every counter increment is one [`event::emit`], so the thread-local
/// aggregate ([`crate::stats::global`]), metrics, trace, journal and
/// attribution ledger all see it.
pub struct ChunkCache {
    budget: u64,
    map: HashMap<u64, Entry>,
    /// One `(tick, id)` per resident entry, pushed on insert. A hit
    /// does not touch it, so a key may be older than its entry's tick;
    /// [`lru`](ChunkCache::lru) re-keys such a key when it surfaces.
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    tick: u64,
    bytes: u64,
    stats: CacheStats,
    /// The source events are charged to ([`Label::NONE`] = unlabeled).
    label: Label,
}

impl ChunkCache {
    /// A cache that holds at most `budget_bytes` of chunk payload.
    pub fn new(budget_bytes: u64) -> ChunkCache {
        ChunkCache {
            budget: budget_bytes,
            map: HashMap::new(),
            queue: BinaryHeap::new(),
            tick: 0,
            bytes: 0,
            stats: CacheStats::default(),
            label: Label::NONE,
        }
    }

    /// A cache whose miss-path I/O is attributed to a *source* label
    /// (`netcdf:<var>`, `aqf:<file>`, `mem`) in the per-source
    /// `aql_store_cache_bytes_read_total{source=…}` /
    /// `…_load_errors_total{source=…}` metric series, alongside the
    /// unlabeled process totals.
    pub fn labeled(budget_bytes: u64, label: impl Into<String>) -> ChunkCache {
        let mut cache = ChunkCache::new(budget_bytes);
        cache.label = Label::new(label);
        cache
    }

    /// The source label miss-path I/O is attributed to, if any.
    pub fn label(&self) -> Option<&str> {
        Some(self.label.name()).filter(|l| !l.is_empty())
    }

    /// The label this cache's events are charged to.
    pub(crate) fn source_label(&self) -> &Label {
        &self.label
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Payload bytes currently held.
    pub fn bytes_held(&self) -> u64 {
        self.bytes
    }

    /// Number of chunks currently held.
    pub fn chunks_held(&self) -> usize {
        self.map.len()
    }

    /// This cache's counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Return chunk `id`, consulting `load` on a miss. Loader bytes
    /// are charged as consumer-paid `bytes_read`; use
    /// [`get_or_load_with`](ChunkCache::get_or_load_with) when the
    /// loader can hand over prefetched buffers.
    pub fn get_or_load(
        &mut self,
        id: u64,
        load: impl FnOnce() -> Result<ScalarBuf, StoreError>,
    ) -> Result<Rc<ScalarBuf>, StoreError> {
        self.get_or_load_with(id, || load().map(Loaded::Source))
    }

    /// Return chunk `id`, consulting `load` on a miss; the loader says
    /// whether the buffer came from the source or a warm pool (see
    /// [`Loaded`]), which decides whether its bytes count as
    /// `bytes_read` or `prefetched_bytes`.
    pub fn get_or_load_with(
        &mut self,
        id: u64,
        load: impl FnOnce() -> Result<Loaded, StoreError>,
    ) -> Result<Rc<ScalarBuf>, StoreError> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.map.get_mut(&id) {
            entry.tick = tick;
            let buf = Rc::clone(&entry.buf);
            self.note(Event::CacheHit);
            return Ok(buf);
        }
        // Miss path only: a statement blocked on I/O must notice its
        // deadline/cancellation, but a hit costs nothing extra.
        interrupt::check()?;
        let (buf, warm) = match load() {
            Ok(Loaded::Source(buf)) => (Rc::new(buf), false),
            Ok(Loaded::Warm(buf)) => (Rc::new(buf), true),
            Err(e) => {
                self.note(Event::CacheLoadError);
                return Err(e);
            }
        };
        let loaded = buf.byte_len();
        self.note(if warm {
            Event::CacheWarm(loaded)
        } else {
            Event::CacheLoad(loaded)
        });
        // Process-wide admission: shed own residency before denying
        // (DESIGN.md §12 degradation order). A denial fails this one
        // load; everything already cached stays valid.
        if !self.shed_until_charged(loaded) {
            return Err(governor::deny(loaded));
        }
        self.bytes += loaded;
        self.map.insert(id, Entry { buf: Rc::clone(&buf), tick });
        self.queue.push(Reverse((tick, id)));
        self.evict_over_budget(id);
        Ok(buf)
    }

    /// Charge `needed` bytes against the process governor, evicting
    /// LRU entries (and releasing their governed bytes) until the
    /// charge fits or the cache is empty. Returns whether the charge
    /// succeeded. The unlimited default budget makes the first
    /// `try_charge` succeed immediately.
    fn shed_until_charged(&mut self, needed: u64) -> bool {
        loop {
            if governor::try_charge(needed) {
                return true;
            }
            let Some(victim) = self.lru(None) else { return false };
            event::emit(&Label::NONE, Event::GovernorShed);
            self.evict(victim);
        }
    }

    /// Evict LRU-first until within budget, sparing `keep`.
    fn evict_over_budget(&mut self, keep: u64) {
        while self.bytes > self.budget {
            let Some(victim) = self.lru(Some(keep)) else { break };
            self.evict(victim);
        }
    }

    /// Take the least-recently-used chunk other than `spare` off the
    /// queue. A popped key older than its entry's tick was refreshed
    /// by a hit: it goes back under the current tick. A current key is
    /// the true minimum, since every other entry's key is at most its
    /// tick and ticks are unique. Each re-key pays for at least one hit
    /// since the entry's last push, so a victim costs O(log chunks
    /// held) amortized. `spare` is the just-loaded chunk, whose tick is
    /// the newest, so it surfaces current only when nothing else is
    /// held.
    fn lru(&mut self, spare: Option<u64>) -> Option<u64> {
        while let Some(Reverse((key, id))) = self.queue.pop() {
            let tick = self.map.get(&id).expect("queued chunk is resident").tick;
            if key == tick && Some(id) != spare {
                return Some(id);
            }
            self.queue.push(Reverse((tick, id)));
            if key == tick {
                // The spared chunk, current: nothing older is held.
                return None;
            }
        }
        None
    }

    /// Drop chunk `id` (already off the queue), give its governed bytes
    /// back, and emit the eviction.
    fn evict(&mut self, id: u64) {
        let entry = self.map.remove(&id).expect("lru victim is resident");
        let freed = entry.buf.byte_len();
        self.bytes -= freed;
        governor::release(freed);
        self.note(Event::CacheEvict);
    }

    /// Count `event` in this cache's own stats and emit it.
    #[inline(always)]
    fn note(&mut self, event: Event) {
        self.stats.fold(event);
        event::emit(&self.label, event);
    }
}

impl Drop for ChunkCache {
    /// Give the governed bytes of everything still resident back to
    /// the process ledger.
    fn drop(&mut self) {
        governor::release(self.bytes);
    }
}

impl std::fmt::Debug for ChunkCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkCache")
            .field("budget", &self.budget)
            .field("bytes", &self.bytes)
            .field("chunks", &self.map.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(n: usize, fill: f64) -> ScalarBuf {
        ScalarBuf::F64(vec![fill; n])
    }

    #[test]
    fn hit_after_miss() {
        let mut c = ChunkCache::new(1024);
        c.get_or_load(0, || Ok(buf(4, 1.0))).unwrap();
        let b = c.get_or_load(0, || panic!("should not reload")).unwrap();
        assert_eq!(b.len(), 4);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.bytes_read), (1, 1, 32));
    }

    #[test]
    fn evicts_lru_first_under_budget() {
        // Budget fits two 32-byte chunks.
        let mut c = ChunkCache::new(64);
        c.get_or_load(0, || Ok(buf(4, 0.0))).unwrap();
        c.get_or_load(1, || Ok(buf(4, 1.0))).unwrap();
        c.get_or_load(0, || panic!("0 still cached")).unwrap(); // refresh 0
        c.get_or_load(2, || Ok(buf(4, 2.0))).unwrap(); // evicts 1
        c.get_or_load(0, || panic!("0 survived")).unwrap();
        let reloaded = std::cell::Cell::new(false);
        c.get_or_load(1, || {
            reloaded.set(true);
            Ok(buf(4, 1.0))
        })
        .unwrap();
        assert!(reloaded.get(), "LRU chunk 1 was evicted");
        assert_eq!(c.stats().evictions, 2); // 1 evicted, then 2 or 0 evicted on reload of 1
    }

    #[test]
    fn oversized_chunk_is_kept_alone() {
        let mut c = ChunkCache::new(16);
        c.get_or_load(0, || Ok(buf(2, 0.0))).unwrap();
        c.get_or_load(1, || Ok(buf(100, 1.0))).unwrap(); // 800 bytes > budget
        assert_eq!(c.chunks_held(), 1);
        c.get_or_load(1, || panic!("oversized chunk stays resident")).unwrap();
    }

    #[test]
    fn load_error_does_not_poison() {
        let mut c = ChunkCache::new(1024);
        c.get_or_load(0, || Ok(buf(4, 0.0))).unwrap();
        let err = c.get_or_load(1, || Err(StoreError::io("boom"))).unwrap_err();
        assert!(!err.is_transient());
        // Chunk 0 still hits; chunk 1 was never inserted.
        c.get_or_load(0, || panic!("0 still cached")).unwrap();
        let s = c.stats();
        assert_eq!(s.load_errors, 1);
        assert_eq!(c.chunks_held(), 1);
        // A later successful load of 1 caches normally.
        c.get_or_load(1, || Ok(buf(4, 1.0))).unwrap();
        c.get_or_load(1, || panic!("1 cached after recovery")).unwrap();
    }
}
