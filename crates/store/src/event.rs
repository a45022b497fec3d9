//! The storage event stream: every instrumented storage occurrence is
//! one [`Event`], emitted once with [`emit`].
//!
//! The five observability sinks are folds over that stream, each one
//! `match` below:
//!
//! | sink | read by | switch |
//! |---|---|---|
//! | per-thread [`CacheStats`] aggregate | [`stats::global`] | always on |
//! | `aql_store_*` / `aql_netcdf_*` counters, unlabeled and `source=`-labeled | `GET /metrics` | `aql_metrics::set_enabled` |
//! | `aql-trace` counters on the innermost open span | `Session::profile` | trace enable |
//! | flight-recorder ring ([`aql_journal::Tag`]) | `\doctor`, incident files | `aql_journal::set_enabled` |
//! | attribution ledger ([`aql_journal::attr`]) | `\attr`, `EvalStats.cache`, incidents | open only inside a statement |
//!
//! Because every sink reads the same event, they cannot disagree about
//! what happened — only about the window they aggregate over. Every
//! `match` is exhaustive, and a sink that does not record an event
//! says so in its arm. DESIGN.md §14 has the event-by-sink table.
//!
//! A cache hit is the hottest event: a `Cell` update, one flag read
//! per switch, one sharded `fetch_add`, the journal's coalesced hit
//! `Cell` and the ledger's one-`Cell` activity check — no allocation,
//! no lock, no dynamic dispatch.

use std::borrow::Cow;

use aql_journal::{attr, Tag};
use aql_metrics::LazyCounter;

use crate::stats::{self, CacheStats};

/// One instrumented storage occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A chunk-cache lookup served from memory.
    CacheHit,
    /// A cache miss satisfied by reading `.0` bytes from the source.
    CacheLoad(u64),
    /// A cache miss satisfied by a prefetcher warm-pool handover of
    /// `.0` bytes.
    CacheWarm(u64),
    /// A cache miss whose loader failed (nothing cached).
    CacheLoadError,
    /// A chunk evicted from a cache (own budget or governor shed).
    CacheEvict,
    /// A cache entry dropped to make room under the process budget.
    GovernorShed,
    /// A byte-budget charge of `.0` bytes denied after shedding.
    GovernorDeny(u64),
    /// A resilient chunk read retried; `.0` is the attempt about to
    /// run (2-based).
    Retry(u64),
    /// A chunk payload rejected for a checksum mismatch.
    ChecksumMismatch,
    /// A circuit breaker tripped open.
    BreakerTrip,
    /// A half-open probe admitted after the cool-down.
    BreakerProbe,
    /// A read rejected while the breaker is open.
    BreakerFastFail,
    /// A call succeeded while the breaker was not closed.
    BreakerClose,
    /// The read-ahead predictor queued `.0` speculative loads.
    PrefetchIssued(u64),
    /// A miss served from a prefetcher's warm pool.
    PrefetchHit,
    /// A speculatively loaded chunk discarded unconsumed.
    PrefetchWasted,
    /// A `FaultyChunkSource` fault of kind `.0` (`transient`,
    /// `persistent`, `corrupt`, `latency`).
    FaultInjected(&'static str),
    /// A NetCDF hyperslab read requested.
    HyperslabRequest,
    /// A NetCDF I/O operation failed; `.0` when another attempt follows.
    NetcdfFault(bool),
    /// An eager NetCDF hyperslab read starts attempt `.0` (2-based).
    SlabRetry(u64),
}

/// The source an event is charged to: its name (the metric `source=`
/// label and trace-counter suffix) and its interned journal id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Label {
    name: Cow<'static, str>,
    id: u16,
}

impl Label {
    /// No source (process-wide events; id 0).
    pub const NONE: Label = Label { name: Cow::Borrowed(""), id: 0 };

    /// Intern `name` (`netcdf:<var>`, `aqf:<file>`, `mem`, …).
    pub fn new(name: impl Into<String>) -> Label {
        let name = name.into();
        Label { id: aql_journal::intern(&name), name: Cow::Owned(name) }
    }

    /// The label string; empty when unlabeled.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interned flight-recorder id (0 = unlabeled).
    pub fn id(&self) -> u16 {
        self.id
    }
}

/// Emit `event` once, charged to `label`, into every sink.
#[inline(always)]
pub fn emit(label: &Label, event: Event) {
    stats::fold_global(event);
    metrics(label, event);
    trace(label, event);
    journal(label, event);
    ledger(label, event);
}

impl CacheStats {
    /// Sink: fold one event into these counters (the per-cache stats
    /// and the per-thread aggregate share this fold).
    #[inline(always)]
    pub fn fold(&mut self, event: Event) {
        use Event::*;
        match event {
            CacheHit => self.hits += 1,
            CacheLoad(bytes) => {
                self.misses += 1;
                self.bytes_read += bytes
            }
            CacheWarm(bytes) => {
                self.misses += 1;
                self.prefetched_bytes += bytes
            }
            CacheLoadError => {
                self.misses += 1;
                self.load_errors += 1
            }
            CacheEvict => self.evictions += 1,
            // Not cache traffic.
            GovernorShed | GovernorDeny(_) | Retry(_) | ChecksumMismatch | BreakerTrip
            | BreakerProbe | BreakerFastFail | BreakerClose | PrefetchIssued(_) | PrefetchHit
            | PrefetchWasted | FaultInjected(_) | HyperslabRequest | NetcdfFault(_)
            | SlabRetry(_) => {}
        }
    }
}

macro_rules! counters {
    ($($id:ident $name:literal $help:literal)*) => {
        $(static $id: LazyCounter = LazyCounter::new($name, $help);)*
    };
}

counters! {
    M_HITS "aql_store_cache_hits_total" "Chunk-cache lookups served from memory."
    M_MISSES "aql_store_cache_misses_total" "Chunk-cache lookups that consulted the chunk source."
    M_EVICTIONS "aql_store_cache_evictions_total" "Chunks evicted to stay under the byte budget."
    M_BYTES "aql_store_cache_bytes_read_total" "Payload bytes loaded from chunk sources on misses."
    M_PREFETCHED "aql_store_cache_prefetched_bytes_total"
        "Payload bytes handed over from prefetch warm pools on misses."
    M_LOAD_ERRORS "aql_store_cache_load_errors_total" "Chunk-loader invocations that returned an error."
    M_SHEDS "aql_store_governor_sheds_total"
        "Cache entries evicted to make room under the process byte budget."
    M_DENIALS "aql_store_governor_denials_total"
        "Byte-budget charges denied after shedding (surfaced as ResourceExhausted)."
    M_RETRIES "aql_store_resilience_retries_total" "Chunk reads retried after a retryable failure."
    M_CHECKSUM "aql_store_checksum_mismatch_total"
        "Chunk payloads rejected because their checksum disagreed with the source's."
    M_TRIPS "aql_store_breaker_trips_total"
        "Circuit breakers tripped open after consecutive source failures."
    M_PROBES "aql_store_breaker_probes_total" "Half-open probes admitted after a breaker cool-down."
    M_FAST_FAILS "aql_store_breaker_fast_fails_total"
        "Chunk reads rejected without touching the source (breaker open)."
    M_ISSUED "aql_store_prefetch_issued_total"
        "Chunk loads requested speculatively by the read-ahead predictor."
    M_PF_HITS "aql_store_prefetch_hits_total"
        "Chunk misses served from the prefetch warm pool instead of the source."
    M_WASTED "aql_store_prefetch_wasted_total"
        "Speculatively loaded chunks discarded without ever being consumed."
    M_INJECTED "aql_store_chaos_injected_total"
        "Faults injected by FaultyChunkSource (errors, corruption, latency)."
    M_HYPERSLABS "aql_netcdf_hyperslab_requests_total" "Hyperslab read requests issued to NetCDF sources."
    M_NC_FAULTS "aql_netcdf_faults_total" "NetCDF I/O operations that returned an error (pre-retry)."
    M_NC_RETRIES "aql_netcdf_retries_total" "NetCDF I/O attempts retried after a transient error."
}

/// Sink: process-lifetime metric counters. Miss-path I/O of labeled
/// caches also lands in the family's `source=` series; that registry
/// lookup never happens on a hit.
#[inline(always)]
fn metrics(label: &Label, event: Event) {
    use Event::*;
    let with_source = |family: &LazyCounter, delta| {
        family.add(delta);
        if !label.name.is_empty() {
            family.add_labeled(&[("source", label.name())], delta);
        }
    };
    match event {
        CacheHit => M_HITS.inc(),
        CacheLoad(bytes) => {
            M_MISSES.inc();
            with_source(&M_BYTES, bytes)
        }
        CacheWarm(bytes) => {
            M_MISSES.inc();
            with_source(&M_PREFETCHED, bytes)
        }
        CacheLoadError => {
            M_MISSES.inc();
            with_source(&M_LOAD_ERRORS, 1)
        }
        CacheEvict => M_EVICTIONS.inc(),
        GovernorShed => M_SHEDS.inc(),
        GovernorDeny(_) => M_DENIALS.inc(),
        Retry(_) => M_RETRIES.inc(),
        ChecksumMismatch => M_CHECKSUM.inc(),
        BreakerTrip => M_TRIPS.inc(),
        BreakerProbe => M_PROBES.inc(),
        BreakerFastFail => M_FAST_FAILS.inc(),
        PrefetchIssued(chunks) => M_ISSUED.add(chunks),
        PrefetchHit => M_PF_HITS.inc(),
        PrefetchWasted => M_WASTED.inc(),
        FaultInjected(_) => M_INJECTED.inc(),
        HyperslabRequest => M_HYPERSLABS.inc(),
        NetcdfFault(retried) => {
            M_NC_FAULTS.inc();
            M_NC_RETRIES.add(retried as u64)
        }
        // Trace counter only.
        BreakerClose => {}
        // Counted by the `NetcdfFault(true)` before it.
        SlabRetry(_) => {}
    }
}

/// Sink: counters on the innermost open trace span (this thread).
#[inline(always)]
fn trace(label: &Label, event: Event) {
    use aql_trace::{count, count_with};
    use Event::*;
    if !aql_trace::enabled() {
        return;
    }
    let by_source = |prefix: &str| count_with(|| format!("{prefix}:{}", label.name), 1);
    match event {
        CacheHit => count("cache.hits", 1),
        CacheLoad(bytes) => {
            count("cache.misses", 1);
            count("cache.bytes_read", bytes)
        }
        CacheWarm(bytes) => {
            count("cache.misses", 1);
            count("cache.prefetched_bytes", bytes)
        }
        CacheLoadError => {
            count("cache.misses", 1);
            count("cache.load_errors", 1)
        }
        CacheEvict => count("cache.evictions", 1),
        GovernorShed => count("governor.sheds", 1),
        GovernorDeny(_) => count("governor.denials", 1),
        Retry(_) => count("chunks.retries", 1),
        ChecksumMismatch => count("chunks.checksum_mismatch", 1),
        BreakerTrip => by_source("breaker.trip"),
        BreakerProbe => by_source("breaker.probe"),
        BreakerFastFail => by_source("breaker.fast_fail"),
        BreakerClose => by_source("breaker.close"),
        PrefetchIssued(chunks) => count("prefetch.issued", chunks),
        PrefetchHit => count("prefetch.hits", 1),
        FaultInjected(kind) => count_with(|| format!("chaos.injected:{kind}"), 1),
        HyperslabRequest => count("netcdf.hyperslab_requests", 1),
        NetcdfFault(retried) => {
            count("netcdf.faults", 1);
            count("netcdf.retries", retried as u64)
        }
        // Emitted by the worker thread, which has no trace subscriber.
        PrefetchWasted => {}
        // Counted as `netcdf.retries` by the `NetcdfFault(true)` before it.
        SlabRetry(_) => {}
    }
}

/// Sink: the flight-recorder ring.
#[inline(always)]
fn journal(label: &Label, event: Event) {
    use Event::*;
    if !aql_journal::enabled() {
        return;
    }
    let record = |tag: Tag, a: u64| aql_journal::record(tag, label.id, a, 0);
    match event {
        CacheHit => aql_journal::cache_hit(label.id),
        CacheLoad(bytes) if bytes > 0 => record(Tag::CacheMiss, bytes),
        CacheWarm(bytes) if bytes > 0 => record(Tag::CacheWarm, bytes),
        CacheLoadError => record(Tag::CacheLoadError, 1),
        CacheEvict => record(Tag::CacheEvict, 1),
        GovernorShed => record(Tag::GovernorShed, 0),
        GovernorDeny(requested) => record(Tag::GovernorDeny, requested),
        Retry(attempt) | SlabRetry(attempt) => record(Tag::Retry, attempt),
        BreakerTrip => record(Tag::BreakerTrip, 0),
        BreakerProbe => record(Tag::BreakerProbe, 0),
        BreakerFastFail => record(Tag::BreakerFastFail, 0),
        PrefetchIssued(chunks) => record(Tag::PrefetchIssued, chunks),
        PrefetchWasted => record(Tag::PrefetchWasted, 1),
        // An empty chunk moved no bytes: nothing to record.
        CacheLoad(_) | CacheWarm(_) => {}
        // No tag: metrics and trace only.
        ChecksumMismatch | BreakerClose | PrefetchHit | FaultInjected(_) | HyperslabRequest
        | NetcdfFault(_) => {}
    }
}

/// Sink: the open statement's attribution ledger (this thread only).
#[inline(always)]
fn ledger(label: &Label, event: Event) {
    use Event::*;
    if !attr::active() {
        return;
    }
    let id = label.id;
    match event {
        CacheHit => attr::note(id, |c| c.hits += 1),
        CacheLoad(bytes) => attr::note(id, |c| {
            c.chunks_loaded += 1;
            c.bytes_read += bytes
        }),
        CacheWarm(bytes) => attr::note(id, |c| {
            c.chunks_loaded += 1;
            c.prefetched_bytes += bytes
        }),
        CacheLoadError => attr::note(id, |c| c.load_errors += 1),
        CacheEvict => attr::note(id, |c| c.evictions += 1),
        Retry(_) | SlabRetry(_) => attr::note(id, |c| c.retries += 1),
        BreakerTrip => attr::note(id, |c| c.trips += 1),
        GovernorShed => attr::note_shed(),
        GovernorDeny(_) => attr::note_denial(),
        // Not charged per statement.
        ChecksumMismatch | BreakerProbe | BreakerFastFail | BreakerClose | PrefetchIssued(_)
        | PrefetchHit | PrefetchWasted | FaultInjected(_) | HyperslabRequest | NetcdfFault(_) => {}
    }
}
