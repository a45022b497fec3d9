//! Sink agreement: every [`Event`] variant, emitted once, moves every
//! sink that records it by exactly the documented amount — the
//! per-thread `CacheStats` aggregate, the metric counters, the trace
//! counters, the flight recorder and the attribution ledger — and
//! moves nothing else.
//!
//! The table below is the contract DESIGN.md §14 prints. The test is
//! the only one in its binary, so process-wide metric deltas are exact.

use std::collections::BTreeMap;

use aql_journal::attr::{self, SourceCounts};
use aql_journal::Tag;
use aql_store::event::{emit, Event, Label};
use aql_store::CacheStats;

const SRC: &str = "t_sink:src";

/// What one event must do to each sink.
struct Row {
    event: Event,
    stats: CacheStats,
    /// Metric series key → delta.
    metrics: &'static [(&'static str, u64)],
    /// Trace counter → delta.
    trace: &'static [(&'static str, u64)],
    /// Journal records `(tag, labeled?, a)`.
    journal: &'static [(Tag, bool, u64)],
    /// The ledger row for `SRC`, plus (sheds, denials).
    ledger: SourceCounts,
    governor: (u64, u64),
}

fn row(event: Event) -> Row {
    Row {
        event,
        stats: CacheStats::default(),
        metrics: &[],
        trace: &[],
        journal: &[],
        ledger: SourceCounts::default(),
        governor: (0, 0),
    }
}

fn table() -> Vec<Row> {
    use Event::*;
    let stats = |f: fn(&mut CacheStats)| {
        let mut s = CacheStats::default();
        f(&mut s);
        s
    };
    let counts = |f: fn(&mut SourceCounts)| {
        let mut c = SourceCounts::default();
        f(&mut c);
        c
    };
    vec![
        Row {
            stats: stats(|s| s.hits = 1),
            metrics: &[("aql_store_cache_hits_total", 1)],
            trace: &[("cache.hits", 1)],
            journal: &[(Tag::CacheHit, true, 1)],
            ledger: counts(|c| c.hits = 1),
            ..row(CacheHit)
        },
        Row {
            stats: stats(|s| {
                s.misses = 1;
                s.bytes_read = 64;
            }),
            metrics: &[
                ("aql_store_cache_bytes_read_total", 64),
                ("aql_store_cache_bytes_read_total{source=\"t_sink:src\"}", 64),
                ("aql_store_cache_misses_total", 1),
            ],
            trace: &[("cache.misses", 1), ("cache.bytes_read", 64)],
            journal: &[(Tag::CacheMiss, true, 64)],
            ledger: counts(|c| {
                c.chunks_loaded = 1;
                c.bytes_read = 64;
            }),
            ..row(CacheLoad(64))
        },
        Row {
            stats: stats(|s| s.misses = 1),
            metrics: &[("aql_store_cache_misses_total", 1)],
            trace: &[("cache.misses", 1)],
            ledger: counts(|c| c.chunks_loaded = 1),
            ..row(CacheLoad(0))
        },
        Row {
            stats: stats(|s| {
                s.misses = 1;
                s.prefetched_bytes = 32;
            }),
            metrics: &[
                ("aql_store_cache_misses_total", 1),
                ("aql_store_cache_prefetched_bytes_total", 32),
                ("aql_store_cache_prefetched_bytes_total{source=\"t_sink:src\"}", 32),
            ],
            trace: &[("cache.misses", 1), ("cache.prefetched_bytes", 32)],
            journal: &[(Tag::CacheWarm, true, 32)],
            ledger: counts(|c| {
                c.chunks_loaded = 1;
                c.prefetched_bytes = 32;
            }),
            ..row(CacheWarm(32))
        },
        Row {
            stats: stats(|s| {
                s.misses = 1;
                s.load_errors = 1;
            }),
            metrics: &[
                ("aql_store_cache_load_errors_total", 1),
                ("aql_store_cache_load_errors_total{source=\"t_sink:src\"}", 1),
                ("aql_store_cache_misses_total", 1),
            ],
            trace: &[("cache.misses", 1), ("cache.load_errors", 1)],
            journal: &[(Tag::CacheLoadError, true, 1)],
            ledger: counts(|c| c.load_errors = 1),
            ..row(CacheLoadError)
        },
        Row {
            stats: stats(|s| s.evictions = 1),
            metrics: &[("aql_store_cache_evictions_total", 1)],
            trace: &[("cache.evictions", 1)],
            journal: &[(Tag::CacheEvict, true, 1)],
            ledger: counts(|c| c.evictions = 1),
            ..row(CacheEvict)
        },
        Row {
            metrics: &[("aql_store_governor_sheds_total", 1)],
            trace: &[("governor.sheds", 1)],
            journal: &[(Tag::GovernorShed, true, 0)],
            governor: (1, 0),
            ..row(GovernorShed)
        },
        Row {
            metrics: &[("aql_store_governor_denials_total", 1)],
            trace: &[("governor.denials", 1)],
            journal: &[(Tag::GovernorDeny, true, 4096)],
            governor: (0, 1),
            ..row(GovernorDeny(4096))
        },
        Row {
            metrics: &[("aql_store_resilience_retries_total", 1)],
            trace: &[("chunks.retries", 1)],
            journal: &[(Tag::Retry, true, 2)],
            ledger: counts(|c| c.retries = 1),
            ..row(Retry(2))
        },
        Row {
            metrics: &[("aql_store_checksum_mismatch_total", 1)],
            trace: &[("chunks.checksum_mismatch", 1)],
            ..row(ChecksumMismatch)
        },
        Row {
            metrics: &[("aql_store_breaker_trips_total", 1)],
            trace: &[("breaker.trip:t_sink:src", 1)],
            journal: &[(Tag::BreakerTrip, true, 0)],
            ledger: counts(|c| c.trips = 1),
            ..row(BreakerTrip)
        },
        Row {
            metrics: &[("aql_store_breaker_probes_total", 1)],
            trace: &[("breaker.probe:t_sink:src", 1)],
            journal: &[(Tag::BreakerProbe, true, 0)],
            ..row(BreakerProbe)
        },
        Row {
            metrics: &[("aql_store_breaker_fast_fails_total", 1)],
            trace: &[("breaker.fast_fail:t_sink:src", 1)],
            journal: &[(Tag::BreakerFastFail, true, 0)],
            ..row(BreakerFastFail)
        },
        Row { trace: &[("breaker.close:t_sink:src", 1)], ..row(BreakerClose) },
        Row {
            metrics: &[("aql_store_prefetch_issued_total", 3)],
            trace: &[("prefetch.issued", 3)],
            journal: &[(Tag::PrefetchIssued, true, 3)],
            ..row(PrefetchIssued(3))
        },
        Row {
            metrics: &[("aql_store_prefetch_hits_total", 1)],
            trace: &[("prefetch.hits", 1)],
            ..row(PrefetchHit)
        },
        Row {
            metrics: &[("aql_store_prefetch_wasted_total", 1)],
            journal: &[(Tag::PrefetchWasted, true, 1)],
            ..row(PrefetchWasted)
        },
        Row {
            metrics: &[("aql_store_chaos_injected_total", 1)],
            trace: &[("chaos.injected:latency", 1)],
            ..row(FaultInjected("latency"))
        },
        Row {
            metrics: &[("aql_netcdf_hyperslab_requests_total", 1)],
            trace: &[("netcdf.hyperslab_requests", 1)],
            ..row(HyperslabRequest)
        },
        Row {
            metrics: &[("aql_netcdf_faults_total", 1), ("aql_netcdf_retries_total", 1)],
            trace: &[("netcdf.faults", 1), ("netcdf.retries", 1)],
            ..row(NetcdfFault(true))
        },
        Row {
            metrics: &[("aql_netcdf_faults_total", 1)],
            trace: &[("netcdf.faults", 1)],
            ..row(NetcdfFault(false))
        },
        Row {
            journal: &[(Tag::Retry, true, 3)],
            ledger: counts(|c| c.retries = 1),
            ..row(SlabRetry(3))
        },
    ]
}

fn metrics_now() -> BTreeMap<String, u64> {
    aql_metrics::snapshot().into_iter().collect()
}

/// Series that moved between two snapshots, with their deltas.
fn moved(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> Vec<(String, u64)> {
    after
        .iter()
        .filter_map(|(k, v)| {
            let d = v - before.get(k).copied().unwrap_or(0);
            (d > 0).then(|| (k.clone(), d))
        })
        .collect()
}

/// Journal records `(tag, labeled?, a)` past the first `skip`, minus
/// the test's own flush markers.
fn journal_since(skip: usize, id: u16) -> (usize, Vec<(Tag, bool, u64)>) {
    let events = aql_journal::snapshot().events;
    let new = events[skip..]
        .iter()
        .filter(|e| e.tag != Tag::Incident)
        .map(|e| (e.tag, e.label == id, e.a))
        .collect();
    (events.len(), new)
}

#[test]
fn every_event_moves_exactly_its_sinks() {
    // A fresh thread: its stats aggregate, trace collector, journal
    // ring and ledger start empty.
    std::thread::spawn(|| {
        let label = Label::new(SRC);
        let rows = table();
        // Every variant has a row: the exhaustive match numbers them,
        // so a new variant fails to compile here until it gets one.
        let variant = |e: Event| match e {
            Event::CacheHit => 0,
            Event::CacheLoad(_) => 1,
            Event::CacheWarm(_) => 2,
            Event::CacheLoadError => 3,
            Event::CacheEvict => 4,
            Event::GovernorShed => 5,
            Event::GovernorDeny(_) => 6,
            Event::Retry(_) => 7,
            Event::ChecksumMismatch => 8,
            Event::BreakerTrip => 9,
            Event::BreakerProbe => 10,
            Event::BreakerFastFail => 11,
            Event::BreakerClose => 12,
            Event::PrefetchIssued(_) => 13,
            Event::PrefetchHit => 14,
            Event::PrefetchWasted => 15,
            Event::FaultInjected(_) => 16,
            Event::HyperslabRequest => 17,
            Event::NetcdfFault(_) => 18,
            Event::SlabRetry(_) => 19,
        };
        let covered: std::collections::BTreeSet<_> =
            rows.iter().map(|r| variant(r.event)).collect();
        assert_eq!(covered, (0..20).collect(), "every variant needs a row");
        let (mut seen, _) = journal_since(0, 0);
        for r in rows {
            let what = format!("{:?}", r.event);
            let stats0 = aql_store::stats::global();
            let metrics0 = metrics_now();
            aql_trace::enable();
            attr::begin();

            emit(&label, r.event);

            let ledger = attr::finish();
            let trace = aql_trace::disable();
            let metrics1 = metrics_now();
            // Flush a coalesced cache hit with a marker record.
            aql_journal::record(Tag::Incident, 0, 0, 0);
            let (n, journal) = journal_since(seen, label.id());
            seen = n;

            assert_eq!(aql_store::stats::global().delta_since(&stats0), r.stats, "{what}: stats");
            let want: Vec<(String, u64)> =
                r.metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect();
            assert_eq!(moved(&metrics0, &metrics1), want, "{what}: metrics");
            let want: Vec<(String, u64)> =
                r.trace.iter().map(|(k, v)| (k.to_string(), *v)).collect();
            assert!(trace.spans.is_empty());
            assert_eq!(trace.counters, want, "{what}: trace");
            assert_eq!(journal, r.journal, "{what}: journal");
            let rows: Vec<_> = ledger.sources.iter().map(|(l, c)| (l.as_str(), *c)).collect();
            let want_rows =
                if r.ledger == SourceCounts::default() { vec![] } else { vec![(SRC, r.ledger)] };
            assert_eq!(rows, want_rows, "{what}: ledger");
            assert_eq!((ledger.governor_sheds, ledger.governor_denials), r.governor, "{what}");
        }

        // With the metrics, journal and trace switches off and no
        // ledger open, only the always-on stats aggregate still moves.
        aql_metrics::set_enabled(false);
        aql_journal::set_enabled(false);
        let stats0 = aql_store::stats::global();
        let metrics0 = metrics_now();
        let journal0 = aql_journal::snapshot().events.len();
        let mut want = CacheStats::default();
        for r in table() {
            emit(&label, r.event);
            want.fold(r.event);
        }
        aql_metrics::set_enabled(true);
        aql_journal::set_enabled(true);
        assert_eq!(aql_store::stats::global().delta_since(&stats0), want);
        assert_eq!(moved(&metrics0, &metrics_now()), vec![], "metrics switched off");
        assert_eq!(aql_journal::snapshot().events.len(), journal0, "journal switched off");
    })
    .join()
    .expect("sink agreement");
}
