//! Sink agreement for the statement lifecycle: every [`Event`], emitted
//! once, moves every sink that records it by exactly the documented
//! amount — the `aql_session_*` metric series, the flight recorder
//! `(tag, label, a)`, the attribution ledger, the incident dump and the
//! slow-query log line — and moves nothing else.
//!
//! The steps below are the contract DESIGN.md §11 prints. The test is
//! the only one in its binary, so process-wide metric deltas are exact.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use aql_core::eval::EvalStats;
use aql_journal::attr::{self, Ledger};
use aql_journal::incident::{Incident, IncidentKind};
use aql_journal::Tag;
use aql_lang::session::lifecycle::{
    close_ledger, emit, Closed, Event, Lifecycle, OutcomeClass, Phase, SlowLog, StmtId, StmtKind,
};
use aql_lang::session::{IncidentConfig, SlowLogConfig};
use aql_lang::LangError;

/// The slow-query log's sink; the test keeps a second handle.
#[derive(Clone, Default)]
struct Lines(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Lines {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("sink").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Lines {
    /// Lines written since the last call.
    fn take(&self) -> Vec<String> {
        let bytes = std::mem::take(&mut *self.0.lock().expect("sink"));
        String::from_utf8(bytes).expect("UTF-8").lines().map(str::to_string).collect()
    }
}

/// Metric series, minus the quantile estimates (not deltas).
fn metrics_now() -> BTreeMap<String, u64> {
    aql_metrics::snapshot()
        .into_iter()
        .filter(|(k, _)| !(k.ends_with("_p50") || k.ends_with("_p95") || k.ends_with("_p99")))
        .collect()
}

/// What one step must do to the metrics, journal and slow-log sinks.
struct Want {
    metrics: &'static [(&'static str, u64)],
    journal: &'static [(Tag, &'static str, u64)],
    slow_log: &'static [&'static str],
}

const NOTHING: Want = Want { metrics: &[], journal: &[], slow_log: &[] };

/// Run `f` and compare every sink's delta with `want`.
fn step(what: &str, lines: &Lines, want: Want, f: impl FnOnce()) {
    let metrics0 = metrics_now();
    let seen = aql_journal::snapshot().events.len();
    f();
    let metrics1 = metrics_now();
    let moved: Vec<(String, u64)> = metrics1
        .iter()
        .filter_map(|(k, v)| {
            let d = v - metrics0.get(k).copied().unwrap_or(0);
            (d > 0).then(|| (k.clone(), d))
        })
        .collect();
    let want_metrics: Vec<(String, u64)> =
        want.metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    assert_eq!(moved, want_metrics, "{what}: metrics");
    let journal: Vec<(Tag, String, u64)> = aql_journal::snapshot().events[seen..]
        .iter()
        .map(|e| (e.tag, e.label_str(), e.a))
        .collect();
    let want_journal: Vec<(Tag, String, u64)> =
        want.journal.iter().map(|(t, l, a)| (*t, l.to_string(), *a)).collect();
    assert_eq!(journal, want_journal, "{what}: journal");
    assert_eq!(lines.take(), want.slow_log, "{what}: slow log");
}

const QUERY_7: StmtId = StmtId { kind: StmtKind::Query, seq: 7, hash: 0xfeed };
const VAL_3: StmtId = StmtId { kind: StmtKind::Val, seq: 3, hash: 0 };

fn closed<'a>(
    life: &'a Lifecycle,
    error: Option<&'a LangError>,
    phases: &'a [(Phase, u64)],
    stats: &'a EvalStats,
    ledger: &'a Ledger,
) -> Closed<'a> {
    Closed {
        id: QUERY_7,
        outcome: if error.is_some() { OutcomeClass::Error } else { OutcomeClass::Ok },
        error,
        dur: Some(Duration::from_nanos(5000)),
        phases,
        stats,
        ledger,
        rule_fires: 4,
        metrics_base: None,
        life,
    }
}

#[test]
fn every_event_moves_exactly_its_sinks() {
    let dir = std::env::temp_dir().join(format!("aql-lifecycle-sinks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A fresh thread: its journal ring and ledger start empty.
    let incidents = dir.clone();
    std::thread::spawn(move || {
        let lines = Lines::default();
        let mut life = Lifecycle::default();
        // Unreachable threshold, every statement sampled: `End` writes
        // a line without emitting `Slow`.
        life.slow_log = Some(SlowLog::new(
            Box::new(lines.clone()),
            SlowLogConfig { threshold: Duration::from_secs(3600), sample_every: 1 },
        ));

        let begin = Event::Begin(QUERY_7, true);
        step(
            "Begin",
            &lines,
            Want { journal: &[(Tag::StmtBegin, "query", 7)], ..NOTHING },
            || emit(&begin),
        );
        assert!(attr::active(), "Begin opens the statement's ledger");
        step(
            "Phase",
            &lines,
            Want {
                metrics: &[
                    ("aql_session_phase_ns{phase=\"eval\"}_count", 1),
                    ("aql_session_phase_ns{phase=\"eval\"}_sum", 1000),
                ],
                ..NOTHING
            },
            || emit(&Event::Phase(Phase::Eval, 1000)),
        );
        emit(&Event::Phase(Phase::Optimize, 20));
        emit(&Event::Phase(Phase::Eval, 500));
        // The ledger sums each phase, in first-seen order.
        let (phases, ledger) = close_ledger();
        assert_eq!(phases, [(Phase::Eval, 1500), (Phase::Optimize, 20)]);
        assert_eq!(ledger.phases, [("eval".to_string(), 1500), ("optimize".to_string(), 20)]);
        assert!(!attr::active(), "closing ends the statement");
        // Outside a statement a phase reaches the metrics only.
        emit(&Event::Phase(Phase::Parse, 9));
        assert_eq!(close_ledger().0, []);

        let stats = EvalStats { steps: 3, ..EvalStats::default() };
        let ok = closed(&life, None, &phases, &stats, &ledger);
        step(
            "End",
            &lines,
            Want {
                metrics: &[
                    ("aql_session_statement_ns_count", 1),
                    ("aql_session_statement_ns_sum", 5000),
                    ("aql_session_statements_total{kind=\"query\"}", 1),
                ],
                journal: &[
                    (Tag::Phase, "eval", 1500),
                    (Tag::Phase, "optimize", 20),
                    (Tag::StmtEnd, "ok", 7),
                ],
                slow_log: &[concat!(
                    r#"{"schema_version":2,"seq":7,"stmt_hash":"000000000000feed","#,
                    r#""kind":"query","slow":false,"sampled":true,"dur_ns":5000,"#,
                    r#""phases":{"eval":1500,"optimize":20},"#,
                    r#""eval":{"steps":3,"subscripts":0,"materialized":0},"#,
                    r#""cache":{"hits":0,"misses":0,"evictions":0,"bytes_read":0,"#,
                    r#""prefetched_bytes":0,"load_errors":0},"#,
                    r#""rule_fires":4,"error":false,"incident":null}"#
                )],
            },
            || emit(&Event::End(&ok)),
        );
        step(
            "Slow",
            &lines,
            Want {
                metrics: &[("aql_session_slow_queries_total", 1)],
                journal: &[(Tag::SlowQuery, "val", 3)],
                ..NOTHING
            },
            || emit(&Event::Slow(VAL_3, 40)),
        );
        step(
            "Incident",
            &lines,
            Want { journal: &[(Tag::Incident, "breaker_trip", 3)], ..NOTHING },
            || emit(&Event::Incident(IncidentKind::BreakerTrip, 3)),
        );

        // A failed statement crossing the slow threshold, incidents on:
        // `End` dumps the incident, which emits `Incident`, and the slow
        // log emits `Slow` and links the dump.
        life.slow_log = Some(SlowLog::new(
            Box::new(lines.clone()),
            SlowLogConfig { threshold: Duration::ZERO, sample_every: 0 },
        ));
        life.incidents = Some(IncidentConfig::new(incidents));
        let err = LangError::session("boom");
        let failed = closed(&life, Some(&err), &phases, &stats, &ledger);
        let metrics0 = metrics_now();
        let seen = aql_journal::snapshot().events.len();
        emit(&Event::End(&failed));
        let moved: Vec<(String, u64)> = metrics_now()
            .into_iter()
            .filter(|(k, v)| *v > metrics0.get(k).copied().unwrap_or(0))
            .map(|(k, v)| (k.clone(), v - metrics0.get(&k).copied().unwrap_or(0)))
            .collect();
        assert_eq!(
            moved,
            [
                ("aql_session_errors_total".to_string(), 1),
                ("aql_session_slow_queries_total".to_string(), 1),
                ("aql_session_statement_ns_count".to_string(), 1),
                ("aql_session_statement_ns_sum".to_string(), 5000),
                ("aql_session_statements_total{kind=\"query\"}".to_string(), 1),
            ]
        );
        let journal: Vec<(Tag, String, u64)> = aql_journal::snapshot().events[seen..]
            .iter()
            .map(|e| (e.tag, e.label_str(), e.a))
            .collect();
        let want: Vec<(Tag, String, u64)> = [
            (Tag::Phase, "eval", 1500),
            (Tag::Phase, "optimize", 20),
            (Tag::StmtEnd, "error", 7),
            (Tag::Incident, "error", 7),
            (Tag::SlowQuery, "query", 7),
        ]
        .iter()
        .map(|(t, l, a)| (*t, l.to_string(), *a))
        .collect();
        assert_eq!(journal, want, "End, failed: journal");
        let path = life.last_incident().expect("an incident was dumped");
        let inc = Incident::load(&path).expect("incident file");
        assert_eq!(
            (inc.kind, inc.seq, inc.stmt_hash.as_str(), inc.stmt_kind.as_str(), inc.dur_ns),
            (IncidentKind::Error, 7, "000000000000feed", "query", 5000)
        );
        assert_eq!(inc.error.as_deref(), Some("session error: boom"));
        assert_eq!(inc.attribution.as_ref(), Some(&ledger));
        let line = lines.take();
        assert_eq!(line.len(), 1);
        let rec = aql_trace::json::Json::parse(&line[0]).expect("JSON line");
        assert_eq!(rec.get("error"), Some(&aql_trace::json::Json::Bool(true)));
        assert_eq!(
            rec.get("incident").and_then(aql_trace::json::Json::as_str),
            Some(path.display().to_string().as_str())
        );

        // With metrics and the journal switched off only the session's
        // own sinks still record.
        life.incidents = None;
        aql_metrics::set_enabled(false);
        aql_journal::set_enabled(false);
        let mut later = closed(&life, None, &phases, &stats, &ledger);
        later.id.seq = 8;
        let slow_line = Want {
            slow_log: &[concat!(
                r#"{"schema_version":2,"seq":8,"stmt_hash":"000000000000feed","#,
                r#""kind":"query","slow":true,"sampled":false,"dur_ns":5000,"#,
                r#""phases":{"eval":1500,"optimize":20},"#,
                r#""eval":{"steps":3,"subscripts":0,"materialized":0},"#,
                r#""cache":{"hits":0,"misses":0,"evictions":0,"bytes_read":0,"#,
                r#""prefetched_bytes":0,"load_errors":0},"#,
                r#""rule_fires":4,"error":false,"incident":null}"#
            )],
            ..NOTHING
        };
        step("switched off", &lines, slow_line, || {
            emit(&begin);
            emit(&Event::Phase(Phase::Eval, 1));
            close_ledger();
            emit(&Event::End(&later));
            emit(&Event::Slow(VAL_3, 40));
            emit(&Event::Incident(IncidentKind::Slow, 3));
        });
        aql_metrics::set_enabled(true);
        aql_journal::set_enabled(true);
    })
    .join()
    .expect("sink agreement");
    std::fs::remove_dir_all(&dir).ok();
}
