//! Per-query resource attribution.
//!
//! While a statement runs, the session opens a thread-local ledger
//! ([`begin`]); the store's event stream (`aql_store::event`) calls
//! [`note`] with each event's interned source label, charging
//! hits/misses/bytes/evictions/retries/breaker trips to the query
//! *and* the source that actually moved them. [`finish`] closes
//! the ledger and resolves labels to strings.
//!
//! The hot path is one `Cell<bool>` read when no ledger is open —
//! attribution costs nothing outside a session statement — and a
//! linear probe over a handful of sources when one is. Background
//! threads (the prefetcher's worker) never open a ledger, so their
//! loads are *not* charged to whichever statement happens to be
//! running; warm-pool handovers are charged at consumption time to the
//! owning binding's label as `prefetched_bytes`.

use std::cell::{Cell, RefCell};

use aql_trace::json::Json;

use crate::label_name;

/// Per-source tallies for one statement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceCounts {
    /// Cache hits served from memory.
    pub hits: u64,
    /// Chunks loaded (cache misses, including warm-pool handovers).
    pub chunks_loaded: u64,
    /// Bytes pulled from the source by this statement's own misses.
    pub bytes_read: u64,
    /// Bytes handed over from the prefetcher's warm pool.
    pub prefetched_bytes: u64,
    /// Chunks evicted from this source's cache during the statement.
    pub evictions: u64,
    /// Chunk loads that returned an error.
    pub load_errors: u64,
    /// Read retries spent on this source.
    pub retries: u64,
    /// Circuit-breaker trips on this source.
    pub trips: u64,
}

impl SourceCounts {
    /// Total bytes this source moved for the statement.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.prefetched_bytes
    }
}

/// A closed per-statement attribution ledger, labels resolved.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Per-source tallies, in first-touch order.
    pub sources: Vec<(String, SourceCounts)>,
    /// Per-phase wall time in nanoseconds, in pipeline order.
    pub phases: Vec<(String, u64)>,
    /// Governor charge high-water mark during the statement, bytes.
    pub governor_peak_bytes: u64,
    /// Governor sheds observed during the statement.
    pub governor_sheds: u64,
    /// Governor denials observed during the statement.
    pub governor_denials: u64,
}

impl Ledger {
    /// The source that moved the most bytes, if any moved at all.
    pub fn dominant_source(&self) -> Option<(&str, &SourceCounts)> {
        self.sources
            .iter()
            .filter(|(_, c)| c.total_bytes() > 0)
            .max_by_key(|(_, c)| c.total_bytes())
            .map(|(l, c)| (l.as_str(), c))
    }

    /// Sum of retries across sources.
    pub fn total_retries(&self) -> u64 {
        self.sources.iter().map(|(_, c)| c.retries).sum()
    }

    /// Sum of breaker trips across sources.
    pub fn total_trips(&self) -> u64 {
        self.sources.iter().map(|(_, c)| c.trips).sum()
    }

    /// The ledger as a JSON object (incident files, `QueryReport`).
    pub fn to_json_value(&self) -> Json {
        let sources = Json::Arr(
            self.sources
                .iter()
                .map(|(label, c)| {
                    let mut row = vec![
                        ("label".to_string(), Json::Str(label.clone())),
                        ("hits".to_string(), Json::Num(c.hits as f64)),
                        ("chunks_loaded".to_string(), Json::Num(c.chunks_loaded as f64)),
                        ("bytes_read".to_string(), Json::Num(c.bytes_read as f64)),
                        (
                            "prefetched_bytes".to_string(),
                            Json::Num(c.prefetched_bytes as f64),
                        ),
                        ("evictions".to_string(), Json::Num(c.evictions as f64)),
                        ("load_errors".to_string(), Json::Num(c.load_errors as f64)),
                        ("retries".to_string(), Json::Num(c.retries as f64)),
                    ];
                    // Written only when nonzero, so trip-free ledgers
                    // keep their layout; absent parses as 0.
                    if c.trips > 0 {
                        row.push(("trips".to_string(), Json::Num(c.trips as f64)));
                    }
                    Json::Obj(row)
                })
                .collect(),
        );
        let phases = Json::Arr(
            self.phases
                .iter()
                .map(|(name, ns)| {
                    Json::Obj(vec![
                        ("phase".to_string(), Json::Str(name.clone())),
                        ("wall_ns".to_string(), Json::Num(*ns as f64)),
                    ])
                })
                .collect(),
        );
        Json::Obj(vec![
            ("sources".to_string(), sources),
            ("phases".to_string(), phases),
            (
                "governor_peak_bytes".to_string(),
                Json::Num(self.governor_peak_bytes as f64),
            ),
            ("governor_sheds".to_string(), Json::Num(self.governor_sheds as f64)),
            (
                "governor_denials".to_string(),
                Json::Num(self.governor_denials as f64),
            ),
        ])
    }

    /// Rebuild a ledger from [`Ledger::to_json_value`] output.
    pub fn from_json_value(j: &Json) -> Result<Ledger, String> {
        let num = |o: &Json, k: &str| o.get(k).and_then(Json::as_u64).unwrap_or(0);
        let mut ledger = Ledger {
            governor_peak_bytes: num(j, "governor_peak_bytes"),
            governor_sheds: num(j, "governor_sheds"),
            governor_denials: num(j, "governor_denials"),
            ..Ledger::default()
        };
        for s in j.get("sources").and_then(Json::as_arr).unwrap_or(&[]) {
            let label = s
                .get("label")
                .and_then(Json::as_str)
                .ok_or("attribution source: missing label")?
                .to_string();
            ledger.sources.push((
                label,
                SourceCounts {
                    hits: num(s, "hits"),
                    chunks_loaded: num(s, "chunks_loaded"),
                    bytes_read: num(s, "bytes_read"),
                    prefetched_bytes: num(s, "prefetched_bytes"),
                    evictions: num(s, "evictions"),
                    load_errors: num(s, "load_errors"),
                    retries: num(s, "retries"),
                    trips: num(s, "trips"),
                },
            ));
        }
        for p in j.get("phases").and_then(Json::as_arr).unwrap_or(&[]) {
            let name = p
                .get("phase")
                .and_then(Json::as_str)
                .ok_or("attribution phase: missing name")?
                .to_string();
            ledger.phases.push((name, num(p, "wall_ns")));
        }
        Ok(ledger)
    }

    /// Human-readable rendering (the REPL `\attr;` body).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.sources.is_empty() {
            out.push_str("sources: (no chunk traffic)\n");
        } else {
            out.push_str("sources:\n");
            for (label, c) in &self.sources {
                let shown = if label.is_empty() { "(unlabeled)" } else { label };
                let trips = match c.trips {
                    0 => String::new(),
                    n => format!(", {n} breaker trips"),
                };
                out.push_str(&format!(
                    "  {shown}: {} hits, {} loaded ({} B read, {} B prefetched), \
                     {} evicted, {} load errors, {} retries{trips}\n",
                    c.hits,
                    c.chunks_loaded,
                    c.bytes_read,
                    c.prefetched_bytes,
                    c.evictions,
                    c.load_errors,
                    c.retries
                ));
            }
        }
        if !self.phases.is_empty() {
            out.push_str("phases:\n");
            for (name, ns) in &self.phases {
                out.push_str(&format!("  {name}: {:.3} ms\n", *ns as f64 / 1e6));
            }
        }
        out.push_str(&format!(
            "governor: peak {} B in use, {} sheds, {} denials\n",
            self.governor_peak_bytes, self.governor_sheds, self.governor_denials
        ));
        out
    }
}

/// The open ledger's per-source rows, keyed by interned label id.
#[derive(Default)]
struct OpenLedger {
    sources: Vec<(u16, SourceCounts)>,
    sheds: u64,
    denials: u64,
}

thread_local! {
    /// Fast flag: is a ledger open on this thread?
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static OPEN: RefCell<OpenLedger> = RefCell::new(OpenLedger::default());
}

/// Is a ledger open on this thread? One `Cell` read.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Open a fresh ledger on this thread, discarding any previous one.
pub fn begin() {
    OPEN.with(|o| *o.borrow_mut() = OpenLedger::default());
    ACTIVE.with(|a| a.set(true));
}

/// Charge the open ledger's row for `label` (no-op when closed).
#[inline]
pub fn note(label: u16, f: impl FnOnce(&mut SourceCounts)) {
    if !active() {
        return;
    }
    OPEN.with(|o| {
        let mut o = o.borrow_mut();
        if let Some((_, c)) = o.sources.iter_mut().find(|(l, _)| *l == label) {
            f(c);
            return;
        }
        let mut c = SourceCounts::default();
        f(&mut c);
        o.sources.push((label, c));
    });
}

/// Count a governor shed against the open ledger (no-op when closed).
#[inline]
pub fn note_shed() {
    if !active() {
        return;
    }
    OPEN.with(|o| o.borrow_mut().sheds += 1);
}

/// Count a governor denial against the open ledger (no-op when closed).
#[inline]
pub fn note_denial() {
    if !active() {
        return;
    }
    OPEN.with(|o| o.borrow_mut().denials += 1);
}

/// Close this thread's ledger and return it with labels resolved. The
/// caller (the session) fills in phases and the governor high-water
/// mark, which it alone can see.
pub fn finish() -> Ledger {
    ACTIVE.with(|a| a.set(false));
    OPEN.with(|o| {
        let open = std::mem::take(&mut *o.borrow_mut());
        Ledger {
            sources: open
                .sources
                .into_iter()
                .map(|(id, c)| (label_name(id), c))
                .collect(),
            phases: Vec::new(),
            governor_peak_bytes: 0,
            governor_sheds: open.sheds,
            governor_denials: open.denials,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern;

    #[test]
    fn notes_are_dropped_when_no_ledger_is_open() {
        let l = intern("t_attr:closed");
        assert!(!active());
        note(l, |c| c.bytes_read += 100);
        begin();
        let ledger = finish();
        assert!(ledger.sources.is_empty(), "closed-ledger notes vanish");
    }

    #[test]
    fn ledger_accumulates_per_source() {
        let a = intern("t_attr:a");
        let b = intern("t_attr:b");
        begin();
        note(a, |c| {
            c.chunks_loaded += 1;
            c.bytes_read += 4096;
        });
        note(b, |c| c.hits += 3);
        note(a, |c| c.retries += 2);
        note_shed();
        note_denial();
        let ledger = finish();
        assert_eq!(ledger.sources.len(), 2);
        assert_eq!(ledger.sources[0].0, "t_attr:a");
        assert_eq!(ledger.sources[0].1.bytes_read, 4096);
        assert_eq!(ledger.sources[0].1.retries, 2);
        assert_eq!(ledger.sources[1].1.hits, 3);
        assert_eq!(ledger.governor_sheds, 1);
        assert_eq!(ledger.governor_denials, 1);
        assert_eq!(ledger.total_retries(), 2);
        assert_eq!(ledger.dominant_source().map(|(l, _)| l), Some("t_attr:a"));
        assert!(!active(), "finish closes the ledger");
    }

    #[test]
    fn json_round_trips() {
        let mut ledger = Ledger::default();
        ledger.sources.push((
            "netcdf:tas".to_string(),
            SourceCounts {
                hits: 10,
                chunks_loaded: 4,
                bytes_read: 1 << 16,
                prefetched_bytes: 1 << 14,
                evictions: 1,
                load_errors: 0,
                retries: 2,
                trips: 1,
            },
        ));
        ledger.phases.push(("eval".to_string(), 1_500_000));
        ledger.governor_peak_bytes = 1 << 20;
        let back = Ledger::from_json_value(&ledger.to_json_value()).expect("parse");
        assert_eq!(back, ledger);
    }

    #[test]
    fn trips_round_trip_and_default_to_zero() {
        let mut ledger = Ledger::default();
        let tripped = SourceCounts { retries: 1, trips: 2, ..Default::default() };
        ledger.sources.push(("netcdf:a".to_string(), tripped));
        ledger.sources.push(("netcdf:b".to_string(), SourceCounts::default()));
        let text = ledger.to_json_value().write();
        assert_eq!(text.matches("\"trips\"").count(), 1, "only nonzero trips are written");
        let back = Ledger::from_json_value(&Json::parse(&text).expect("json")).expect("parse");
        assert_eq!(back, ledger);
        assert_eq!(back.total_trips(), 2);
        // A ledger written before trips were counted has no key at all.
        let old = r#"{"sources":[{"label":"mem","hits":1,"chunks_loaded":0,"bytes_read":0,
            "prefetched_bytes":0,"evictions":0,"load_errors":0,"retries":3}],"phases":[]}"#;
        let old = Ledger::from_json_value(&Json::parse(old).expect("json")).expect("parse");
        assert_eq!(old.sources[0].1.trips, 0);
        assert_eq!(old.sources[0].1.retries, 3);
    }

    #[test]
    fn render_shows_trips_only_when_a_breaker_tripped() {
        let mut ledger = Ledger::default();
        ledger.sources.push(("mem".to_string(), SourceCounts { retries: 2, ..Default::default() }));
        let quiet = ledger.render();
        assert!(
            quiet.contains("0 load errors, 2 retries\n"),
            "trip-free rows keep their text: {quiet}"
        );
        ledger.sources[0].1.trips = 1;
        assert!(ledger.render().contains("2 retries, 1 breaker trips\n"));
    }

    #[test]
    fn render_mentions_every_source_and_phase() {
        let mut ledger = Ledger::default();
        ledger
            .sources
            .push(("mem:x".to_string(), SourceCounts { hits: 1, ..Default::default() }));
        ledger.phases.push(("eval".to_string(), 2_000_000));
        let text = ledger.render();
        assert!(text.contains("mem:x"));
        assert!(text.contains("eval: 2.000 ms"));
        assert!(text.contains("governor: peak 0 B"));
    }
}
