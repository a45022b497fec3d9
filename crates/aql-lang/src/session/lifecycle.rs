//! The statement lifecycle as one event stream.
//!
//! Every session-level occurrence of a statement is one [`Event`],
//! emitted once with [`emit`]:
//!
//! ```text
//! Begin → Phase × n → End → (Incident) → (Slow)
//! ```
//!
//! The five sinks are folds over that stream, one exhaustive `match`
//! each — the shape of `aql_store::event`:
//!
//! | sink | records | switch |
//! |---|---|---|
//! | `aql_session_*` metrics | phase and statement latency, statements by kind, errors, slow statements | `aql_metrics::set_enabled` |
//! | flight recorder | `StmtBegin`, `Phase`, `StmtEnd`, `Incident`, `SlowQuery` | `aql_journal::set_enabled` |
//! | attribution ledger | the open statement's phases and governor peak | open only inside a statement |
//! | incident dump | one file per statement that ends badly | `Session::enable_incidents` |
//! | slow-query log | one JSON line per slow or sampled statement | `Session::enable_slow_log` |
//!
//! Labels come from closed sets ([`Phase`], [`StmtKind`],
//! [`OutcomeClass`]): the metrics sink keeps one cached handle per
//! label value, registered on its first observation, and the journal
//! sink one pre-interned id, so a statement does no registry or intern
//! lookup. DESIGN.md §11 prints the event-by-sink table.

use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use aql_core::error::EvalError;
use aql_core::eval::EvalStats;
use aql_journal::attr::{self, Ledger};
use aql_journal::incident::{Incident, IncidentKind};
use aql_journal::Tag;
use aql_metrics::{Counter, Histogram, LazyCounter, LazyHistogram};
use aql_trace::json::Json;

use super::report::cache_to_json;
use super::Outcome;
use crate::ast::Stmt;
use crate::errors::LangError;

/// A closed label set: a fieldless enum with its label strings.
macro_rules! label_set {
    ($(#[$doc:meta])* $set:ident { $($(#[$vdoc:meta])* $var:ident = $label:literal,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $set {
            $($(#[$vdoc])* $var,)*
        }

        impl $set {
            /// Every value, in declaration order.
            pub const ALL: [$set; [$($label),*].len()] = [$($set::$var),*];

            /// The label string (metric label value, journal label).
            pub fn name(self) -> &'static str {
                match self {
                    $($set::$var => $label,)*
                }
            }

            /// The label's flight-recorder id, interned once per set.
            fn id(self) -> u16 {
                static IDS: OnceLock<[u16; $set::ALL.len()]> = OnceLock::new();
                IDS.get_or_init(|| $set::ALL.map(|v| aql_journal::intern(v.name())))[self as usize]
            }
        }
    };
}

label_set! {
    /// A pipeline phase (§4, Fig. 3).
    Phase {
        /// Tokenizing the program.
        Lex = "lex",
        /// Parsing it (lexing included).
        Parse = "parse",
        /// The Fig. 2 translation into the core calculus.
        Desugar = "desugar",
        /// Name resolution and macro substitution.
        Resolve = "resolve",
        /// Type inference.
        Typecheck = "typecheck",
        /// The §5 optimizer.
        Optimize = "optimize",
        /// Evaluation.
        Eval = "eval",
        /// A reader call.
        ReadVal = "readval",
        /// A writer call.
        WriteVal = "writeval",
    }
}

label_set! {
    /// The kind of a statement.
    StmtKind {
        /// `val` declaration.
        Val = "val",
        /// `macro` declaration.
        Macro = "macro",
        /// A bare query.
        Query = "query",
        /// `readval` command.
        ReadVal = "readval",
        /// `writeval` command.
        WriteVal = "writeval",
    }
}

label_set! {
    /// How a statement ended.
    OutcomeClass {
        /// It succeeded.
        Ok = "ok",
        /// A governor or evaluation budget ran out.
        ResourceExhausted = "resource-exhausted",
        /// Its deadline expired.
        Deadline = "deadline",
        /// It was cancelled.
        Cancelled = "cancelled",
        /// A storage error.
        Storage = "storage",
        /// The rewrite-soundness gate rejected an optimization.
        Unsound = "unsound",
        /// Any other error.
        Error = "error",
    }
}

impl StmtKind {
    /// The kind of `stmt`.
    pub fn of(stmt: &Stmt) -> StmtKind {
        match stmt {
            Stmt::Val(..) => StmtKind::Val,
            Stmt::MacroDef(..) => StmtKind::Macro,
            Stmt::Query(..) => StmtKind::Query,
            Stmt::ReadVal { .. } => StmtKind::ReadVal,
            Stmt::WriteVal { .. } => StmtKind::WriteVal,
        }
    }
}

impl OutcomeClass {
    /// The class of a statement's result. Resource exhaustion is told
    /// apart from plain errors: incident dumps and `\doctor` key on it.
    pub fn of(out: &Result<Outcome, LangError>) -> OutcomeClass {
        let Err(e) = out else { return OutcomeClass::Ok };
        let text = e.to_string().to_ascii_lowercase();
        match e {
            LangError::Eval(
                EvalError::ResourceLimit { .. }
                | EvalError::ResourceExhausted { .. }
                | EvalError::StepLimit,
            ) => OutcomeClass::ResourceExhausted,
            _ if text.contains("budget") || text.contains("exhaust") => {
                OutcomeClass::ResourceExhausted
            }
            LangError::Eval(EvalError::Deadline) => OutcomeClass::Deadline,
            LangError::Eval(EvalError::Cancelled) => OutcomeClass::Cancelled,
            LangError::Eval(EvalError::Storage { .. }) => OutcomeClass::Storage,
            LangError::Unsound { .. } => OutcomeClass::Unsound,
            _ => OutcomeClass::Error,
        }
    }
}

/// Which statement an event is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmtId {
    /// Statement kind.
    pub kind: StmtKind,
    /// Sequence number within the session.
    pub seq: u64,
    /// FNV-1a 64 fingerprint of the statement's debug form (0 when
    /// nothing records it).
    pub hash: u64,
}

/// One statement-lifecycle occurrence.
#[derive(Clone, Copy)]
pub enum Event<'a> {
    /// A statement starts; `.1`: its clock runs, so its phases are
    /// timed too.
    Begin(StmtId, bool),
    /// A pipeline phase took `.1` nanoseconds.
    Phase(Phase, u64),
    /// A statement ended; its ledger is closed.
    End(&'a Closed<'a>),
    /// A statement took `.1` ns, reaching the slow-query log's
    /// threshold.
    Slow(StmtId, u64),
    /// An incident file of kind `.0` was written for statement `.1`.
    Incident(IncidentKind, u64),
}

/// A finished statement: what [`Event::End`] carries.
pub struct Closed<'a> {
    /// Which statement.
    pub id: StmtId,
    /// How it ended.
    pub outcome: OutcomeClass,
    /// The error, when it failed.
    pub error: Option<&'a LangError>,
    /// Wall time, when the statement clock ran.
    pub dur: Option<Duration>,
    /// Per-phase wall time, summed per phase in first-seen order.
    pub phases: &'a [(Phase, u64)],
    /// Evaluation counters; `cache` is the fold of `ledger`.
    pub stats: &'a EvalStats,
    /// The statement's closed attribution ledger.
    pub ledger: &'a Ledger,
    /// Optimizer rule fires on this thread during the statement.
    pub rule_fires: u64,
    /// Metrics snapshot taken at the start (incident pipeline on).
    pub metrics_base: Option<&'a [(String, u64)]>,
    /// The session's lifecycle: its slow log and incident pipeline.
    pub life: &'a Lifecycle,
}

/// Emit `event` once, into every sink.
pub fn emit(event: &Event<'_>) {
    ledger(event);
    metrics(event);
    journal(event);
    incident(event);
    slow_log(event);
}

// ---- the session's side: statement begin and end ---------------------

/// Configuration of the structured slow-query log.
#[derive(Debug, Clone)]
pub struct SlowLogConfig {
    /// Statements at or above this wall time are always logged.
    pub threshold: Duration,
    /// Additionally log every `N`-th statement below the threshold
    /// (`0` disables sampling). Sampled records carry
    /// `"sampled": true`, so latency baselines can be reconstructed
    /// without logging everything.
    pub sample_every: u64,
}

impl Default for SlowLogConfig {
    fn default() -> Self {
        SlowLogConfig { threshold: Duration::from_millis(100), sample_every: 0 }
    }
}

/// The slow-query log: a JSON-lines sink plus its policy.
pub struct SlowLog {
    sink: RefCell<Box<dyn std::io::Write>>,
    config: SlowLogConfig,
}

impl SlowLog {
    /// Log to `sink` under `config`.
    pub fn new(sink: Box<dyn std::io::Write>, config: SlowLogConfig) -> SlowLog {
        SlowLog { sink: RefCell::new(sink), config }
    }
}

/// Configuration of the incident dump pipeline: when a statement ends
/// badly (error, resource exhaustion, a breaker trip during it, or a
/// slow-query threshold crossing), the session snapshots the flight
/// recorder's last events, the statement's attribution ledger, and the
/// metrics that moved, into one self-contained JSON file under `dir`
/// (see `aql_journal::incident` and DESIGN.md §14).
#[derive(Debug, Clone)]
pub struct IncidentConfig {
    /// Directory incident files are written to (created on demand).
    pub dir: std::path::PathBuf,
    /// How many flight-recorder events to keep in the dump.
    pub last_events: usize,
    /// Statements at or above this wall time dump a `slow` incident.
    /// `None` falls back to the slow-query log's threshold when that
    /// log is enabled, otherwise slow statements never dump.
    pub slow_threshold: Option<Duration>,
}

impl IncidentConfig {
    /// A config with the default window (256 events) and no standalone
    /// slow threshold.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> IncidentConfig {
        IncidentConfig { dir: dir.into(), last_events: 256, slow_threshold: None }
    }
}

/// A session's statement lifecycle: its sequence counter, its two own
/// sinks, and the per-statement accounts of the most recent run.
#[derive(Default)]
pub struct Lifecycle {
    /// The slow-query log, if enabled.
    pub slow_log: Option<SlowLog>,
    /// The incident dump pipeline, if enabled.
    pub incidents: Option<IncidentConfig>,
    seq: Cell<u64>,
    /// The most recent incident dump, with its statement's `seq`.
    last_incident: RefCell<Option<(u64, PathBuf)>>,
    /// Evaluation counters of the statement now running: every
    /// `eval_core` within it merges its stats here.
    pub(crate) cur_stats: Cell<EvalStats>,
    /// Per-statement statistics of the most recent `Session::run`.
    pub(crate) stats: RefCell<Vec<EvalStats>>,
    /// Per-statement attribution ledgers, parallel to `stats`.
    pub(crate) ledgers: RefCell<Vec<Ledger>>,
}

/// A statement between [`Lifecycle::begin`] and [`Lifecycle::end`].
pub(crate) struct Open {
    id: StmtId,
    t0: Option<Instant>,
    fires: u64,
    metrics_base: Option<Vec<(String, u64)>>,
}

impl Lifecycle {
    /// Path of the most recent incident dump, if any.
    pub fn last_incident(&self) -> Option<PathBuf> {
        self.last_incident.borrow().as_ref().map(|(_, p)| p.clone())
    }

    /// Start a statement: emits [`Event::Begin`].
    pub(crate) fn begin(&self, stmt: &Stmt) -> Open {
        let kind = StmtKind::of(stmt);
        aql_trace::note("kind", || kind.name().to_string());
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        self.cur_stats.take();
        let journal = aql_journal::enabled();
        let own = self.slow_log.is_some() || self.incidents.is_some();
        // Wall time is measured only when someone consumes it.
        let t0 = (aql_metrics::enabled() || journal || own).then(Instant::now);
        let hash = if journal || own { stmt_hash(stmt) } else { 0 };
        let id = StmtId { kind, seq, hash };
        // The snapshot seeds the incident's metric delta table.
        let metrics_base = self.incidents.as_ref().map(|_| aql_metrics::snapshot());
        emit(&Event::Begin(id, t0.is_some()));
        Open { id, t0, fires: aql_opt::thread_fires(), metrics_base }
    }

    /// Finish a statement: close its ledger, fold the ledger into its
    /// `EvalStats.cache`, emit [`Event::End`] (which emits `Incident`
    /// and `Slow` when they apply), and keep both accounts.
    pub(crate) fn end(&self, open: Open, out: &Result<Outcome, LangError>) {
        let (phases, ledger) = close_ledger();
        let stats = EvalStats {
            cache: aql_store::CacheStats::from_ledger(&ledger),
            ..self.cur_stats.take()
        };
        emit(&Event::End(&Closed {
            id: open.id,
            outcome: OutcomeClass::of(out),
            error: out.as_ref().err(),
            dur: open.t0.map(|t| t.elapsed()),
            phases: &phases,
            stats: &stats,
            ledger: &ledger,
            rule_fires: aql_opt::thread_fires() - open.fires,
            metrics_base: open.metrics_base.as_deref(),
            life: self,
        }));
        self.stats.borrow_mut().push(stats);
        self.ledgers.borrow_mut().push(ledger);
    }
}

/// FNV-1a 64 over the statement's debug form: a stable fingerprint
/// for grouping records of the same statement shape without logging
/// query text verbatim.
fn stmt_hash(stmt: &Stmt) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{stmt:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Times one pipeline phase under its trace span, emitting
/// [`Event::Phase`] on drop. Inert — a flag read and a thread-local
/// check — unless metrics are on or a timed statement is open on this
/// thread.
pub(crate) struct PhaseTimer {
    started: Option<(Phase, Instant)>,
    _span: aql_trace::SpanGuard,
}

/// Open phase `p`'s trace span and start its timer.
pub(crate) fn phase(p: Phase) -> PhaseTimer {
    let _span = aql_trace::span(p.name());
    let timed = aql_metrics::enabled() || PHASES.with(|acc| acc.borrow().is_some());
    PhaseTimer { started: timed.then(|| (p, Instant::now())), _span }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if let Some((p, t0)) = self.started.take() {
            emit(&Event::Phase(p, t0.elapsed().as_nanos() as u64));
        }
    }
}

// ---- sinks -----------------------------------------------------------

thread_local! {
    /// Per-phase wall time of the timed statement open on this thread
    /// (`None` outside one).
    static PHASES: RefCell<Option<Vec<(Phase, u64)>>> = const { RefCell::new(None) };
}

/// Sink: the open statement's attribution ledger (this thread only).
fn ledger(event: &Event<'_>) {
    match *event {
        Event::Begin(_, timed) => {
            attr::begin();
            aql_store::governor::reset_peak();
            PHASES.with(|acc| *acc.borrow_mut() = timed.then(Vec::new));
        }
        // Summed, not overwritten: `writeval` runs the pipeline once
        // per operand, so a phase can occur twice.
        Event::Phase(p, ns) => PHASES.with(|acc| {
            if let Some(acc) = acc.borrow_mut().as_mut() {
                match acc.iter_mut().find(|(q, _)| *q == p) {
                    Some((_, total)) => *total += ns,
                    None => acc.push((p, ns)),
                }
            }
        }),
        // Closed by `close_ledger` before `End` is emitted.
        Event::End(_) | Event::Slow(..) | Event::Incident(..) => {}
    }
}

/// Close this thread's statement ledger and fill in what only the
/// session sees: the phase times (returned too, by [`Phase`]) and the
/// governor high-water mark. The session calls it just before
/// emitting [`Event::End`].
pub fn close_ledger() -> (Vec<(Phase, u64)>, Ledger) {
    let phases = PHASES.with(|acc| acc.borrow_mut().take()).unwrap_or_default();
    let mut ledger = attr::finish();
    ledger.phases = phases.iter().map(|(p, ns)| (p.name().to_string(), *ns)).collect();
    ledger.governor_peak_bytes = aql_store::governor::peak_bytes();
    (phases, ledger)
}

static M_STATEMENT_NS: LazyHistogram = LazyHistogram::new(
    "aql_session_statement_ns",
    "End-to-end statement latency in nanoseconds (log2 buckets).",
);
static M_ERRORS: LazyCounter = LazyCounter::new(
    "aql_session_errors_total",
    "Statements that failed with any session error.",
);
static M_UNSOUND: LazyCounter = LazyCounter::new(
    "aql_session_unsound_total",
    "Statements rejected by the rewrite-soundness gate.",
);
static M_SLOW: LazyCounter = LazyCounter::new(
    "aql_session_slow_queries_total",
    "Statements whose wall time exceeded the slow-query threshold.",
);
/// `aql_session_phase_ns{phase}`, one handle per [`Phase`].
static M_PHASE_NS: [OnceLock<&Histogram>; Phase::ALL.len()] = [const { OnceLock::new() }; _];
/// `aql_session_statements_total{kind}`, one handle per [`StmtKind`].
static M_STATEMENTS: [OnceLock<&Counter>; StmtKind::ALL.len()] = [const { OnceLock::new() }; _];

/// Sink: the `aql_session_*` metric families.
fn metrics(event: &Event<'_>) {
    if !aql_metrics::enabled() {
        return;
    }
    match *event {
        Event::Phase(p, ns) => M_PHASE_NS[p as usize]
            .get_or_init(|| {
                aql_metrics::histogram_with(
                    "aql_session_phase_ns",
                    &[("phase", p.name())],
                    "Pipeline phase latency in nanoseconds, by phase (log2 buckets).",
                )
            })
            .observe(ns),
        Event::End(c) => {
            M_STATEMENTS[c.id.kind as usize]
                .get_or_init(|| {
                    aql_metrics::counter_with(
                        "aql_session_statements_total",
                        &[("kind", c.id.kind.name())],
                        "Statements executed, by statement kind.",
                    )
                })
                .inc();
            if c.outcome == OutcomeClass::Unsound {
                M_UNSOUND.inc();
            }
            if c.outcome != OutcomeClass::Ok {
                M_ERRORS.inc();
            }
            if let Some(d) = c.dur {
                M_STATEMENT_NS.observe(d.as_nanos() as u64);
            }
        }
        Event::Slow(..) => M_SLOW.inc(),
        // Counted at `End`.
        Event::Begin(..) => {}
        // The file is the record.
        Event::Incident(..) => {}
    }
}

/// Sink: the flight-recorder ring.
fn journal(event: &Event<'_>) {
    if !aql_journal::enabled() {
        return;
    }
    match *event {
        Event::Begin(id, _) => aql_journal::record(Tag::StmtBegin, id.kind.id(), id.seq, id.hash),
        // One record per phase, summed, written with `End`.
        Event::Phase(..) => {}
        Event::End(c) => {
            for &(p, ns) in c.phases {
                aql_journal::record(Tag::Phase, p.id(), ns, 0);
            }
            let dur_ns = c.dur.map_or(0, |d| d.as_nanos() as u64);
            aql_journal::record(Tag::StmtEnd, c.outcome.id(), c.id.seq, dur_ns)
        }
        Event::Slow(id, dur_ns) => aql_journal::record(Tag::SlowQuery, id.kind.id(), id.seq, dur_ns),
        // Rare (a file was just written): interned on the spot.
        Event::Incident(kind, seq) => {
            aql_journal::record(Tag::Incident, aql_journal::intern(kind.name()), seq, 0)
        }
    }
}

/// Sink: the incident dump. Errors (resource exhaustion told apart),
/// breaker trips charged to the statement's ledger, and slow-threshold
/// crossings each write one file; dump failures are swallowed —
/// incidents are telemetry, never a reason to fail a query.
fn incident(event: &Event<'_>) {
    let c = match *event {
        Event::End(c) => c,
        Event::Begin(..) | Event::Phase(..) | Event::Slow(..) | Event::Incident(..) => return,
    };
    let Some(cfg) = &c.life.incidents else { return };
    let slow_threshold =
        cfg.slow_threshold.or_else(|| c.life.slow_log.as_ref().map(|l| l.config.threshold));
    let slow = matches!((c.dur, slow_threshold), (Some(d), Some(t)) if d >= t);
    let kind = match c.outcome {
        OutcomeClass::Ok if c.ledger.total_trips() > 0 => IncidentKind::BreakerTrip,
        OutcomeClass::Ok if slow => IncidentKind::Slow,
        OutcomeClass::Ok => return,
        OutcomeClass::ResourceExhausted => IncidentKind::ResourceExhausted,
        _ => IncidentKind::Error,
    };
    let base = c.metrics_base.unwrap_or_default();
    let metrics_delta = aql_metrics::snapshot()
        .into_iter()
        .filter_map(|(k, v)| {
            let before = base.iter().find(|(bk, _)| *bk == k).map_or(0, |(_, bv)| *bv);
            (v > before).then(|| (k, v - before))
        })
        .collect();
    let dump = Incident {
        kind,
        seq: c.id.seq,
        stmt_hash: format!("{:016x}", c.id.hash),
        stmt_kind: c.id.kind.name().to_string(),
        dur_ns: c.dur.map_or(0, |d| d.as_nanos() as u64),
        error: c.error.map(|e| e.to_string()),
        events: aql_journal::snapshot().tail(cfg.last_events),
        attribution: Some(c.ledger.clone()),
        metrics_delta,
    };
    let Ok(path) = dump.write_to(&cfg.dir) else { return };
    emit(&Event::Incident(kind, c.id.seq));
    *c.life.last_incident.borrow_mut() = Some((c.id.seq, path));
}

/// Sink: the slow-query log. Always when the statement reaches the
/// threshold, plus every `sample_every`-th statement as a baseline
/// sample; one JSON object per line, sink errors swallowed.
fn slow_log(event: &Event<'_>) {
    let c = match *event {
        Event::End(c) => c,
        Event::Begin(..) | Event::Phase(..) | Event::Slow(..) | Event::Incident(..) => return,
    };
    let (Some(log), Some(dur)) = (&c.life.slow_log, c.dur) else { return };
    let dur_ns = dur.as_nanos() as u64;
    let slow = dur >= log.config.threshold;
    if slow {
        emit(&Event::Slow(c.id, dur_ns));
    }
    let sampled =
        !slow && log.config.sample_every > 0 && c.id.seq.is_multiple_of(log.config.sample_every);
    if !slow && !sampled {
        return;
    }
    let n = |v: u64| Json::Num(v as f64);
    let incident = match &*c.life.last_incident.borrow() {
        Some((seq, path)) if *seq == c.id.seq => Json::Str(path.display().to_string()),
        _ => Json::Null,
    };
    // Schema history (DESIGN.md §11): 2 adds `incident` (path of the
    // statement's incident dump, or null) and `cache.prefetched_bytes`.
    // Consumers of v1 records must treat both as absent-means-none.
    let rec = Json::Obj(vec![
        ("schema_version".to_string(), n(2)),
        ("seq".to_string(), n(c.id.seq)),
        ("stmt_hash".to_string(), Json::Str(format!("{:016x}", c.id.hash))),
        ("kind".to_string(), Json::Str(c.id.kind.name().to_string())),
        ("slow".to_string(), Json::Bool(slow)),
        ("sampled".to_string(), Json::Bool(sampled)),
        ("dur_ns".to_string(), n(dur_ns)),
        (
            "phases".to_string(),
            Json::Obj(c.phases.iter().map(|(p, ns)| (p.name().to_string(), n(*ns))).collect()),
        ),
        (
            "eval".to_string(),
            Json::Obj(vec![
                ("steps".to_string(), n(c.stats.steps)),
                ("subscripts".to_string(), n(c.stats.subscripts)),
                ("materialized".to_string(), n(c.stats.materialized)),
            ]),
        ),
        ("cache".to_string(), cache_to_json(&c.stats.cache)),
        ("rule_fires".to_string(), n(c.rule_fires)),
        ("error".to_string(), Json::Bool(c.error.is_some())),
        ("incident".to_string(), incident),
    ]);
    use std::io::Write as _;
    let _ = writeln!(log.sink.borrow_mut(), "{}", rec.write());
}
