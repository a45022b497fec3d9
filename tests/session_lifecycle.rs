//! Statement-lifecycle records that depend on process-wide switches.
//!
//! * The slow log's `rule_fires` counts the optimizer's fires on the
//!   statement's own thread: it does not go blind with metric recording
//!   off, and fires on other threads are not charged to the statement.
//! * Phases are timed whenever the statement clock runs, so with metrics
//!   off and the flight recorder on, the journal still gets `Phase`
//!   records and the ledger still gets phase times.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use aql::journal::Tag;
use aql::lang::session::{Session, SlowLogConfig};
use aql::opt::{Phase, Rule};
use aql::trace::json::Json;
use aql_core::expr::Expr;

/// Serializes the tests: metric recording is a process-wide switch.
static SERIAL: Mutex<()> = Mutex::new(());

/// A query the standard optimizer rewrites (15 fires).
const QUERY: &str =
    "{d | \\d <- gen!10, \\A == subseq!([[ i * i | \\i < 100 ]], d, d + 3), A[0] % 2 = 0};";

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

/// The slow log's `rule_fires` for `QUERY` run in `s`.
fn logged_fires(s: &mut Session) -> u64 {
    let lines = Lines::default();
    s.enable_slow_log(
        Box::new(lines.clone()),
        SlowLogConfig { threshold: Duration::ZERO, sample_every: 0 },
    );
    s.run(QUERY).expect("query");
    s.disable_slow_log();
    let text = String::from_utf8(lines.0.lock().expect("sink").clone()).expect("UTF-8");
    let rec = Json::parse(text.lines().last().expect("one record")).expect("JSON");
    rec.get("rule_fires").and_then(Json::as_u64).expect("rule_fires")
}

#[test]
fn rule_fires_are_logged_with_metrics_off() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let mut s = Session::new();
    aql::metrics::set_enabled(false);
    let fires = logged_fires(&mut s);
    aql::metrics::set_enabled(true);
    assert!(fires > 0, "the query fires rules, metrics or not");
    assert_eq!(fires, logged_fires(&mut s), "same count with metrics on");
}

/// Runs `QUERY` in a second session on a helper thread the first time
/// it is applied, and never rewrites anything itself.
#[derive(Default)]
struct OtherThreadSession {
    ran: Cell<bool>,
}

impl Rule for OtherThreadSession {
    fn name(&self) -> &'static str {
        "other-thread-session"
    }
    fn apply(&self, _: &Expr) -> Option<Expr> {
        if !self.ran.replace(true) {
            let ok = std::thread::spawn(|| Session::new().run(QUERY).is_ok());
            assert!(ok.join().expect("helper thread"), "helper query");
        }
        None
    }
}

#[test]
fn rule_fires_on_other_threads_are_not_the_statements() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    aql::metrics::set_enabled(true);
    let alone = logged_fires(&mut Session::new());
    let mut s = Session::new();
    let mut phase = Phase::new("side-effect");
    phase.add_rule(Rc::new(OtherThreadSession::default()));
    s.optimizer_mut().add_phase(phase);
    assert_eq!(logged_fires(&mut s), alone, "the helper session's fires are its own");
}

#[test]
fn phases_reach_journal_and_ledger_with_metrics_off() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let mut s = Session::new();
    aql::metrics::set_enabled(false);
    aql::journal::set_enabled(true);
    s.run(QUERY).expect("query");
    aql::metrics::set_enabled(true);
    let ledger = &s.statement_attribution()[0];
    let phases: Vec<&str> = ledger.phases.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(phases, ["desugar", "resolve", "typecheck", "optimize", "eval"]);
    // This thread's records of the statement: StmtBegin … StmtEnd.
    let journal = aql::journal::snapshot();
    let thread = journal.events.last().expect("records").thread;
    let mine: Vec<_> = journal.events.iter().filter(|e| e.thread == thread).collect();
    let begin = mine.iter().rposition(|e| e.tag == Tag::StmtBegin).expect("StmtBegin");
    let recorded: Vec<(String, u64)> = mine[begin..]
        .iter()
        .filter(|e| e.tag == Tag::Phase)
        .map(|e| (e.label_str(), e.a))
        .collect();
    assert_eq!(recorded, ledger.phases, "one Phase record per ledger phase");
    assert_eq!(mine.last().map(|e| e.tag), Some(Tag::StmtEnd));
}
