//! Breaker-trip incidents are decided by the statement's own
//! attribution ledger: a trip is counted where it happened (this
//! statement, this thread), whether or not metric recording is on.
//!
//! A process-wide metric delta cannot decide this: it goes blind with
//! `aql_metrics::set_enabled(false)`, and it charges a trip on another
//! thread to whatever statement is running.

use std::rc::Rc;
use std::sync::Mutex;
use std::time::Duration;

use aql::lang::errors::LangError;
use aql::lang::reader::Reader;
use aql::lang::session::{IncidentConfig, Session};
use aql_core::types::Type;
use aql_core::value::Value;
use aql_store::{BreakerPolicy, BreakerState, CircuitBreaker};

/// Serializes the tests: metric recording is a process-wide switch.
static SERIAL: Mutex<()> = Mutex::new(());

const SOURCE: &str = "t_incident:flaky";

/// A reader that trips a circuit breaker — on the calling thread or on
/// a helper thread — and then succeeds, so the statement itself is Ok.
struct TrippingReader {
    on_other_thread: bool,
}

impl Reader for TrippingReader {
    fn read(&self, _arg: &Value) -> Result<(Value, Option<Type>), LangError> {
        let trip = || {
            let policy = BreakerPolicy { threshold: 1, cooldown: Duration::from_secs(60) };
            let mut breaker = CircuitBreaker::new(SOURCE, policy);
            breaker.on_failure();
            assert_eq!(breaker.state(), BreakerState::Open);
        };
        if self.on_other_thread {
            std::thread::spawn(trip).join().expect("helper thread");
        } else {
            trip();
        }
        Ok((Value::Nat(1), None))
    }
}

fn session(on_other_thread: bool, dir: &std::path::Path) -> Session {
    let mut s = Session::new();
    s.register_reader("TRIP", Rc::new(TrippingReader { on_other_thread }));
    s.enable_incidents(IncidentConfig::new(dir));
    s
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("aql-incident-trips-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("incident dir");
    dir
}

#[test]
fn trip_dumps_an_incident_with_metrics_off() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("metrics-off");
    let mut s = session(false, &dir);
    aql_metrics::set_enabled(false);
    let out = s.run("readval \\x using TRIP at 0;");
    aql_metrics::set_enabled(true);
    out.expect("the statement itself succeeds");

    let path = s.last_incident_path().expect("a breaker_trip incident");
    assert!(path.to_string_lossy().ends_with("breaker_trip.json"), "{}", path.display());
    let ledger = s.statement_attribution().pop().expect("ledger");
    assert_eq!(ledger.total_trips(), 1);
    assert!(ledger.render().contains(", 1 breaker trips"), "{}", ledger.render());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trip_on_another_thread_is_not_this_statements_incident() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("other-thread");
    let mut s = session(true, &dir);
    s.run("readval \\x using TRIP at 0;").expect("the statement itself succeeds");

    assert_eq!(s.last_incident_path(), None, "the trip was not this statement's");
    let ledger = s.statement_attribution().pop().expect("ledger");
    assert_eq!(ledger.total_trips(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
