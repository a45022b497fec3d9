//! Replay fidelity: the traced replay must do exactly the work
//! `Session::run` does. For each workload, the exact counts of every
//! replayed request (evaluation steps, subscripts, elided subscripts,
//! materialized elements, chunk-cache hits, misses, evictions and bytes,
//! rule fires, elided sites) must equal what `Session::profile` reports
//! for the same request from an identically set-up session, and must
//! repeat exactly across two replays at one seed.

use std::path::PathBuf;

use aql_core::eval::EvalStats;
use perfbench::inputs::Inputs;
use perfbench::replay::{profile_counts, Replayer};
use perfbench::workload::{check_value, open_session, Bind, Stream, Workload};

const SEED: u64 = 11;

/// Requests checked per workload (two spill cycles for the spill
/// workloads).
fn requests(w: Workload) -> u64 {
    match w {
        Workload::ProbeHot | Workload::ProbeCold => 60,
        Workload::Scan => 6,
        Workload::Pipeline => 2,
        Workload::SpillRaw | Workload::SpillPacked => 36,
    }
}

fn scratch(w: Workload, tag: &str) -> PathBuf {
    let d = PathBuf::from("out").join(format!("test-{}-{tag}-{}", w.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

type Profiled = (EvalStats, u64, u64);

fn replayed(w: Workload, tag: &str) -> Vec<Profiled> {
    let dir = scratch(w, tag);
    let inp = Inputs::generate(&dir, SEED, w.needs()).expect("inputs");
    let mut rep = Replayer::new(open_session(w, &inp, SEED, Bind::Traced).expect("set-up"));
    let mut stream = Stream::new(w, SEED, &dir, "t");
    let out = (0..requests(w))
        .map(|id| {
            let st = stream.next_stmt(&inp);
            let r = rep.replay(id, &st.text).expect("replay");
            assert!(
                check_value(r.value.as_ref(), &st.expect),
                "{}: wrong answer",
                st.text
            );
            r.counts.profiled()
        })
        .collect();
    drop(rep);
    std::fs::remove_dir_all(&dir).expect("clean up");
    out
}

fn profiled(w: Workload) -> Vec<Profiled> {
    let dir = scratch(w, "profile");
    let inp = Inputs::generate(&dir, SEED, w.needs()).expect("inputs");
    let mut s = open_session(w, &inp, SEED, Bind::Readval).expect("set-up");
    let mut stream = Stream::new(w, SEED, &dir, "t");
    let out = (0..requests(w))
        .map(|_| profile_counts(&mut s, &stream.next_stmt(&inp).text).expect("profile"))
        .collect();
    drop(s);
    std::fs::remove_dir_all(&dir).expect("clean up");
    out
}

fn check(w: Workload) {
    let a = replayed(w, "a");
    let b = replayed(w, "b");
    assert_eq!(a, b, "{}: counts differ between two replays", w.name());
    assert!(
        a.iter().any(|c| c.0.steps > 0),
        "{}: no evaluation counted",
        w.name()
    );
    if matches!(
        w,
        Workload::ProbeCold | Workload::SpillRaw | Workload::SpillPacked
    ) {
        assert!(
            a.iter().any(|c| c.0.cache.misses > 0),
            "{}: no cache miss counted",
            w.name()
        );
    }
    let p = profiled(w);
    for (i, (r, p)) in a.iter().zip(&p).enumerate() {
        assert_eq!(
            r,
            p,
            "{}: request {i}: replay vs Session::profile",
            w.name()
        );
    }
    assert_eq!(a.len(), p.len());
}

#[test]
fn probe_hot() {
    check(Workload::ProbeHot);
}

#[test]
fn probe_cold() {
    check(Workload::ProbeCold);
}

#[test]
fn analytic_scan() {
    check(Workload::Scan);
}

#[test]
fn analytic_pipeline() {
    check(Workload::Pipeline);
}

#[test]
fn spill_raw() {
    check(Workload::SpillRaw);
}

#[test]
fn spill_packed() {
    check(Workload::SpillPacked);
}
