//! The workspace lint walls, over non-test library code under
//! `crates/*/src`:
//!
//! * no `panic!(`, `.unwrap()`, `todo!(`, `unimplemented!(`, or `dbg!(`;
//! * no direct flight-recorder or metric-registry calls outside the
//!   event streams' own modules (see [`SINK_CALLS`]).
//!
//! Robustness is a stated goal (PR 1 made extension panics survivable;
//! this PR makes internal invariants report instead of abort) — the
//! wall keeps new aborts from creeping back in. Escapes:
//!
//! * test code — `#[cfg(test)]` modules are stripped before scanning;
//! * comments and doc examples — `//`-leading lines are skipped;
//! * deliberate exceptions — annotate the line (or the line above) with
//!   `// lint-wall: allow` and a justification;
//! * the vendored `proptest-shim` is exempt (test-only by nature).
//!
//! CI runs the same check as a grep step; this test keeps it
//! enforceable locally with `cargo test`.

use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose sources are exempt wholesale.
const EXEMPT_CRATES: &[&str] = &["proptest-shim"];

/// The forbidden substrings. The last three keep scaffolding out of
/// shipped code: `todo!`/`unimplemented!` abort at runtime, and `dbg!`
/// writes to stderr from library internals.
const FORBIDDEN: &[&str] = &["panic!(", ".unwrap()", "todo!(", "unimplemented!(", "dbg!("];

/// Collect every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read_dir {dir:?}: {e}"));
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Drop `#[cfg(test)]`-gated items (modules or functions) by brace
/// counting from the attribute line. Returns `(line_number, line)`
/// pairs for what remains.
fn non_test_lines(text: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            let mut depth: i64 = 0;
            let mut started = false;
            while i < lines.len() {
                depth += lines[i].matches('{').count() as i64;
                depth -= lines[i].matches('}').count() as i64;
                if lines[i].contains('{') {
                    started = true;
                }
                i += 1;
                if started && depth <= 0 {
                    break;
                }
            }
            continue;
        }
        out.push((i + 1, lines[i].to_string()));
        i += 1;
    }
    out
}

/// Every reachable library line: `(file, line number, line)` for the
/// non-test, non-comment lines of `crates/*/src` without a
/// `// lint-wall: allow` on the line or the one above.
fn library_lines() -> Vec<(PathBuf, usize, String)> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    let entries = fs::read_dir(&crates).expect("crates/ exists");
    for entry in entries {
        let krate = entry.expect("dir entry").path();
        let name = krate.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if EXEMPT_CRATES.contains(&name) {
            continue;
        }
        let src = krate.join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 10, "the scan must actually find the workspace sources");

    let mut out = Vec::new();
    for path in files {
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
        let kept = non_test_lines(&text);
        for (k, (ln, line)) in kept.iter().enumerate() {
            // Comments (incl. doc examples) are not reachable code.
            if line.trim_start().starts_with("//") {
                continue;
            }
            let allowed = line.contains("lint-wall: allow")
                || (k > 0 && kept[k - 1].1.contains("lint-wall: allow"));
            if !allowed {
                out.push((path.clone(), *ln, line.clone()));
            }
        }
    }
    out
}

/// `file:line: code` for every library line containing one of `pats`,
/// outside the files `exempt` accepts.
fn violations(pats: &[&str], exempt: impl Fn(&Path) -> bool) -> Vec<String> {
    library_lines()
        .into_iter()
        .filter(|(path, _, line)| !exempt(path) && pats.iter().any(|p| line.contains(p)))
        .map(|(path, ln, line)| format!("{}:{}: {}", path.display(), ln, line.trim()))
        .collect()
}

#[test]
fn no_panics_or_unwraps_in_library_code() {
    let violations = violations(FORBIDDEN, |_| false);
    assert!(
        violations.is_empty(),
        "forbidden `panic!(`/`.unwrap()`/`todo!(`/`unimplemented!(`/`dbg!(` in library \
         code (add `// lint-wall: allow` \
         with a justification if the abort is deliberate):\n{}",
        violations.join("\n")
    );
}

/// Direct flight-recorder records and metric-registry lookups. Every
/// storage and statement occurrence reaches the journal and the
/// metrics through its event stream's sinks, which hold pre-interned
/// ids and cached handles; a stray call elsewhere is a second, unsynced
/// record of the same occurrence, or a registry lookup on a hot path.
const SINK_CALLS: &[&str] = &[
    "aql_journal::record(",
    "aql_journal::intern(",
    "aql_metrics::counter(",
    "aql_metrics::counter_with(",
    "aql_metrics::histogram(",
    "aql_metrics::histogram_with(",
    "aql_metrics::gauge(",
];

/// Where [`SINK_CALLS`] belong: the storage and statement event
/// streams, and the journal and metrics crates themselves.
fn owns_sinks(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.ends_with("crates/store/src/event.rs")
        || p.ends_with("crates/aql-lang/src/session/lifecycle.rs")
        || p.contains("crates/journal/src/")
        || p.contains("crates/metrics/src/")
}

#[test]
fn journal_and_metrics_calls_stay_in_the_event_sinks() {
    let violations = violations(SINK_CALLS, owns_sinks);
    assert!(
        violations.is_empty(),
        "direct journal/metric-registry call outside an event sink (emit an event, use a \
         cached handle, or add `// lint-wall: allow` with a justification):\n{}",
        violations.join("\n")
    );
}

#[test]
fn cfg_test_stripping_works() {
    let src = "fn a() { x.unwrap(); }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn b() { y.unwrap(); }\n\
               }\n\
               fn c() {}\n";
    let kept = non_test_lines(src);
    let text: Vec<&str> = kept.iter().map(|(_, l)| l.as_str()).collect();
    assert!(text.iter().any(|l| l.contains("fn a")));
    assert!(text.iter().any(|l| l.contains("fn c")));
    assert!(!text.iter().any(|l| l.contains("fn b")), "{text:?}");
}
