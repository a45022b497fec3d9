//! Spans recorded from the benchmark's own code, around its calls into
//! each layer: name, start, end, parent and statement id, kept in
//! memory and written out when the run ends.
//!
//! The recorder is thread-local and off until [`start`]; a [`span`]
//! opened while it is off costs one thread-local read. Chunk sources
//! are timed by wrapping them in [`Timed`], which opens a span around
//! every `read_chunk` call.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use aql_store::{ChunkSource, ScalarBuf, StoreError};

/// One closed span. `parent` indexes the statement's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name (`lang.parse`, `store.load`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder started.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span in the same statement's list.
    pub parent: Option<u32>,
    /// Statement id (position in the replayed stream).
    pub stmt: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    stmt: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Turn recording on for this thread.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            stmt: 0,
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Turn recording off for this thread.
pub fn stop() {
    REC.with(|r| *r.borrow_mut() = None);
}

/// Start collecting the spans of statement `id`.
pub fn begin_stmt(id: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.stmt = id;
            rec.spans.clear();
            rec.open.clear();
        }
    });
}

/// The spans of the current statement, in open order.
pub fn take_stmt() -> Vec<Span> {
    REC.with(|r| {
        r.borrow_mut()
            .as_mut()
            .map(|rec| std::mem::take(&mut rec.spans))
    })
    .unwrap_or_default()
}

/// An open span; closes on drop.
#[must_use = "a span closes when its guard drops"]
pub struct Guard(Option<u32>);

/// Open a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Guard(None);
        };
        let idx = rec.spans.len() as u32;
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: rec.open.last().copied(),
            stmt: rec.stmt,
        });
        rec.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let now = rec.epoch.elapsed().as_nanos() as u64;
                if let Some(s) = rec.spans.get_mut(idx as usize) {
                    s.end_ns = now;
                }
                if rec.open.last() == Some(&idx) {
                    rec.open.pop();
                }
            }
        });
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p as usize] = out[p as usize].saturating_sub(s.dur_ns());
        }
    }
    out
}

/// Write `spans` as JSON lines (`parent` indexes the statement's own
/// list, as in [`Span`]).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"stmt\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            s.stmt, s.name, s.start_ns, s.end_ns, parent
        )?;
    }
    f.flush()
}

/// A chunk source whose every `read_chunk` call is a span.
pub struct Timed<S> {
    inner: S,
    name: &'static str,
}

impl<S> Timed<S> {
    /// Time `inner`'s reads under span name `name`.
    pub fn new(inner: S, name: &'static str) -> Timed<S> {
        Timed { inner, name }
    }
}

impl<S: ChunkSource> ChunkSource for Timed<S> {
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        let _span = span(self.name);
        self.inner.read_chunk(start, count)
    }

    fn chunk_checksum(&mut self, start: &[u64], count: &[u64]) -> Option<u64> {
        self.inner.chunk_checksum(start, count)
    }
}
