//! The traced pass: replay a statement stream by calling each layer's
//! public entry point from here, in the order `Session::exec` does,
//! and time every call with a [`spans`](crate::spans) span.
//!
//! Layers and their spans:
//!
//! - aql-lang: `lang.lex`, `lang.parse`, `lang.desugar`, `lang.resolve`;
//! - aql-core: `core.typecheck`, `core.compile`, `core.bounds`,
//!   `core.eval`, and `core.print` (the session's echo of a result,
//!   which can load chunks);
//! - aql-opt: `opt.optimize`;
//! - aql-store: `store.load` (a cache miss, through the resilience
//!   wrapper) and `store.read_slab` (the writer's slab reads);
//! - aql-netcdf: `netcdf.hyperslab`, the chunk source under `store.load`;
//! - aql-format: `format.chunk_read` (the chunk source under
//!   `store.load`), `format.open`, `format.writer`, `format.chunk_write`.
//!
//! The session's other bookkeeping (journal, metrics, per-statement
//! stats, `it`) is not replayed: it is the part of a statement
//! `bench.layer_coverage` leaves out.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::rc::Rc;

use aql_core::eval::{bounds, compile, eval_compiled, Env, EvalStats};
use aql_core::expr::{name, Name};
use aql_core::prim::{Extensions, NativeFn};
use aql_core::types::Type;
use aql_core::value::array::ArrayData;
use aql_core::value::print::session_string;
use aql_core::value::{ArrayVal, Value};
use aql_core::{typecheck, EvalCtx};
use aql_format::{AqfArrayWriter, AqfChunkSource, AqfSummary, AqfWriter};
use aql_lang::ast::{SExpr, Stmt as Ast};
use aql_lang::desugar::desugar;
use aql_lang::lexer::lex;
use aql_lang::parser::parse_program;
use aql_lang::session::{QueryReport, Session};
use aql_store::{
    ChunkLayout, LazyArray, ResiliencePolicy, ResilientSource, Scalar, ScalarBuf, ScalarKind,
};

use crate::inputs::Inputs;
use crate::spans::{self, span, Span, Timed};
use crate::workload::{self, check_value, FileFacts, Kind, LoopResult, Stop, Stream, Workload};

/// Exact per-statement counts: the ones the replay-fidelity check
/// compares with `Session::profile`, and the replay's own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Evaluation and chunk-cache counters.
    pub eval: EvalStats,
    /// Optimizer rule applications.
    pub rule_fires: u64,
    /// Subscript sites the bounds pass marked for elision.
    pub elided_sites: u64,
    /// Tokens lexed.
    pub tokens: u64,
    /// Core-term nodes entering the optimizer.
    pub nodes_in: u64,
    /// Core-term nodes leaving it.
    pub nodes_out: u64,
    /// High-water mark of governed cache bytes during the statement.
    pub governor_peak: u64,
}

impl Counts {
    /// The counts `Session::profile` also reports.
    pub fn profiled(&self) -> (EvalStats, u64, u64) {
        (self.eval, self.rule_fires, self.elided_sites)
    }
}

/// The counts `Session::profile` reports for one statement.
pub fn profile_counts(s: &mut Session, text: &str) -> Result<(EvalStats, u64, u64), String> {
    let (_, report): (_, QueryReport) = s.profile(text).map_err(|e| e.to_string())?;
    let stats = report
        .statements
        .iter()
        .fold(EvalStats::default(), |a, s| a.merged(s));
    let fires: u64 = report
        .trace
        .spans
        .iter()
        .flat_map(|s| &s.counters)
        .chain(&report.trace.counters)
        .filter(|(n, _)| n.starts_with("fire:"))
        .map(|(_, v)| v)
        .sum();
    let elided_sites = report.trace.total_counter("eval.bounds_elided_sites");
    Ok((stats, fires, elided_sites))
}

/// One replayed statement.
#[derive(Debug)]
pub struct Replayed {
    /// The last statement's value, for queries.
    pub value: Option<Value>,
    /// Its counts.
    pub counts: Counts,
    /// Its spans (the root `stmt` span first).
    pub spans: Vec<Span>,
}

/// A session plus the registries the replay passes to the layers.
pub struct Replayer {
    session: Session,
    types: HashMap<Name, Type>,
    vals: HashMap<Name, Value>,
    ext: Extensions,
}

impl Replayer {
    /// Replay against `session` (set up with [`workload::Bind::Traced`]).
    pub fn new(session: Session) -> Replayer {
        let mut types = HashMap::new();
        let mut vals = HashMap::new();
        for (n, ty) in session.val_bindings() {
            if let Some(v) = session.val(&n) {
                vals.insert(name(&n), v.clone());
                types.insert(name(&n), ty);
            }
        }
        // The session's externals are private; register the same one
        // the pipeline workload's session has.
        let mut ext = Extensions::new();
        ext.register(NativeFn::new(
            "heatindex",
            Type::fun(
                Type::array1(Type::tuple(vec![Type::Real, Type::Real, Type::Real])),
                Type::Real,
            ),
            |v| {
                let arr = v.as_array()?;
                let mut readings = Vec::with_capacity(arr.len());
                for item in arr.data().iter() {
                    let t = item.as_tuple()?;
                    readings.push((t[0].as_real()?, t[1].as_real()?, t[2].as_real()?));
                }
                if readings.is_empty() {
                    return Ok(Value::Bottom);
                }
                Ok(Value::Real(aql::externals::day_heat_index(&readings)))
            },
        ));
        Replayer {
            session,
            types,
            vals,
            ext,
        }
    }

    /// Replay statement `id` with source `text`.
    pub fn replay(&mut self, id: u64, text: &str) -> Result<Replayed, String> {
        let mut counts = Counts::default();
        spans::begin_stmt(id);
        let cache0 = aql_store::stats::global();
        aql_store::governor::reset_peak();
        let value = {
            let _root = span("stmt");
            self.exec(text, &mut counts)
        };
        counts.eval.cache = aql_store::stats::global().delta_since(&cache0);
        counts.governor_peak = aql_store::governor::peak_bytes();
        let spans = spans::take_stmt();
        Ok(Replayed {
            value: value?,
            counts,
            spans,
        })
    }

    fn exec(&mut self, text: &str, c: &mut Counts) -> Result<Option<Value>, String> {
        // `parse_program` lexes as part of parsing, as the session does;
        // `lex` runs again after it, warm, to count tokens and to time
        // lexing. The aggregation subtracts the lex span from the parse
        // span and drops the second lex from the layer total.
        let stmts = {
            let _s = span("lang.parse");
            parse_program(text)
        }
        .map_err(|e| e.to_string())?;
        let toks = {
            let _s = span("lang.lex");
            lex(text)
        }
        .map_err(|e| e.to_string())?;
        c.tokens += toks.len() as u64;
        let mut last = None;
        for st in &stmts {
            last = match st {
                Ast::Query(e) => {
                    let (ty, v) = self.pipeline(e, c)?;
                    self.echo("it", &ty, &v);
                    Some(v)
                }
                Ast::ReadVal { name, reader, arg } => {
                    let (_, path) = self.pipeline(arg, c)?;
                    let (ty, v) = self.read_aqf(name, reader, &path)?;
                    self.echo(name, &ty, &v);
                    None
                }
                Ast::WriteVal { value, writer, arg } => {
                    let (_, v) = self.pipeline(value, c)?;
                    let (_, path) = self.pipeline(arg, c)?;
                    self.write_aqf(writer, &path, &v)?;
                    None
                }
                other => return Err(format!("statement not replayed: {other:?}")),
            };
        }
        Ok(last)
    }

    /// The session's echo of a bound value: printing a lazy array
    /// reads its first elements, so it can load chunks.
    fn echo(&self, n: &str, ty: &Type, v: &Value) {
        let _s = span("core.print");
        let text = format!(
            "typ {n} : {ty}\nval {n} = {}",
            session_string(v, self.session.display_limit)
        );
        std::hint::black_box(text);
    }

    /// desugar → resolve → typecheck → optimize → compile → bounds → eval.
    fn pipeline(&mut self, e: &SExpr, c: &mut Counts) -> Result<(Type, Value), String> {
        let core = {
            let _s = span("lang.desugar");
            desugar(e)
        }
        .map_err(|e| e.to_string())?;
        let resolved = {
            let _s = span("lang.resolve");
            self.session.resolve(&core)
        };
        let ty = {
            let _s = span("core.typecheck");
            typecheck(&resolved, &self.types, &self.ext)
        }
        .map_err(|e| e.to_string())?;
        let optimized = {
            let _s = span("opt.optimize");
            self.session.optimizer_mut().try_optimize(&resolved)
        }
        .map_err(|e| e.to_string())?;
        // The session runs `try_optimize`; recording the rewrite trace
        // costs ~1.7x as much on the pipeline query, so the rule fires
        // are counted by a second, untimed run.
        let (_, trace) = self
            .session
            .optimizer_mut()
            .try_optimize_traced(&resolved)
            .map_err(|e| e.to_string())?;
        c.rule_fires += trace.len() as u64;
        c.nodes_in += resolved.size() as u64;
        c.nodes_out += optimized.size() as u64;
        let compiled = {
            let _s = span("core.compile");
            compile(&optimized)
        }
        .map_err(|e| e.to_string())?;
        if bounds::enabled() {
            let marks = {
                let _s = span("core.bounds");
                bounds::annotate(&compiled, &self.vals)
            };
            c.elided_sites += marks.elided as u64;
        }
        let ctx = EvalCtx::new(&self.vals, &self.ext);
        let v = {
            let _s = span("core.eval");
            let _interrupts = aql_store::interrupt::install(None, None);
            eval_compiled(&compiled, &Env::empty(), &ctx)
        };
        let st = ctx.stats();
        c.eval.steps += st.steps;
        c.eval.subscripts += st.subscripts;
        c.eval.elided += st.elided;
        c.eval.materialized += st.materialized;
        Ok((ty, v.map_err(|e| e.to_string())?))
    }

    fn bind(&mut self, n: &str, v: Value, ty: Type) {
        self.session.bind_val_typed(n, v.clone(), ty.clone());
        self.vals.insert(name(n), v);
        self.types.insert(name(n), ty);
    }

    /// What `AqfReader::read` does (without read-ahead), with timed
    /// sources.
    fn read_aqf(&mut self, n: &str, reader: &str, arg: &Value) -> Result<(Type, Value), String> {
        let Value::Str(path) = arg else {
            return Err(format!("{reader}: bad argument"));
        };
        if reader != "AQF" {
            return Err(format!("reader {reader} is not replayed"));
        }
        let _s = span("format.open");
        let src = AqfChunkSource::open(path.as_ref()).map_err(|e| e.to_string())?;
        let layout = src.file().layout().clone();
        let kind = src.file().kind();
        let rank = layout.dims().len();
        let file_name = Path::new(path.as_ref())
            .file_name()
            .map_or(path.to_string(), |f| f.to_string_lossy().into_owned());
        let label = format!("aqf:{file_name}");
        let resilient = ResilientSource::new(
            Timed::new(src, "format.chunk_read"),
            label.clone(),
            ResiliencePolicy::default(),
        );
        let source = Box::new(Timed::new(resilient, "store.load"));
        let budget = workload::aqf_reader().cache_budget;
        let lazy = LazyArray::labeled(layout, kind, source, budget, label);
        let arr = ArrayVal::lazy(lazy).map_err(|e| e.to_string())?;
        let base = match kind {
            ScalarKind::F64 => Type::Real,
            ScalarKind::I64 => Type::Nat,
            ScalarKind::Bool => Type::Bool,
        };
        let (ty, v) = (Type::array(base, rank), Value::Array(Rc::new(arr)));
        self.bind(n, v.clone(), ty.clone());
        Ok((ty, v))
    }

    /// What `aql_format::driver::write_array` does, with every
    /// `AqfWriter::write_chunk` call timed.
    fn write_aqf(&mut self, writer: &str, arg: &Value, data: &Value) -> Result<(), String> {
        let Value::Str(path) = arg else {
            return Err(format!("{writer}: bad argument"));
        };
        if writer != "AQF" {
            return Err(format!("writer {writer} is not replayed"));
        }
        let arr = data.as_array().map_err(|e| e.to_string())?;
        let opts = AqfArrayWriter::default();
        let _s = span("format.writer");
        write_array(path.as_ref(), arr, opts.compress, opts.chunk_elems)
            .map(drop)
            .map_err(|e| format!("{path}: {e}"))
    }
}

fn write_array(
    path: &str,
    arr: &ArrayVal,
    compress: bool,
    chunk_elems: u64,
) -> Result<AqfSummary, String> {
    let e = |e: aql_store::StoreError| e.to_string();
    let dims = arr.dims().to_vec();
    let kind = match arr.array_data() {
        ArrayData::F64(_) => ScalarKind::F64,
        ArrayData::Nat(_) => ScalarKind::I64,
        ArrayData::Bool(_) => ScalarKind::Bool,
        ArrayData::Lazy(l) => l.borrow().kind(),
        ArrayData::Materialized(_) => return Err("boxed arrays are not replayed".into()),
    };
    let layout = ChunkLayout::row_major(dims.clone(), chunk_elems).map_err(e)?;
    let mut w = AqfWriter::create(path, layout.clone(), kind, compress).map_err(e)?;
    let put = |w: &mut AqfWriter, buf: &ScalarBuf| {
        let _s = span("format.chunk_write");
        w.write_chunk(buf).map_err(e)
    };
    for id in 0..layout.num_chunks() {
        let (start, count) = layout.chunk_bounds(id).ok_or("chunk id out of range")?;
        let buf = match arr.array_data() {
            ArrayData::Lazy(l) => {
                let _s = span("store.read_slab");
                l.borrow_mut().read_slab(&start, &count).map_err(e)?
            }
            _ => {
                let n = count.iter().product::<u64>() as usize;
                let mut buf = ScalarBuf::with_capacity(kind, n);
                let mut idx = start.clone();
                for _ in 0..n {
                    let off = idx.iter().zip(&dims).fold(0u64, |o, (&i, &d)| o * d + i);
                    let v = arr
                        .try_value_at(off as usize)
                        .map_err(|e| e.to_string())?
                        .ok_or("index outside the array")?;
                    let s = match v {
                        Value::Real(x) => Scalar::F64(x),
                        Value::Nat(n) => Scalar::I64(i64::try_from(n).map_err(|e| e.to_string())?),
                        Value::Bool(b) => Scalar::Bool(b),
                        other => return Err(format!("element {other}")),
                    };
                    if !buf.push(s) {
                        return Err("scalar kind drifted".into());
                    }
                    let mut j = idx.len();
                    while j > 0 {
                        j -= 1;
                        idx[j] += 1;
                        if idx[j] < start[j] + count[j] {
                            break;
                        }
                        idx[j] = start[j];
                    }
                }
                buf
            }
        };
        put(&mut w, &buf)?;
    }
    w.finish().map_err(e)
}

/// Per-layer totals of a traced loop.
#[derive(Debug, Default)]
pub struct Layers {
    /// Statements replayed.
    pub stmts: u64,
    /// Statements that errored or disagreed with their reference.
    pub failed: u64,
    /// Self time per span name, in ns (`lang.parse` net of `lang.lex`).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration per span name, in ns.
    pub dur_ns: BTreeMap<&'static str, u64>,
    /// Calls per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Summed counts.
    pub counts: Counts,
    /// Highest per-statement governor peak.
    pub governor_peak: u64,
    /// Wall time of the replayed requests (their root spans), in ns.
    pub wall_ns: u64,
    /// Layer self time of the replayed requests (every span but the
    /// root, `lang.parse` net of `lang.lex`), in ns.
    pub layer_ns: u64,
    /// Wall time of write statements, in ns.
    pub write_ns: u64,
    /// Facts of every written file.
    pub files: Vec<FileFacts>,
    /// Spans of the first statements, for the span file.
    pub kept: Vec<Span>,
}

impl Layers {
    /// Fold one replayed statement in.
    pub fn add(&mut self, kind: Kind, r: &Replayed, keep: bool) {
        self.stmts += 1;
        let selfs = spans::self_times(&r.spans);
        let mut lex_ns = 0;
        let mut layer_ns = 0;
        for (s, own) in r.spans.iter().zip(&selfs) {
            *self.self_ns.entry(s.name).or_default() += own;
            *self.dur_ns.entry(s.name).or_default() += s.dur_ns();
            *self.calls.entry(s.name).or_default() += 1;
            if s.name == "lang.lex" {
                lex_ns += s.dur_ns();
            }
            if s.parent.is_some() {
                layer_ns += own;
            }
        }
        if let Some(p) = self.self_ns.get_mut("lang.parse") {
            *p = p.saturating_sub(lex_ns);
        }
        let wall = r.spans.first().map_or(0, Span::dur_ns);
        self.wall_ns += wall;
        self.layer_ns += layer_ns.saturating_sub(lex_ns);
        if kind == Kind::Write {
            self.write_ns += wall;
        }
        let c = &mut self.counts;
        c.eval = c.eval.merged(&r.counts.eval);
        c.rule_fires += r.counts.rule_fires;
        c.elided_sites += r.counts.elided_sites;
        c.tokens += r.counts.tokens;
        c.nodes_in += r.counts.nodes_in;
        c.nodes_out += r.counts.nodes_out;
        self.governor_peak = self.governor_peak.max(r.counts.governor_peak);
        if keep {
            self.kept.extend(r.spans.iter().cloned());
        }
    }

    /// Self time of span `name`, in ns.
    pub fn self_of(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    /// Summed duration of span `name`, in ns.
    pub fn dur_of(&self, name: &str) -> u64 {
        self.dur_ns.get(name).copied().unwrap_or(0)
    }

    /// Calls of span `name`.
    pub fn calls_of(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }
}

/// Statements whose spans are kept for the span file.
pub const KEEP_STMTS: u64 = 400;

/// Alternate two copies of one stream, request by request, so both see
/// the same phases of the host: `untraced` through `s.run`, `traced`
/// through the replay. Both answers are checked. Stops by `stop`
/// applied to the untraced side.
#[allow(clippy::too_many_arguments)]
pub fn traced_loop(
    w: Workload,
    s: &mut Session,
    rep: &mut Replayer,
    untraced: &mut Stream,
    traced: &mut Stream,
    inp: &Inputs,
    stop: Stop,
) -> (LoopResult, Layers) {
    let mut base = LoopResult::default();
    let mut layers = Layers::default();
    spans::start();
    while !stop.reached(w, &base, untraced) {
        let st = untraced.next_stmt(inp);
        let (ok, ns) = workload::run_one(s, &st);
        base.record(&st, ns, ok, inp);

        let st = traced.next_stmt(inp);
        let id = layers.stmts;
        let ok = match rep.replay(id, &st.text) {
            Ok(r) => {
                layers.add(st.kind, &r, id < KEEP_STMTS);
                let mut ok = check_value(r.value.as_ref(), &st.expect);
                if let workload::Expect::Files(files) = &st.expect {
                    for (path, src) in files {
                        match workload::verify_file(path, *src, inp) {
                            Ok(f) => layers.files.push(f),
                            Err(_) => ok = false,
                        }
                    }
                }
                ok
            }
            Err(_) => {
                layers.stmts += 1;
                false
            }
        };
        layers.failed += u64::from(!ok);
        for old in &st.retire {
            let _ = std::fs::remove_file(old);
        }
    }
    spans::stop();
    base.finish();
    (base, layers)
}
