//! The workloads: session set-up, the seeded statement stream, the
//! reference answer of every statement, and the closed loop that runs
//! the stream through `Session::run`.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

use aql_core::types::Type;
use aql_core::value::{ArrayVal, Value};
use aql_format::codec::Codec;
use aql_format::file::AqfFile;
use aql_format::{AqfArrayWriter, AqfReader};
use aql_lang::errors::LangError;
use aql_lang::session::{Outcome, Session};
use aql_netcdf::chunk::NcChunkSource;
use aql_netcdf::driver::{NetcdfSlabReader, DEFAULT_CHUNK_ELEMS};
use aql_netcdf::model::NcError;
use aql_netcdf::synth;
use aql_store::{ChunkLayout, LazyArray, ResiliencePolicy, ResilientSource, ScalarBuf, ScalarKind};

use crate::calib::Normalizer;
use crate::inputs::{t_off, Inputs, Needs, Rng, T_DIMS, T_LEN};
use crate::spans::Timed;
use crate::stats::Hist;

/// Cache budget of the warm workloads: holds all of `temp` (1,752,000
/// bytes in 54 chunks).
pub const HOT_BUDGET: u64 = 4 << 20;
/// Cache budget of the cold workloads: 2 of the 54 chunks of `temp`.
pub const COLD_BUDGET: u64 = 64 << 10;
/// Time rows of one scan (× 5 × 5 cells).
pub const SCAN_ROWS: u64 = 200;
/// Probes against each rebound AQF file in a spill cycle.
pub const SPILL_PROBES: usize = 16;
/// The tail percentile reported. p90, not p99: on a shared host p99 is
/// set by co-tenant bursts and moved by up to half between runs of the
/// same code (the breakdown lines still print it).
pub const TAIL_Q: f64 = 0.9;
/// Fewest timed-kind samples a measuring loop takes, however long that
/// takes: ten beyond [`TAIL_Q`].
pub const MIN_SAMPLES: u64 = 100;
/// Longest a measuring loop runs, whatever its sample floor.
pub const LOOP_CAP: Duration = Duration::from_secs(100);

/// The §1 heat-index query (experiment E8) over the June file.
pub const PIPELINE_QUERY: &str = r#"{d | \d <- gen!30,
         \WS' == evenpos!(proj_col!(WS, 0)),
         \TRW == zip_3!(T, RH, WS'),
         \A == subseq!(TRW, d*24, d*24+23),
         heatindex!(A) > threshold};"#;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-cell probes of `temp` under a warm cache that holds it all.
    ProbeHot,
    /// The same probes under a 64 KiB cache: nearly every probe misses.
    ProbeCold,
    /// `max` over a seeded 200×5×5 subslab under a warm cache.
    Scan,
    /// The §1 heat-index query (E8) under a warm cache.
    Pipeline,
    /// `writeval` of the lazily bound `temp` to AQF (Raw codec), then
    /// rebind and probe the file.
    SpillRaw,
    /// `writeval` of seeded integer-valued arrays to AQF (BitPack and
    /// FrameOfRef codecs), then rebind and probe the file.
    SpillPacked,
}

/// A statement kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `X[t, i, j];`
    Probe,
    /// `max!{ T[o + t, i, j] | … };`
    Scan,
    /// The E8 query.
    Pipeline,
    /// `writeval X using AQF at "…";`
    Write,
    /// `readval \S using AQF at "…";`
    Rebind,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 5] = [
        Kind::Probe,
        Kind::Scan,
        Kind::Pipeline,
        Kind::Write,
        Kind::Rebind,
    ];

    /// Index into per-kind arrays.
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Probe => "probe",
            Kind::Scan => "scan",
            Kind::Pipeline => "pipeline",
            Kind::Write => "write",
            Kind::Rebind => "rebind",
        }
    }
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 6] = [
        Workload::ProbeHot,
        Workload::ProbeCold,
        Workload::Scan,
        Workload::Pipeline,
        Workload::SpillRaw,
        Workload::SpillPacked,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProbeHot => "probe-hot",
            Workload::ProbeCold => "probe-cold",
            Workload::Scan => "analytic-scan",
            Workload::Pipeline => "analytic-pipeline",
            Workload::SpillRaw => "spill-raw",
            Workload::SpillPacked => "spill-packed",
        }
    }

    /// The workload named `s`.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The inputs it needs.
    pub fn needs(self) -> Needs {
        Needs {
            year: self != Workload::Pipeline,
            june: self == Workload::Pipeline,
            packed: self == Workload::SpillPacked,
        }
    }

    /// The statement kind whose latency the end-to-end metrics report.
    pub fn timed_kind(self) -> Kind {
        match self {
            Workload::ProbeHot | Workload::ProbeCold => Kind::Probe,
            Workload::Scan => Kind::Scan,
            Workload::Pipeline => Kind::Pipeline,
            Workload::SpillRaw | Workload::SpillPacked => Kind::Write,
        }
    }

    /// Cache budget of the `temp` binding.
    fn t_budget(self) -> u64 {
        match self {
            Workload::ProbeCold | Workload::SpillRaw | Workload::SpillPacked => COLD_BUDGET,
            _ => HOT_BUDGET,
        }
    }

    /// Statements of the warm-up stream run during set-up.
    fn warm_stmts(self) -> usize {
        match self {
            Workload::ProbeHot | Workload::ProbeCold => 300,
            Workload::Scan => 20,
            Workload::Pipeline => 3,
            Workload::SpillRaw | Workload::SpillPacked => 2 + SPILL_PROBES,
        }
    }
}

/// Which array a spilled file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// `temp`.
    Temp,
    /// The seeded counts (`nat`).
    Counts,
    /// The quantized temperatures (integral reals).
    Quantized,
}

impl Src {
    fn var(self) -> &'static str {
        match self {
            Src::Temp => "T",
            Src::Counts => "N",
            Src::Quantized => "R",
        }
    }

    /// Element `off` as a value.
    fn value_at(self, inp: &Inputs, off: usize) -> Expect {
        match self {
            Src::Temp => Expect::Real(inp.temp[off]),
            Src::Counts => Expect::Nat(inp.counts[off]),
            Src::Quantized => Expect::Real(inp.quantized[off]),
        }
    }
}

/// The reference answer of a statement, computed from the inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A real, bit-exact.
    Real(f64),
    /// A natural.
    Nat(u64),
    /// A set of naturals (the E8 answer: 0-based heat-wave days).
    Days(Vec<u64>),
    /// Each AQF file holds its array bit-exactly.
    Files(Vec<(PathBuf, Src)>),
    /// A binding: the statement must succeed; its probes check the data.
    Bound,
}

/// One request of a stream: a program of one or more statements sent
/// in one `Session::run` call (one statement except for spill cycles).
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Its kind.
    pub kind: Kind,
    /// Source text.
    pub text: String,
    /// Reference answer of its last statement.
    pub expect: Expect,
    /// Files its bindings replace, deleted after it runs.
    pub retire: Vec<PathBuf>,
}

/// The seeded statement stream of a workload.
pub struct Stream {
    w: Workload,
    rng: Rng,
    pending: VecDeque<Stmt>,
    dir: PathBuf,
    prefix: &'static str,
    files: u64,
}

impl Stream {
    /// The stream of `w` at `seed`; spill files go to `dir`, named
    /// with `prefix`.
    pub fn new(w: Workload, seed: u64, dir: &Path, prefix: &'static str) -> Stream {
        Stream {
            w,
            rng: Rng::new(seed),
            pending: VecDeque::new(),
            dir: dir.to_path_buf(),
            prefix,
            files: 0,
        }
    }

    /// Whether the next request starts a cycle (every request does,
    /// outside the spill workloads).
    pub fn at_boundary(&self) -> bool {
        self.pending.is_empty()
    }

    /// The next request.
    pub fn next_stmt(&mut self, inp: &Inputs) -> Stmt {
        if let Some(s) = self.pending.pop_front() {
            return s;
        }
        match self.w {
            Workload::ProbeHot | Workload::ProbeCold => self.probe("T", Src::Temp, inp),
            Workload::Scan => {
                let o = self.rng.below(T_DIMS[0] - SCAN_ROWS + 1);
                let mut max = f64::NEG_INFINITY;
                for t in o..o + SCAN_ROWS {
                    for i in 0..T_DIMS[1] {
                        for j in 0..T_DIMS[2] {
                            max = max.max(inp.temp[t_off(t, i, j)]);
                        }
                    }
                }
                let text = format!(
                    "max!{{ T[{o} + t, i, j] | \\t <- gen!{SCAN_ROWS}, \\i <- gen!5, \\j <- gen!5 }};"
                );
                plain(Kind::Scan, text, Expect::Real(max))
            }
            Workload::Pipeline => plain(
                Kind::Pipeline,
                PIPELINE_QUERY.to_string(),
                Expect::Days(synth::HEATWAVE_DAYS.iter().map(|&d| d as u64 - 1).collect()),
            ),
            Workload::SpillRaw | Workload::SpillPacked => {
                self.spill_cycle(inp);
                self.pending
                    .pop_front()
                    .expect("a spill cycle has statements")
            }
        }
    }

    /// `var[t, i, j]` at seeded coordinates; `var` holds `src`.
    fn probe(&mut self, var: &str, src: Src, inp: &Inputs) -> Stmt {
        let t = self.rng.below(T_DIMS[0]);
        let i = self.rng.below(T_DIMS[1]);
        let j = self.rng.below(T_DIMS[2]);
        plain(
            Kind::Probe,
            format!("{var}[{t}, {i}, {j}];"),
            src.value_at(inp, t_off(t, i, j)),
        )
    }

    /// Write every spilled array to a fresh file, rebind each file,
    /// probe the rebound arrays. `spill-packed` writes two arrays, as
    /// one two-statement program, so its write latency stays unimodal.
    fn spill_cycle(&mut self, inp: &Inputs) {
        let srcs: &[(Src, &str)] = match self.w {
            Workload::SpillPacked => &[(Src::Counts, "S"), (Src::Quantized, "Q")],
            _ => &[(Src::Temp, "S")],
        };
        let file = |c: u64, k: usize| self.dir.join(format!("{}-{c}-{k}.aqf", self.prefix));
        let paths: Vec<PathBuf> = (0..srcs.len()).map(|k| file(self.files, k)).collect();
        let retire = match self.files.checked_sub(1) {
            Some(c) => (0..srcs.len()).map(|k| file(c, k)).collect(),
            None => Vec::new(),
        };
        self.files += 1;
        let (mut write, mut rebind) = (String::new(), String::new());
        for ((src, var), path) in srcs.iter().zip(&paths) {
            let p = path.display();
            write += &format!("writeval {} using AQF at \"{p}\";", src.var());
            rebind += &format!("readval \\{var} using AQF at \"{p}\";");
        }
        let files = srcs
            .iter()
            .zip(&paths)
            .map(|((src, _), p)| (p.clone(), *src))
            .collect();
        self.pending
            .push_back(plain(Kind::Write, write, Expect::Files(files)));
        self.pending.push_back(Stmt {
            kind: Kind::Rebind,
            text: rebind,
            expect: Expect::Bound,
            retire,
        });
        for n in 0..SPILL_PROBES {
            let (src, var) = srcs[n % srcs.len()];
            let s = self.probe(var, src, inp);
            self.pending.push_back(s);
        }
    }
}

fn plain(kind: Kind, text: String, expect: Expect) -> Stmt {
    Stmt {
        kind,
        text,
        expect,
        retire: Vec::new(),
    }
}

/// How lazily read arrays are bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bind {
    /// `readval` through the NetCDF reader, as a user would.
    Readval,
    /// The reader's stack built here with timed chunk sources and bound
    /// with `Session::bind_val_typed` (the traced pass).
    Traced,
}

/// AQF reader the spill workloads rebind with: the cold budget, the
/// default resilience stack, and no read-ahead thread (so every count
/// repeats exactly).
pub fn aqf_reader() -> AqfReader {
    AqfReader {
        cache_budget: COLD_BUDGET,
        resilience: Some(ResiliencePolicy::default()),
        prefetch: None,
    }
}

/// A session set up for `w`: readers and writers registered, inputs
/// bound, caches warmed by a warm-up stream (distinct from the measured
/// one).
pub fn open_session(w: Workload, inp: &Inputs, seed: u64, bind: Bind) -> Result<Session, String> {
    let mut s = Session::new();
    // The rewrite-soundness gate is off in release builds; pin it so
    // the environment cannot change what is measured.
    s.verify = false;
    s.register_writer("AQF", Rc::new(AqfArrayWriter::default()));
    s.register_reader("AQF", Rc::new(aqf_reader()));
    let budget = w.t_budget();
    if w == Workload::Pipeline {
        aql::externals::register_heatindex(&mut s);
        let h = synth::JUNE_HOURS as u64;
        let ws_hi = [2 * h - 1, synth::WS_LEVELS as u64 - 1];
        bind_nc(&mut s, bind, "T", &inp.june_nc, "T", &[h - 1], budget)?;
        bind_nc(&mut s, bind, "RH", &inp.june_nc, "RH", &[h - 1], budget)?;
        bind_nc(&mut s, bind, "WS", &inp.june_nc, "WS", &ws_hi, budget)?;
        s.run("val \\threshold = 96.0;")
            .map_err(|e| e.to_string())?;
    } else {
        let hi: Vec<u64> = T_DIMS.iter().map(|d| d - 1).collect();
        bind_nc(&mut s, bind, "T", &inp.temp_nc, "temp", &hi, budget)?;
    }
    if w == Workload::SpillPacked {
        let dims = T_DIMS.to_vec();
        let counts = inp.counts.iter().map(|&n| Value::Nat(n)).collect();
        let n = ArrayVal::new(dims.clone(), counts).map_err(|e| e.to_string())?;
        s.bind_val_typed("N", Value::Array(Rc::new(n)), Type::array(Type::Nat, 3));
        let r = ArrayVal::from_f64(dims, inp.quantized.clone()).map_err(|e| e.to_string())?;
        s.bind_val_typed("R", Value::Array(Rc::new(r)), Type::array(Type::Real, 3));
    }
    if budget == HOT_BUDGET && w != Workload::Pipeline {
        // Touch every chunk once so the cache holds all of `temp`.
        run_checked(&mut s, "max!{ T[t, 0, 0] | \\t <- gen!8760 };")?;
    }
    let mut warm = Stream::new(w, seed ^ 0x5741_524D, &inp.dir, "warm");
    for _ in 0..w.warm_stmts() {
        let st = warm.next_stmt(inp);
        let out = s.run(&st.text);
        if !check(&out, &st) {
            return Err(format!("warm-up statement failed: {} -> {out:?}", st.text));
        }
    }
    Ok(s)
}

fn run_checked(s: &mut Session, text: &str) -> Result<(), String> {
    s.run(text).map(drop).map_err(|e| format!("{text}: {e}"))
}

/// Bind `name` to `var[0..=hi]` of the NetCDF file at `path` with a
/// lazy cache of `budget` bytes.
fn bind_nc(
    s: &mut Session,
    bind: Bind,
    name: &str,
    path: &Path,
    var: &str,
    hi: &[u64],
    budget: u64,
) -> Result<(), String> {
    let k = hi.len();
    match bind {
        Bind::Readval => {
            let reader = NetcdfSlabReader {
                cache_budget: budget,
                ..NetcdfSlabReader::lazy(k)
            };
            s.register_reader(&format!("NC{k}"), Rc::new(reader));
            let bound = |v: Vec<String>| {
                if k == 1 {
                    v[0].clone()
                } else {
                    format!("({})", v.join(", "))
                }
            };
            let lo = bound(vec!["0".to_string(); k]);
            let hi = bound(hi.iter().map(u64::to_string).collect());
            let text = format!(
                "readval \\{name} using NC{k} at (\"{}\", \"{var}\", {lo}, {hi});",
                path.display()
            );
            run_checked(s, &text)
        }
        Bind::Traced => {
            // The stack `NetcdfSlabReader::read` builds, with a timed
            // source under the resilience wrapper and another over it.
            let count: Vec<u64> = hi.iter().map(|h| h + 1).collect();
            let layout =
                ChunkLayout::row_major(count, DEFAULT_CHUNK_ELEMS).map_err(|e| e.to_string())?;
            let label = format!("netcdf:{var}");
            let file = path.to_path_buf();
            let nc = NcChunkSource::new(
                move || {
                    Ok(std::io::BufReader::new(
                        std::fs::File::open(&file).map_err(NcError::from)?,
                    ))
                },
                var,
                vec![0; k],
            );
            let resilient = ResilientSource::new(
                Timed::new(nc, "netcdf.hyperslab"),
                label.clone(),
                ResiliencePolicy::default(),
            );
            let source = Box::new(Timed::new(resilient, "store.load"));
            let lazy = LazyArray::labeled(layout, ScalarKind::F64, source, budget, label);
            let arr = ArrayVal::lazy(lazy).map_err(|e| e.to_string())?;
            s.bind_val_typed(name, Value::Array(Rc::new(arr)), Type::array(Type::Real, k));
            Ok(())
        }
    }
}

/// Whether a `Session::run` outcome matches the statement's reference.
pub fn check(out: &Result<Vec<Outcome>, LangError>, st: &Stmt) -> bool {
    match out {
        Ok(outs) => check_value(outs.last().and_then(|o| o.value.as_ref()), &st.expect),
        Err(_) => false,
    }
}

/// Whether `v` (the statement's value, if any) matches `expect`. Files
/// are checked by [`verify_file`], separately.
pub fn check_value(v: Option<&Value>, expect: &Expect) -> bool {
    match (expect, v) {
        (Expect::Real(x), Some(Value::Real(y))) => x.to_bits() == y.to_bits(),
        (Expect::Nat(n), Some(Value::Nat(m))) => n == m,
        (Expect::Days(days), Some(Value::Set(set))) => {
            set.len() == days.len()
                && set
                    .iter()
                    .zip(days)
                    .all(|(v, d)| matches!(v, Value::Nat(n) if n == d))
        }
        (Expect::Files(_), _) | (Expect::Bound, _) => true,
        _ => false,
    }
}

/// What a verified AQF file holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileFacts {
    /// Chunks per codec: Raw, BitPack, FrameOfRef.
    pub codecs: [u64; 3],
    /// Encoded payload bytes.
    pub encoded_bytes: u64,
    /// File size on disk.
    pub file_bytes: u64,
    /// User data bytes (8 per element).
    pub user_bytes: u64,
}

/// Re-read the AQF file at `path` through [`AqfFile`] and compare every
/// element bit-exactly with `src`.
pub fn verify_file(path: &Path, src: Src, inp: &Inputs) -> Result<FileFacts, String> {
    let mut f = AqfFile::open(path).map_err(|e| e.to_string())?;
    let layout = f.layout().clone();
    if layout.dims() != T_DIMS {
        return Err(format!("{}: dims {:?}", path.display(), layout.dims()));
    }
    let mut facts = FileFacts {
        encoded_bytes: f.encoded_bytes(),
        file_bytes: std::fs::metadata(path).map_err(|e| e.to_string())?.len(),
        user_bytes: T_LEN as u64 * 8,
        ..FileFacts::default()
    };
    for id in 0..layout.num_chunks() {
        let (start, count) = layout.chunk_bounds(id).ok_or("chunk id out of range")?;
        let codec = f.entry(id).map(|e| e.codec).ok_or("missing chunk entry")?;
        facts.codecs[match codec {
            Codec::Raw => 0,
            Codec::BitPack => 1,
            Codec::FrameOfRef => 2,
        }] += 1;
        let buf = f.read_chunk_by_id(id).map_err(|e| e.to_string())?;
        let mut k = 0usize;
        for t in start[0]..start[0] + count[0] {
            for i in start[1]..start[1] + count[1] {
                for j in start[2]..start[2] + count[2] {
                    let off = t_off(t, i, j);
                    let same = match (&buf, src) {
                        (ScalarBuf::F64(v), Src::Temp) => {
                            v.get(k).map(|x| x.to_bits()) == Some(inp.temp[off].to_bits())
                        }
                        (ScalarBuf::F64(v), Src::Quantized) => {
                            v.get(k).map(|x| x.to_bits()) == Some(inp.quantized[off].to_bits())
                        }
                        (ScalarBuf::I64(v), Src::Counts) => {
                            v.get(k).copied() == i64::try_from(inp.counts[off]).ok()
                        }
                        _ => false,
                    };
                    if !same {
                        return Err(format!("{}: element {off} differs", path.display()));
                    }
                    k += 1;
                }
            }
        }
        if k != buf.len() {
            return Err(format!(
                "{}: chunk {id} has {} elements",
                path.display(),
                buf.len()
            ));
        }
    }
    Ok(facts)
}

/// When a measuring loop stops: after `seconds`, once the timed kind
/// has `floor` samples, at a cycle boundary of the stream — or at
/// [`LOOP_CAP`], whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    start: Instant,
    seconds: f64,
    floor: u64,
}

impl Stop {
    /// A stop rule starting now.
    pub fn new(seconds: f64, floor: u64) -> Stop {
        Stop {
            start: Instant::now(),
            seconds,
            floor,
        }
    }

    /// Whether a loop with `res` so far may stop.
    pub fn reached(&self, w: Workload, res: &LoopResult, stream: &Stream) -> bool {
        let el = self.start.elapsed();
        el >= LOOP_CAP
            || (el.as_secs_f64() >= self.seconds
                && res.count(w.timed_kind()) >= self.floor
                && stream.at_boundary())
    }
}

/// The outcome of a measuring loop: latencies per statement kind, raw
/// and at reference speed (see [`crate::calib`]), in histograms of
/// fixed size.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Latencies at reference speed, in ns, by [`Kind::idx`].
    pub at_ref: [Hist; Kind::ALL.len()],
    /// Raw latencies, in ns, by [`Kind::idx`].
    pub raw: [Hist; Kind::ALL.len()],
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that errored or disagreed with their reference.
    pub failed: u64,
    norm: Normalizer<Kind>,
}

impl LoopResult {
    /// Requests of `kind` recorded.
    pub fn count(&self, kind: Kind) -> u64 {
        self.raw[kind.idx()].len()
    }

    /// Record a request that took `ns` and passed (`ok`) its value
    /// check; written files are verified here, after the timing.
    pub fn record(&mut self, st: &Stmt, ns: u64, ok: bool, inp: &Inputs) {
        self.attempted += 1;
        let mut ok = ok;
        if let Expect::Files(files) = &st.expect {
            ok &= files
                .iter()
                .all(|(path, src)| verify_file(path, *src, inp).is_ok());
        }
        for old in &st.retire {
            let _ = std::fs::remove_file(old);
        }
        if !ok {
            self.failed += 1;
        }
        self.raw[st.kind.idx()].add(ns as f64);
        for (kind, v) in self.norm.push(st.kind, ns) {
            self.at_ref[kind.idx()].add(v);
        }
    }

    /// Close the last normalization block.
    pub fn finish(&mut self) {
        for (kind, v) in self.norm.flush() {
            self.at_ref[kind.idx()].add(v);
        }
    }
}

/// Send one request through `s.run`: whether its value matched, and
/// its latency in ns.
pub fn run_one(s: &mut Session, st: &Stmt) -> (bool, u64) {
    let t0 = Instant::now();
    let out = s.run(&st.text);
    let ns = t0.elapsed().as_nanos() as u64;
    (check(&out, st), ns)
}

/// Run `stream` through `s.run`, one request at a time, until `stop`.
pub fn closed_loop(
    w: Workload,
    s: &mut Session,
    stream: &mut Stream,
    inp: &Inputs,
    stop: Stop,
) -> LoopResult {
    let mut res = LoopResult::default();
    while !stop.reached(w, &res, stream) {
        let st = stream.next_stmt(inp);
        let (ok, ns) = run_one(s, &st);
        res.record(&st, ns, ok, inp);
    }
    res.finish();
    res
}
