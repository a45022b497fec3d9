//! Eager vs. lazy storage micro-benchmark over a synthetic weather
//! file (the `temp(time, lat, lon)` = 8760 × 5 × 5 variable).
//!
//! Two access patterns — a single point probe and a contiguous subslab
//! scan — each measured end-to-end (`readval` binding + query) under
//! the eager driver and under the lazy driver at two cache budgets.
//! Emits `BENCH_store.json` with wall time, bytes read off disk, cache
//! hit rate, and an embedded `QueryReport` (phase-timing spans plus
//! I/O counters, collected on a separate profiled pass so the timed
//! pass runs untraced) for each configuration.
//!
//! `cargo run -p aql-bench --release --bin store_bench`
//!
//! `--trace-overhead` instead measures the cost of the *disabled*
//! instrumentation hooks against a traced run of the same workload and
//! fails loudly if tracing-enabled wall time exceeds the untraced time
//! by more than 5% (min-of-N, so scheduler noise doesn't flake it).
//!
//! `--metrics-overhead` prices the always-on metrics hooks the same
//! way: the workload with metric recording globally disabled vs.
//! enabled, with a 3% budget.
//!
//! `--resilience-overhead` prices the fault-tolerance stack on its
//! happy path: the workload with the retry/breaker wrapper stripped
//! from the chunk source vs. the default resilient driver (governor
//! unlimited, no faults firing), with a 1% budget. Cache hits bypass
//! the whole stack, so this bounds what PR 6 costs a healthy system.
//!
//! `--journal-overhead` prices the always-on flight recorder: the
//! point-probe and subslab-scan workloads with the journal globally
//! disabled vs. enabled (the default), with a 1% budget per pattern.
//! The recorder is lock-free per-thread rings, so an enabled journal
//! must be indistinguishable from a disabled one at query scale.
//!
//! `--analysis-overhead` prices the interval bounds-analysis pass that
//! runs once per statement before evaluation: the point-probe and
//! subslab-scan workloads with the pass (and the elision fast path it
//! enables) globally disabled vs. enabled (the default), with a 2%
//! budget per pattern. The pass is one cheap walk over the compiled
//! term, and every subscript it proves in range skips its runtime
//! bounds comparisons — so at statement scale, analysis-on must never
//! be measurably slower than analysis-off.
//!
//! `--profile-overhead` prices the span-sampling continuous profiler:
//! the point-probe and subslab-scan workloads with the 99 Hz sampler
//! off vs. running, with a 1% budget per pattern. Blocks strictly
//! alternate off/on so machine drift cannot bias the comparison; the
//! sampler must be cheap enough to leave on in production.
//!
//! `--prefetch-overhead` prices the read-ahead prefetcher both ways:
//! random point probes (where the stride predictor never confirms and
//! the worker must stay idle) may cost at most 2% over a
//! prefetcher-free array, and a sequential chunk scan against a
//! simulated high-latency remote source must get at least 1.3× faster
//! with read-ahead on — speculation has to actually hide the latency
//! it spends threads on.

use std::fmt::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use aql::format::{register_aqf, AqfChunkSource, AqfWriter};
use aql_lang::session::{QueryReport, Session};
use aql_netcdf::driver::NetcdfSlabReader;
use aql_netcdf::format::VERSION_CLASSIC;
use aql_netcdf::synth::year_temp_file;
use aql_netcdf::write::write_file;
use aql_store::{
    ChunkLayout, ChunkSource, LazyArray, PrefetchConfig, Prefetcher, RemoteChunkSource, ScalarBuf,
    ScalarKind,
};

/// Bytes of the full `temp` variable — what eager materialization
/// pulls off disk no matter how little of the binding a query touches.
const FULL_BYTES: u64 = 8760 * 5 * 5 * 8;

struct Config {
    name: &'static str,
    reader: fn() -> NetcdfSlabReader,
}

struct Row {
    config: &'static str,
    pattern: &'static str,
    micros: u128,
    bytes_read: u64,
    hit_rate: Option<f64>,
    /// `QueryReport::to_json` of a profiled (untimed) pass of the same
    /// workload: the per-phase spans and counters behind the wall time.
    report: String,
}

fn reader_eager() -> NetcdfSlabReader {
    NetcdfSlabReader::eager(3)
}

fn reader_lazy_4m() -> NetcdfSlabReader {
    let mut r = NetcdfSlabReader::lazy(3);
    r.cache_budget = 4 << 20;
    r
}

fn reader_lazy_64k() -> NetcdfSlabReader {
    let mut r = NetcdfSlabReader::lazy(3);
    r.cache_budget = 64 << 10;
    r
}

/// Bind the whole variable with `reader` and run `query`; return
/// (wall-micros, bytes-read, hit-rate) for the end-to-end session.
fn measure(path: &str, reader: &Config, pattern: &'static str, query: &str) -> Row {
    let before = aql_store::stats::global();
    let t0 = Instant::now();

    let mut s = bind(path, (reader.reader)());
    let (_, v) = s.eval_query(query).expect("query");
    assert!(!v.is_bottom(), "{}/{pattern}: query produced ⊥", reader.name);

    let micros = t0.elapsed().as_micros();
    let delta = aql_store::stats::global().delta_since(&before);
    // The eager driver bypasses the chunk cache entirely: its disk
    // traffic is one full materialization of the bound slab.
    let bytes_read =
        if reader.name == "eager" { FULL_BYTES } else { delta.bytes_read };

    // A separate pass with tracing on yields the per-phase report; the
    // timed pass above stays untraced.
    let report = profile_report(path, reader, query).to_json();

    Row { config: reader.name, pattern, micros, bytes_read, hit_rate: delta.hit_rate(), report }
}

/// Re-run the workload in a fresh session under `Session::profile` and
/// return the full span/counter report.
fn profile_report(path: &str, reader: &Config, query: &str) -> QueryReport {
    let mut s = bind(path, (reader.reader)());
    let (_, report) = s.profile(&format!("{query};")).expect("profiled query");
    report
}

fn json_escape_free(rows: &[Row]) -> String {
    // All emitted strings are static identifiers — no escaping needed.
    let mut arr = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let hr = match r.hit_rate {
            Some(h) => format!("{h:.4}"),
            None => "null".to_string(),
        };
        let _ = writeln!(
            arr,
            "    {{\"config\": \"{}\", \"pattern\": \"{}\", \"wall_us\": {}, \
             \"bytes_read\": {}, \"hit_rate\": {}, \"report\": {}}}{}",
            r.config,
            r.pattern,
            r.micros,
            r.bytes_read,
            hr,
            r.report,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    arr.push_str("  ]");
    aql_bench::report::render_artifact(
        "store",
        &[("full_variable_bytes", FULL_BYTES.to_string()), ("rows", arr)],
    )
}

/// Bind the whole `temp` variable as `T` in a fresh session.
fn bind(path: &str, reader: NetcdfSlabReader) -> Session {
    let mut s = Session::new();
    s.register_reader("NC", Rc::new(reader));
    s.run(&format!(
        "readval \\T using NC at (\"{path}\", \"temp\", (0, 0, 0), (8759, 4, 4));"
    ))
    .expect("bind");
    s
}

const POINT_PROBE: (&str, &str) = ("point-probe", "T[5000, 2, 2]");
const SUBSLAB_SCAN: (&str, &str) =
    ("subslab-scan", "max!{ T[4000 + t, i, j] | \\t <- gen!200, \\i <- gen!5, \\j <- gen!5 }");

/// One `--*-overhead` A/B gate: the same session workload timed with a
/// feature off and on. Runs alternate strictly — off, on, off, on —
/// so adjacent runs see the same machine state, and each side keeps
/// its best run (min-of-N, so scheduler noise cannot flake the check).
/// The gate fails if on exceeds off by more than `budget_pct` percent
/// plus 500 µs, so sub-millisecond jitter on a fast machine cannot
/// flake it either.
struct Gate {
    flag: &'static str,
    /// Report name: "`name` overhead: …".
    name: &'static str,
    /// Off/on side names in the measurement line.
    sides: [&'static str; 2],
    /// Off/on run names in the failure message.
    runs: [&'static str; 2],
    budget_pct: u32,
    patterns: &'static [(&'static str, &'static str)],
    /// Timed runs per side, and queries per run.
    runs_per_side: usize,
    queries: usize,
    /// Build one side's session (`true` = on).
    session: fn(&str, bool) -> Session,
    /// Put the process into one side's mode before its timed run; the
    /// gate ends in the on mode (every switch's default).
    switch: fn(bool),
    /// Run one query on one side.
    query: fn(&mut Session, &str, bool),
    /// Time the on side under the 99 Hz span sampler, started before
    /// and stopped after each timed run.
    sampled: bool,
}

fn lazy_session(path: &str, _on: bool) -> Session {
    bind(path, reader_lazy_4m())
}

fn eval_query(s: &mut Session, query: &str, _on: bool) {
    s.eval_query(query).expect("query");
}

fn no_switch(_on: bool) {}

/// The session gates, in flag-precedence order.
fn gates() -> [Gate; 6] {
    let gate = |flag, name, runs, budget_pct, patterns| Gate {
        flag,
        name,
        sides: ["off", "on"],
        runs,
        budget_pct,
        patterns,
        runs_per_side: 7,
        queries: 40,
        session: lazy_session,
        switch: no_switch,
        query: eval_query,
        sampled: false,
    };
    const BOTH: &[(&str, &str)] = &[POINT_PROBE, SUBSLAB_SCAN];
    [
        // Tracing on means a full `Session::profile` per query, the
        // worst realistic usage; the disabled hooks cost strictly less.
        Gate {
            sides: ["untraced", "traced"],
            query: |s, q, on| {
                if on {
                    s.profile(&format!("{q};")).expect("traced query");
                } else {
                    s.eval_query(q).expect("untraced query");
                }
            },
            ..gate("--trace-overhead", "trace", ["untraced", "traced"], 5, &[SUBSLAB_SCAN])
        },
        // The always-on hooks: phase/statement timers, statement
        // counters and the storage event stream's metric sink — not the
        // endpoint or the slow log, which are opt-in.
        Gate {
            switch: aql_metrics::set_enabled,
            ..gate("--metrics-overhead", "metrics", ["metrics-off", "metrics-on"], 3, &[SUBSLAB_SCAN])
        },
        // The fault-tolerance stack on its happy path: the raw chunk
        // source vs. retry + breaker + checksums + governor charging.
        // Cache hits bypass the whole stack, hence the tight budget.
        Gate {
            sides: ["raw", "resilient"],
            session: |path, on| {
                let mut r = reader_lazy_4m();
                if !on {
                    r.resilience = None;
                }
                bind(path, r)
            },
            ..gate("--resilience-overhead", "resilience", ["raw", "resilient"], 1, &[SUBSLAB_SCAN])
        },
        // The flight recorder: statement stamps, phase records, cache
        // records and the thread-local hit coalescing.
        Gate {
            switch: aql_journal::set_enabled,
            ..gate("--journal-overhead", "journal", ["recorder-off", "recorder-on"], 1, BOTH)
        },
        // The span sampler never stops the mutator; queries only see
        // the relaxed load gating span publication plus cache traffic
        // from the sampler core. Short blocks track machine drift.
        Gate {
            runs_per_side: 60,
            queries: 5,
            sampled: true,
            ..gate("--profile-overhead", "profile", ["sampler-off", "sampler-on"], 1, BOTH)
        },
        // The per-statement interval pass plus the elision fast path
        // it enables, against a plain bounds-checked evaluator.
        Gate {
            switch: aql_core::eval::bounds::set_enabled,
            ..gate("--analysis-overhead", "analysis", ["analysis-off", "analysis-on"], 2, BOTH)
        },
    ]
}

fn run_gate(gate: &Gate, path: &str) {
    let several = gate.patterns.len() > 1;
    for &(pattern, query) in gate.patterns {
        let time = |s: &mut Session, on: bool| -> u128 {
            let t0 = Instant::now();
            for _ in 0..gate.queries {
                (gate.query)(s, query, on);
            }
            t0.elapsed().as_micros()
        };
        let mut sessions = [(gate.session)(path, false), (gate.session)(path, true)];
        // Warm-up: chunk caches, file cache, branch predictors.
        time(&mut sessions[0], false);
        time(&mut sessions[1], true);

        let mut best = [u128::MAX; 2];
        let mut profile = aql_profile::Profile::default();
        for run in 0..2 * gate.runs_per_side {
            let on = run % 2 == 1;
            (gate.switch)(on);
            // Sampler thread spawn/join stays untimed; the publication
            // cost inside the queries does not.
            let sampler = (on && gate.sampled)
                .then(|| aql_profile::Sampler::start(aql_profile::DEFAULT_HZ).expect("sampler"));
            best[on as usize] = best[on as usize].min(time(&mut sessions[on as usize], on));
            if let Some(sampler) = sampler {
                profile.merge(&sampler.stop());
            }
        }
        (gate.switch)(true);

        let [off, on] = best;
        let ratio = on as f64 / off as f64;
        let (label, on_pattern) =
            if several { (format!(" ({pattern})"), format!(" on {pattern}")) } else { Default::default() };
        let (n, q) = (gate.runs_per_side, gate.queries);
        let schedule = if gate.sampled {
            format!("best of {n} alternating blocks of {q} queries, {} samples", profile.samples)
        } else {
            format!("best of {n} × {q} queries")
        };
        println!(
            "{} overhead{label}: {} {off}µs vs {} {on}µs ({schedule}) — ratio {ratio:.4}",
            gate.name, gate.sides[0], gate.sides[1]
        );
        for (stack, count) in profile.top(4) {
            println!("  {count:>6} {stack}");
        }
        let budget = gate.budget_pct;
        assert!(
            on as f64 <= off as f64 * (1.0 + budget as f64 / 100.0) + 500.0,
            "{} OVERHEAD BUDGET EXCEEDED{on_pattern}: {} runs are {:.2}% slower than {} \
             (budget: {budget}%)",
            gate.name.to_uppercase(),
            gate.runs[1],
            (ratio - 1.0) * 100.0,
            gate.runs[0]
        );
        println!("{} overhead{label} within the {budget}% budget", gate.name);
    }
}

/// Per-chunk "compute" in the sequential-scan workloads — what the
/// prefetch worker overlaps its round trips with.
const SCAN_COMPUTE: Duration = Duration::from_millis(4);
/// Simulated remote round trip per chunk load in the scan workloads.
const SCAN_LATENCY: Duration = Duration::from_millis(3);

/// Write a synthetic 1-D AQF file of `chunks` × `chunk_elems` f64
/// values and return its path.
fn write_probe_aqf(dir: &Path, chunks: u64, chunk_elems: u64) -> String {
    let total = chunks * chunk_elems;
    let layout = ChunkLayout::new(vec![total], vec![chunk_elems]).expect("layout");
    let path = dir.join("probe.aqf");
    let mut w = AqfWriter::create(&path, layout, ScalarKind::F64, false).expect("create aqf");
    for id in 0..chunks {
        let base = id * chunk_elems;
        let buf = ScalarBuf::F64((0..chunk_elems).map(|k| (base + k) as f64 * 0.5).collect());
        w.write_chunk(&buf).expect("write chunk");
    }
    w.finish().expect("finish aqf");
    path.to_str().expect("utf-8 path").to_string()
}

/// A lazy array over an AQF file: optionally behind a simulated-remote
/// latency shim, optionally with a read-ahead worker (which gets its
/// own file handle — and the same latency — as the consumer).
fn lazy_over_aqf(path: &str, latency: Option<Duration>, prefetch: bool) -> LazyArray {
    let wrap = |src: AqfChunkSource| -> Box<dyn ChunkSource + Send> {
        match latency {
            Some(l) => Box::new(RemoteChunkSource::new(src, l)),
            None => Box::new(src),
        }
    };
    let src = AqfChunkSource::open(path).expect("open aqf");
    let layout = src.file().layout().clone();
    let kind = src.file().kind();
    let mut arr = LazyArray::labeled(layout.clone(), kind, wrap(src), 8 << 20, "aqf:bench");
    if prefetch {
        let worker = AqfChunkSource::open(path).expect("open aqf (worker handle)");
        arr.attach_prefetcher(Prefetcher::spawn(wrap(worker), layout, PrefetchConfig::default()));
    }
    arr
}

/// Visit every chunk of `arr` in id order — one element access per
/// chunk, then `SCAN_COMPUTE` of simulated per-chunk work — and return
/// the wall micros.
fn timed_chunk_scan(arr: &mut LazyArray) -> u128 {
    let n = arr.layout().num_chunks();
    let t0 = Instant::now();
    for id in 0..n {
        let (start, _) = arr.layout().chunk_bounds(id).expect("chunk id in range");
        assert!(arr.get(&start).expect("scan access").is_some());
        std::thread::sleep(SCAN_COMPUTE);
    }
    t0.elapsed().as_micros()
}

/// `--prefetch-overhead`: two gates on the read-ahead prefetcher.
///
/// 1. **Random probes** never confirm a stride, so an attached
///    prefetcher must be ~free: at most 2% over the same array without
///    one (min-of-N on a warm cache, so this prices the per-access
///    `observe` bookkeeping, not I/O).
/// 2. **Sequential scan** over a simulated 3 ms-per-chunk remote
///    source with 3 ms of per-chunk compute must get ≥ 1.3× faster
///    with read-ahead on — the worker's round trips have to actually
///    hide behind the consumer's compute.
fn prefetch_overhead_check(dir: &Path) {
    const TRIALS: usize = 7;
    const PROBES: u64 = 200_000;
    let path = write_probe_aqf(dir, 64, 4096); // 2 MiB of f64
    let total = 64u64 * 4096;

    let time_probes = |arr: &mut LazyArray| -> u128 {
        // Fixed-seed LCG: the same probe sequence on both sides.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let t0 = Instant::now();
        for _ in 0..PROBES {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let off = (x >> 16) % total;
            assert!(arr.get_linear(off).expect("probe").is_some());
        }
        t0.elapsed().as_micros()
    };

    let mut arr_off = lazy_over_aqf(&path, None, false);
    let mut arr_on = lazy_over_aqf(&path, None, true);
    // Warm-up: afterwards the 8 MiB cache holds the whole file and the
    // probes price pure bookkeeping.
    time_probes(&mut arr_off);
    time_probes(&mut arr_on);

    let mut best_off = u128::MAX;
    let mut best_on = u128::MAX;
    for _ in 0..TRIALS {
        best_off = best_off.min(time_probes(&mut arr_off));
        best_on = best_on.min(time_probes(&mut arr_on));
    }
    let ratio = best_on as f64 / best_off as f64;
    println!(
        "prefetch overhead (random probes): detached {best_off}µs vs attached {best_on}µs \
         (best of {TRIALS} × {PROBES} probes) — ratio {ratio:.4}"
    );
    // 2% relative plus a small absolute allowance so sub-millisecond
    // jitter on a fast machine cannot flake the check.
    assert!(
        best_on as f64 <= best_off as f64 * 1.02 + 500.0,
        "PREFETCH OVERHEAD BUDGET EXCEEDED: random probes with a prefetcher attached are \
         {:.2}% slower than without (budget: 2%)",
        (ratio - 1.0) * 100.0
    );
    println!("prefetch overhead within the 2% budget");

    // Fresh (cold-cache) arrays per trial: the scan must pay the
    // simulated round trips, not replay a warm cache.
    const SCAN_TRIALS: usize = 3;
    let mut scan_off = u128::MAX;
    let mut scan_on = u128::MAX;
    for _ in 0..SCAN_TRIALS {
        scan_off = scan_off.min(timed_chunk_scan(&mut lazy_over_aqf(&path, Some(SCAN_LATENCY), false)));
        scan_on = scan_on.min(timed_chunk_scan(&mut lazy_over_aqf(&path, Some(SCAN_LATENCY), true)));
    }
    let speedup = scan_off as f64 / scan_on as f64;
    println!(
        "prefetch speedup (sequential scan, {SCAN_LATENCY:?}/chunk remote): \
         off {scan_off}µs vs on {scan_on}µs — {speedup:.2}×"
    );
    assert!(
        speedup >= 1.3,
        "PREFETCH SPEEDUP FLOOR MISSED: sequential scan sped up only {speedup:.2}× \
         (floor: 1.3×)"
    );
    println!("prefetch speedup above the 1.3× floor");
}

/// Row pair: the subslab scan on a warm cache with bounds-check
/// elision off vs. on (the default). Both rows time a 40-iteration
/// batch (best of 7 trials) so the CPU-bound evaluator loop — where
/// elision lives — dominates the wall time instead of first-touch
/// I/O; `wall_us` is the whole batch, not one statement. The embedded
/// profile reports differ in their `eval.elided` counter: 0 with the
/// pass off, one per proven subscript with it on.
fn measure_elision_pair(path: &str) -> Vec<Row> {
    const TRIALS: usize = 7;
    const ITERS: usize = 40;
    let query = "max!{ T[4000 + t, i, j] | \\t <- gen!200, \\i <- gen!5, \\j <- gen!5 }";

    let time_iters = |s: &mut Session| -> u128 {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            s.eval_query(query).expect("query");
        }
        t0.elapsed().as_micros()
    };

    let mut rows = Vec::new();
    for (config, enabled) in [("elision-off", false), ("elision-on", true)] {
        aql_core::eval::bounds::set_enabled(enabled);
        let before = aql_store::stats::global();
        let mut s = bind(path, reader_lazy_4m());
        time_iters(&mut s); // Warm-up: afterwards the cache holds the window.
        let mut best = u128::MAX;
        for _ in 0..TRIALS {
            best = best.min(time_iters(&mut s));
        }
        let delta = aql_store::stats::global().delta_since(&before);
        let (_, report) = s.profile(&format!("{query};")).expect("profiled query");
        rows.push(Row {
            config,
            pattern: "subslab-scan",
            micros: best,
            bytes_read: delta.bytes_read,
            hit_rate: delta.hit_rate(),
            report: report.to_json(),
        });
    }
    aql_core::eval::bounds::set_enabled(true);
    rows
}

/// Row: stream the lazily bound NetCDF variable into an AQF file
/// through the registered `AQF` writer (`writeval`, chunk by chunk —
/// never materialized).
fn measure_aqf_save(nc_path: &str, aqf_path: &str) -> Row {
    let before = aql_store::stats::global();
    let t0 = Instant::now();
    let mut s = bind(nc_path, reader_lazy_4m());
    register_aqf(&mut s);
    s.run(&format!("writeval T using AQF at \"{aqf_path}\";")).expect("save");
    let micros = t0.elapsed().as_micros();
    let delta = aql_store::stats::global().delta_since(&before);
    Row {
        config: "aqf",
        pattern: "save",
        micros,
        bytes_read: delta.bytes_read,
        hit_rate: delta.hit_rate(),
        report: "null".to_string(),
    }
}

/// Row: reopen the saved AQF file lazily and point-probe it. The probe
/// must touch under 2% of the variable's bytes — one chunk, not the
/// file.
fn measure_aqf_probe(aqf_path: &str) -> Row {
    let t0 = Instant::now();
    let mut s = Session::new();
    register_aqf(&mut s);
    s.run(&format!("readval \\A using AQF at \"{aqf_path}\";")).expect("bind");
    // Delta from after the bind: the `readval` echo previews a few
    // elements (one chunk); the 2% criterion is on the probe itself.
    let before = aql_store::stats::global();
    let (_, v) = s.eval_query("A[5000, 2, 2]").expect("probe");
    assert!(!v.is_bottom(), "aqf/point-probe: query produced ⊥");
    let micros = t0.elapsed().as_micros();
    let delta = aql_store::stats::global().delta_since(&before);
    assert!(
        delta.bytes_read * 50 < FULL_BYTES,
        "aqf point probe read {} bytes — 2% of the {FULL_BYTES}-byte variable or more",
        delta.bytes_read
    );
    Row {
        config: "aqf",
        pattern: "point-probe",
        micros,
        bytes_read: delta.bytes_read,
        hit_rate: delta.hit_rate(),
        report: "null".to_string(),
    }
}

/// Row: sequential chunk scan of the saved AQF file behind a simulated
/// 3 ms-per-chunk remote source, read-ahead on.
fn measure_prefetch_scan(aqf_path: &str) -> Row {
    let before = aql_store::stats::global();
    let mut arr = lazy_over_aqf(aqf_path, Some(SCAN_LATENCY), true);
    let micros = timed_chunk_scan(&mut arr);
    let p = arr.prefetch_stats().expect("prefetcher attached");
    println!(
        "prefetch-scan: issued={} hits={} wasted={}",
        p.issued, p.hits, p.wasted
    );
    let delta = aql_store::stats::global().delta_since(&before);
    Row {
        config: "aqf-remote-3ms",
        pattern: "prefetch-scan",
        micros,
        bytes_read: delta.bytes_read,
        hit_rate: delta.hit_rate(),
        report: "null".to_string(),
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("aql-store-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("temp.nc");
    write_file(&year_temp_file().expect("synth"), &path, VERSION_CLASSIC).expect("write");
    let path = path.to_str().expect("utf-8 path").to_string();

    if let Some(gate) = gates().iter().find(|g| std::env::args().any(|a| a == g.flag)) {
        run_gate(gate, &path);
        std::fs::remove_dir_all(&dir).ok();
        return;
    }
    if std::env::args().any(|a| a == "--prefetch-overhead") {
        prefetch_overhead_check(&dir);
        std::fs::remove_dir_all(&dir).ok();
        return;
    }

    let configs = [
        Config { name: "eager", reader: reader_eager },
        Config { name: "lazy-4MiB", reader: reader_lazy_4m },
        Config { name: "lazy-64KiB", reader: reader_lazy_64k },
    ];
    // Equal coverage for every config: the same bound slab, the same
    // query. The point probe touches one element; the subslab scan
    // tabulates a 200-hour window of the full grid.
    let patterns: [(&str, &str); 2] = [
        ("point-probe", "T[5000, 2, 2]"),
        // An aggregate over a 200-hour window: unlike a tabulation
        // followed by a subscript (which the δ-rule fuses down to a
        // point access), the set comprehension really visits all
        // 200 × 5 × 5 elements.
        ("subslab-scan", "max!{ T[4000 + t, i, j] | \\t <- gen!200, \\i <- gen!5, \\j <- gen!5 }"),
    ];

    let mut rows = Vec::new();
    for (pattern, query) in patterns {
        for c in &configs {
            // One warm-up pass (file-cache effects), one measured pass.
            let _ = measure(&path, c, pattern, query);
            rows.push(measure(&path, c, pattern, query));
        }
    }

    // AQF rows: spill the lazily bound variable to the native format,
    // reopen it lazily and point-probe it, then scan it sequentially
    // behind a simulated remote source with read-ahead on.
    let aqf_path =
        dir.join("temp.aqf").to_str().expect("utf-8 path").to_string();
    rows.push(measure_aqf_save(&path, &aqf_path));
    rows.push(measure_aqf_probe(&aqf_path));
    rows.push(measure_prefetch_scan(&aqf_path));

    // Bounds-check elision rows: the warm-cache subslab scan with the
    // interval pass off vs. on, so the artifact records what the
    // elided fast path is worth on a CPU-bound evaluator loop.
    rows.extend(measure_elision_pair(&path));

    println!("store bench — full variable is {FULL_BYTES} bytes\n");
    println!("{:<14} {:<14} {:>10} {:>12} {:>9}", "config", "pattern", "wall µs", "bytes read", "hit rate");
    for r in &rows {
        let hr = r.hit_rate.map_or("-".to_string(), |h| format!("{:.1}%", h * 100.0));
        println!(
            "{:<14} {:<14} {:>10} {:>12} {:>9}",
            r.config, r.pattern, r.micros, r.bytes_read, hr
        );
    }

    // The lazy drivers must move fewer bytes than eager at equal
    // coverage, on both patterns and at both budgets. (The AQF rows
    // are exempt: the save and the prefetch scan legitimately stream
    // the whole variable.)
    for r in &rows {
        if r.config.starts_with("lazy-") {
            assert!(
                r.bytes_read < FULL_BYTES,
                "{}/{}: read {} bytes, eager reads {FULL_BYTES}",
                r.config, r.pattern, r.bytes_read
            );
        }
    }

    std::fs::write("BENCH_store.json", json_escape_free(&rows)).expect("BENCH_store.json");
    println!("\nwrote BENCH_store.json");
    std::fs::remove_dir_all(&dir).ok();
}
