//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. With `--trace 0` it prints every
//! end-to-end metric; with `--trace 1` every per-layer metric, taken
//! by replaying the same statement stream with each layer timed from
//! here. The last line of standard output is the JSON result; the
//! lines before it are a human-readable breakdown. See README.md.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use aql_lang::session::Session;
use perfbench::calib::timed_at_ref;
use perfbench::inputs::Inputs;
use perfbench::replay::{traced_loop, Layers, Replayer};
use perfbench::stats::{median, metric, peak_rss_mb, result_line, Hist, Metric};
use perfbench::workload::{
    closed_loop, open_session, Bind, Kind, LoopResult, Stop, Stream, Workload, MIN_SAMPLES, TAIL_Q,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Where runs write their files, relative to the repository root.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| {
        let dir = Path::new(OUT_DIR).join(format!("{}-{}", a.workload.name(), std::process::id()));
        let r = if a.trace {
            traced(&a, &dir)
        } else {
            untraced(&a, &dir)
        };
        let _ = std::fs::remove_dir_all(&dir);
        r
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Generate the inputs and open a session.
fn setup(a: &Args, dir: &Path, bind: Bind) -> Result<(Inputs, Session), String> {
    let inp = Inputs::generate(dir, a.seed, a.workload.needs())?;
    let s = open_session(a.workload, &inp, a.seed, bind)?;
    Ok((inp, s))
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Print one line per statement kind: count and percentiles, raw and
/// at reference speed.
fn breakdown(res: &LoopResult) {
    for kind in Kind::ALL {
        for (label, h) in [
            ("raw", &res.raw[kind.idx()]),
            ("ref", &res.at_ref[kind.idx()]),
        ] {
            if h.is_empty() {
                continue;
            }
            println!(
                "# {:<8} {label} n={:<7} p50={:>10.2}us p90={:>10.2}us p99={:>10.2}us",
                kind.name(),
                h.len(),
                us(h.percentile(0.5)),
                us(h.percentile(0.9)),
                us(h.percentile(0.99)),
            );
        }
    }
}

fn untraced(a: &Args, dir: &Path) -> Result<String, String> {
    let w = a.workload;
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (r, secs) = timed_at_ref(|| setup(a, dir, Bind::Readval));
        last = Some(r?);
        times.push(secs);
    }
    let (inp, mut s) = last.expect("SETUP_REPS > 0");
    let mut stream = Stream::new(w, a.seed, &inp.dir, "f");
    let t0 = Instant::now();
    let res = closed_loop(
        w,
        &mut s,
        &mut stream,
        &inp,
        Stop::new(a.seconds, MIN_SAMPLES),
    );
    let wall = t0.elapsed().as_secs_f64();

    let timed = &res.at_ref[w.timed_kind().idx()];
    let busy_ref: f64 = res.at_ref.iter().map(Hist::total).sum();
    println!(
        "# workload={} seed={} wall={wall:.2}s requests={} failed={}",
        w.name(),
        a.seed,
        res.attempted,
        res.failed
    );
    println!("# setup_s reps (reference speed): {times:.4?}");
    breakdown(&res);
    println!(
        "# timed kind={} n={} tail=p{}",
        w.timed_kind().name(),
        timed.len(),
        TAIL_Q * 100.0
    );
    let metrics = vec![
        metric("setup_s", median(&times), "s"),
        metric(
            "stmts_per_ref_s",
            res.attempted as f64 / (busy_ref / 1e9),
            "1/s",
        ),
        metric("p50_ref_us", us(timed.percentile(0.5)), "us"),
        metric("tail_ref_us", us(timed.percentile(TAIL_Q)), "us"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric(
            "ok_ratio",
            (res.attempted - res.failed) as f64 / res.attempted as f64,
            "ratio",
        ),
    ];
    Ok(result_line(res.attempted, res.failed, &metrics))
}

fn traced(a: &Args, dir: &Path) -> Result<String, String> {
    let w = a.workload;
    let (inp, mut s) = setup(a, dir, Bind::Readval)?;
    let (_, traced_session) = setup(a, &dir.join("traced"), Bind::Traced)?;
    let mut rep = Replayer::new(traced_session);
    let mut untraced = Stream::new(w, a.seed, &inp.dir, "f");
    let mut replayed = Stream::new(w, a.seed, &inp.dir, "g");
    let stop = Stop::new(a.seconds, 1);
    let (base, layers) = traced_loop(
        w,
        &mut s,
        &mut rep,
        &mut untraced,
        &mut replayed,
        &inp,
        stop,
    );
    drop((rep, s));

    let span_file = PathBuf::from(OUT_DIR).join(format!("spans-{}-{}.jsonl", w.name(), a.seed));
    perfbench::spans::write_jsonl(&span_file, &layers.kept)
        .map_err(|e| format!("{}: {e}", span_file.display()))?;
    println!(
        "# workload={} seed={} requests={} (each run untraced and traced) failed={} spans={} ({})",
        w.name(),
        a.seed,
        base.attempted,
        base.failed + layers.failed,
        layers.kept.len(),
        span_file.display()
    );
    for (name, ns) in &layers.self_ns {
        println!(
            "# span {name:<20} calls={:<8} self={:>12.1}us total",
            layers.calls_of(name),
            us(*ns as f64)
        );
    }
    let attempted = base.attempted + layers.stmts;
    let failed = base.failed + layers.failed;
    Ok(result_line(attempted, failed, &per_layer(&base, &layers)))
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn per_layer(base: &LoopResult, l: &Layers) -> Vec<Metric> {
    let n = l.stmts as f64;
    let per = |ns: u64| ratio(us(ns as f64), n);
    let c = &l.counts;
    let cache = c.eval.cache;
    let loads = l.calls_of("store.load");
    let reads = l.calls_of("netcdf.hyperslab") + l.calls_of("format.chunk_read");
    let files = l.files.len() as f64;
    let file_sum = |f: fn(&perfbench::workload::FileFacts) -> u64| -> f64 {
        l.files.iter().map(f).sum::<u64>() as f64
    };
    let user_bytes = file_sum(|f| f.user_bytes);
    // Both sides ran the same requests, alternately.
    let untraced_ns: f64 = base.raw.iter().map(Hist::total).sum();
    vec![
        metric("lang.lex_us", per(l.self_of("lang.lex")), "us/stmt"),
        metric("lang.parse_us", per(l.self_of("lang.parse")), "us/stmt"),
        metric("lang.desugar_us", per(l.self_of("lang.desugar")), "us/stmt"),
        metric("lang.resolve_us", per(l.self_of("lang.resolve")), "us/stmt"),
        metric("lang.tokens", ratio(c.tokens as f64, n), "count/stmt"),
        metric(
            "core.typecheck_us",
            per(l.self_of("core.typecheck")),
            "us/stmt",
        ),
        metric("opt.optimize_us", per(l.self_of("opt.optimize")), "us/stmt"),
        metric(
            "opt.rule_fires",
            ratio(c.rule_fires as f64, n),
            "count/stmt",
        ),
        metric(
            "opt.term_nodes_in",
            ratio(c.nodes_in as f64, n),
            "count/stmt",
        ),
        metric(
            "opt.term_nodes_out",
            ratio(c.nodes_out as f64, n),
            "count/stmt",
        ),
        metric("core.compile_us", per(l.self_of("core.compile")), "us/stmt"),
        metric("core.bounds_us", per(l.self_of("core.bounds")), "us/stmt"),
        metric(
            "core.bounds_elided_sites",
            ratio(c.elided_sites as f64, n),
            "count/stmt",
        ),
        metric("core.eval_self_us", per(l.self_of("core.eval")), "us/stmt"),
        metric(
            "core.eval_steps",
            ratio(c.eval.steps as f64, n),
            "count/stmt",
        ),
        metric(
            "core.eval_subscripts",
            ratio(c.eval.subscripts as f64, n),
            "count/stmt",
        ),
        metric(
            "core.eval_elided",
            ratio(c.eval.elided as f64, n),
            "count/stmt",
        ),
        metric(
            "core.eval_materialized",
            ratio(c.eval.materialized as f64, n),
            "count/stmt",
        ),
        metric(
            "core.eval_ns_per_step",
            ratio(l.self_of("core.eval") as f64, c.eval.steps as f64),
            "ns/step",
        ),
        metric("core.print_us", per(l.self_of("core.print")), "us/stmt"),
        metric(
            "store.read_slab_us",
            per(l.self_of("store.read_slab")),
            "us/stmt",
        ),
        metric(
            "store.cache_hits",
            ratio(cache.hits as f64, n),
            "count/stmt",
        ),
        metric(
            "store.cache_misses",
            ratio(cache.misses as f64, n),
            "count/stmt",
        ),
        metric(
            "store.cache_hit_ratio",
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
            "ratio",
        ),
        metric(
            "store.cache_evictions",
            ratio(cache.evictions as f64, n),
            "count/stmt",
        ),
        metric(
            "store.bytes_read",
            ratio(cache.bytes_read as f64, n),
            "bytes/stmt",
        ),
        metric(
            "store.load_us",
            ratio(us(l.dur_of("store.load") as f64), loads as f64),
            "us/miss",
        ),
        metric(
            "store.load_share",
            ratio(l.dur_of("store.load") as f64, l.wall_ns as f64),
            "ratio",
        ),
        metric(
            "store.retries",
            ratio(reads.saturating_sub(loads) as f64, n),
            "count/stmt",
        ),
        metric(
            "store.load_errors",
            ratio(cache.load_errors as f64, n),
            "count/stmt",
        ),
        metric("store.governor_peak_bytes", l.governor_peak as f64, "bytes"),
        metric(
            "netcdf.hyperslab_us",
            ratio(
                us(l.dur_of("netcdf.hyperslab") as f64),
                l.calls_of("netcdf.hyperslab") as f64,
            ),
            "us/read",
        ),
        metric(
            "netcdf.hyperslab_reads",
            ratio(l.calls_of("netcdf.hyperslab") as f64, n),
            "count/stmt",
        ),
        metric(
            "format.chunk_write_us",
            ratio(
                us(l.dur_of("format.chunk_write") as f64),
                l.calls_of("format.chunk_write") as f64,
            ),
            "us/chunk",
        ),
        metric(
            "format.chunks_by_codec.raw",
            ratio(file_sum(|f| f.codecs[0]), files),
            "count/file",
        ),
        metric(
            "format.chunks_by_codec.bitpack",
            ratio(file_sum(|f| f.codecs[1]), files),
            "count/file",
        ),
        metric(
            "format.chunks_by_codec.frame_of_ref",
            ratio(file_sum(|f| f.codecs[2]), files),
            "count/file",
        ),
        metric(
            "format.encoded_bytes_per_raw_byte",
            ratio(file_sum(|f| f.encoded_bytes), user_bytes),
            "ratio",
        ),
        metric(
            "format.stored_bytes_per_user_byte",
            ratio(file_sum(|f| f.file_bytes), user_bytes),
            "ratio",
        ),
        metric(
            "format.write_mb_s",
            ratio(user_bytes / 1e6, l.write_ns as f64 / 1e9),
            "MB/s",
        ),
        metric(
            "format.chunk_read_us",
            ratio(
                us(l.dur_of("format.chunk_read") as f64),
                l.calls_of("format.chunk_read") as f64,
            ),
            "us/chunk",
        ),
        metric(
            "bench.trace_overhead_ratio",
            ratio(l.wall_ns as f64, untraced_ns),
            "ratio",
        ),
        metric(
            "bench.layer_coverage",
            ratio(l.layer_ns as f64, untraced_ns),
            "ratio",
        ),
    ]
}
