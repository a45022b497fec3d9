//! [`QueryReport`]: the machine-readable account of a run, and its
//! JSON form.

use aql_core::eval::EvalStats;

#[cfg(doc)]
use super::Session;

/// A machine-readable account of the most recent [`Session::run`]:
/// per-statement evaluation statistics plus (when collected through
/// [`Session::profile`]) the full span/counter trace. Supersedes the
/// old single-`EvalStats` `last_stats`, which silently dropped every
/// statement but the final one in multi-statement input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryReport {
    /// One entry per executed statement, in program order. Cache
    /// counters are the statement-level delta of the store's global
    /// counters, so reader I/O and echo-forced loads are attributed
    /// to the statement that caused them.
    pub statements: Vec<EvalStats>,
    /// Per-statement resource attribution ledgers, parallel to
    /// `statements`: bytes and chunks by labeled source, per-phase wall
    /// time, and governor pressure (see `aql_journal::attr`). Rendered
    /// by the REPL's `\attr;`.
    pub attribution: Vec<aql_journal::attr::Ledger>,
    /// The span tree and counters collected while tracing was on
    /// (empty for an untraced run).
    pub trace: aql_trace::Trace,
    /// A flat snapshot of the **process-lifetime** metrics registry at
    /// report time ([`aql_metrics::snapshot`]): counters and gauges by
    /// series key, histograms as `_count`/`_sum`/`_p50`/`_p95`/`_p99`.
    /// Unlike `statements`, these are cumulative since process start —
    /// the report carries both the per-query and the fleet view.
    pub metrics: Vec<(String, u64)>,
}

impl QueryReport {
    /// Component-wise sum over all statements.
    pub fn total(&self) -> EvalStats {
        self.statements.iter().fold(EvalStats::default(), |a, s| a.merged(s))
    }

    /// The report as a JSON value.
    pub fn to_json_value(&self) -> aql_trace::json::Json {
        use aql_trace::json::Json;
        Json::Obj(vec![
            (
                "statements".to_string(),
                Json::Arr(self.statements.iter().map(stats_to_json).collect()),
            ),
            (
                "attribution".to_string(),
                Json::Arr(
                    self.attribution
                        .iter()
                        .map(aql_journal::attr::Ledger::to_json_value)
                        .collect(),
                ),
            ),
            ("trace".to_string(), self.trace.to_json_value()),
            (
                "metrics".to_string(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Serialize to compact JSON (embedded in `BENCH_*.json`).
    pub fn to_json(&self) -> String {
        self.to_json_value().write()
    }

    /// The report's span tree as Chrome trace-event JSON
    /// ([`aql_trace::Trace::to_chrome_json`]): loadable directly in
    /// Perfetto or `chrome://tracing`. The REPL's
    /// `\profile … > "file.json";` writes exactly this.
    pub fn to_chrome_json(&self) -> String {
        self.trace.to_chrome_json()
    }

    /// Rebuild a report serialized by [`QueryReport::to_json`].
    pub fn from_json(src: &str) -> Result<QueryReport, String> {
        let j = aql_trace::json::Json::parse(src)?;
        let statements = j
            .get("statements")
            .and_then(aql_trace::json::Json::as_arr)
            .ok_or("report: missing `statements` array")?
            .iter()
            .map(stats_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let trace = aql_trace::Trace::from_json_value(
            j.get("trace").ok_or("report: missing `trace`")?,
        )?;
        // `attribution` is optional: reports serialized before the
        // flight recorder existed stay parseable.
        let attribution = match j.get("attribution") {
            None => Vec::new(),
            Some(aql_trace::json::Json::Arr(ls)) => ls
                .iter()
                .map(aql_journal::attr::Ledger::from_json_value)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("report: `attribution` must be an array".to_string()),
        };
        // `metrics` is optional: reports serialized before the metrics
        // registry existed stay parseable.
        let metrics = match j.get("metrics") {
            None => Vec::new(),
            Some(aql_trace::json::Json::Obj(ms)) => ms
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("report: bad metric `{k}`"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("report: `metrics` must be an object".to_string()),
        };
        Ok(QueryReport { statements, attribution, trace, metrics })
    }

    /// The `\profile` rendering: the phase-timing tree followed by the
    /// evaluation and I/O totals. With `redact_timings` every duration
    /// renders as `_` (deterministic; used by golden tests).
    pub fn render_profile(&self, redact_timings: bool) -> String {
        let mut out = String::new();
        if !self.trace.is_empty() {
            out.push_str(&self.trace.render(redact_timings));
        }
        let t = self.total();
        out.push_str(&format!(
            "totals: steps={} subscripts={} elided={} materialized={} | cache: hits={} \
             misses={} evictions={} bytes_read={} prefetched={} load_errors={}\n",
            t.steps,
            t.subscripts,
            t.elided,
            t.materialized,
            t.cache.hits,
            t.cache.misses,
            t.cache.evictions,
            t.cache.bytes_read,
            t.cache.prefetched_bytes,
            t.cache.load_errors,
        ));
        if self.statements.len() > 1 {
            for (i, s) in self.statements.iter().enumerate() {
                out.push_str(&format!(
                    "  stmt {i}: steps={} subscripts={} materialized={} \
                     cache.bytes_read={}\n",
                    s.steps, s.subscripts, s.materialized, s.cache.bytes_read,
                ));
            }
        }
        out
    }
}

fn stats_to_json(s: &EvalStats) -> aql_trace::json::Json {
    use aql_trace::json::Json;
    let n = |v: u64| Json::Num(v as f64);
    Json::Obj(vec![
        ("steps".to_string(), n(s.steps)),
        ("subscripts".to_string(), n(s.subscripts)),
        ("elided".to_string(), n(s.elided)),
        ("materialized".to_string(), n(s.materialized)),
        ("cache".to_string(), cache_to_json(&s.cache)),
    ])
}

/// A statement's cache counters as JSON (`QueryReport` statements and
/// slow-log records share the layout).
pub(super) fn cache_to_json(c: &aql_store::CacheStats) -> aql_trace::json::Json {
    use aql_trace::json::Json;
    let n = |v: u64| Json::Num(v as f64);
    Json::Obj(vec![
        ("hits".to_string(), n(c.hits)),
        ("misses".to_string(), n(c.misses)),
        ("evictions".to_string(), n(c.evictions)),
        ("bytes_read".to_string(), n(c.bytes_read)),
        ("prefetched_bytes".to_string(), n(c.prefetched_bytes)),
        ("load_errors".to_string(), n(c.load_errors)),
    ])
}

fn stats_from_json(j: &aql_trace::json::Json) -> Result<EvalStats, String> {
    let field = |o: &aql_trace::json::Json, k: &str| {
        o.get(k)
            .and_then(aql_trace::json::Json::as_u64)
            .ok_or_else(|| format!("stats: bad or missing `{k}`"))
    };
    let cache = j.get("cache").ok_or("stats: missing `cache`")?;
    Ok(EvalStats {
        steps: field(j, "steps")?,
        subscripts: field(j, "subscripts")?,
        // Absent in pre-bounds-elision reports.
        elided: j.get("elided").and_then(aql_trace::json::Json::as_u64).unwrap_or(0),
        materialized: field(j, "materialized")?,
        cache: aql_store::CacheStats {
            hits: field(cache, "hits")?,
            misses: field(cache, "misses")?,
            evictions: field(cache, "evictions")?,
            bytes_read: field(cache, "bytes_read")?,
            // Absent in pre-prefetch-attribution reports.
            prefetched_bytes: cache
                .get("prefetched_bytes")
                .and_then(aql_trace::json::Json::as_u64)
                .unwrap_or(0),
            load_errors: field(cache, "load_errors")?,
        },
    })
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;

    #[test]
    fn query_report_round_trips_through_json() {
        let mut s = Session::new();
        let (_, report) = s.profile("[[ i * i | \\i < 10 ]][4];").unwrap();
        assert!(!report.metrics.is_empty(), "profile must snapshot the registry");
        let back = QueryReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert!(QueryReport::from_json("{\"statements\":[]}").is_err());
        // Pre-metrics reports (no `metrics` member) stay parseable.
        let legacy = QueryReport::default().to_json().replace(",\"metrics\":{}", "");
        assert!(!legacy.contains("metrics"));
        assert_eq!(QueryReport::from_json(&legacy).unwrap(), QueryReport::default());
    }

    #[test]
    fn slow_log_v1_records_remain_parseable() {
        use aql_trace::json::Json;
        // A canned v1 line: no `incident`, no `cache.prefetched_bytes`.
        // Consumers dispatch on schema_version and treat the v2 members
        // as absent-means-none — the same convention stats_from_json
        // applies to pre-v2 reports.
        let v1 = r#"{"schema_version":1,"seq":3,"stmt_hash":"00000000deadbeef",
            "kind":"query","slow":true,"sampled":false,"dur_ns":5,"phases":{},
            "eval":{"steps":1,"subscripts":0,"materialized":0},
            "cache":{"hits":2,"misses":1,"evictions":0,"bytes_read":64,"load_errors":0},
            "rule_fires":0,"error":false}"#;
        let rec = Json::parse(v1).expect("v1 lines stay valid JSON");
        assert_eq!(rec.get("schema_version").and_then(Json::as_u64), Some(1));
        assert!(rec.get("incident").is_none(), "absent in v1 ⇒ no dump");
        let stats = stats_from_json(&Json::Obj(vec![
            ("steps".to_string(), Json::Num(1.0)),
            ("subscripts".to_string(), Json::Num(0.0)),
            ("materialized".to_string(), Json::Num(0.0)),
            ("cache".to_string(), rec.get("cache").unwrap().clone()),
        ]))
        .expect("a v1 cache object parses");
        assert_eq!(stats.cache.bytes_read, 64);
        assert_eq!(stats.cache.prefetched_bytes, 0, "absent ⇒ zero");
    }
}
