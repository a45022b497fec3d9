//! Percentiles and the result line.

/// A latency histogram of fixed size (so recording does not grow the
/// resident set): log buckets 0.1% wide from 100 ns to ~1000 s, each
/// with its count and sum, so a percentile reads as the mean of the
/// samples in its bucket.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u32>,
    sums: Vec<f64>,
    n: u64,
    total: f64,
}

const HIST_MIN: f64 = 100.0;
const HIST_BUCKETS: usize = 23_100;

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; HIST_BUCKETS],
            sums: vec![0.0; HIST_BUCKETS],
            n: 0,
            total: 0.0,
        }
    }
}

impl Hist {
    /// Record `v` (nanoseconds).
    pub fn add(&mut self, v: f64) {
        let b = ((v.max(HIST_MIN) / HIST_MIN).ln() / 1.001f64.ln()) as usize;
        let b = b.min(HIST_BUCKETS - 1);
        self.counts[b] += 1;
        self.sums[b] += v;
        self.n += 1;
        self.total += v;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sum of the samples.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Nearest-rank percentile `q` (0 < q ≤ 1); 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        let mut seen = 0u64;
        for (c, s) in self.counts.iter().zip(&self.sums) {
            seen += u64::from(*c);
            if *c > 0 && seen >= rank {
                return s / f64::from(*c);
            }
        }
        0.0
    }
}

/// Median of `xs` (non-empty), averaging the middle pair.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// `Metric` constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut h = Hist::default();
        for v in 1..=100 {
            h.add(v as f64 * 1000.0);
        }
        assert_eq!(h.percentile(0.5), 50_000.0);
        assert_eq!(h.percentile(0.99), 99_000.0);
        assert_eq!(h.percentile(1.0), 100_000.0);
        assert_eq!(h.len(), 100);
        let mut one = Hist::default();
        one.add(7e3);
        assert_eq!(one.percentile(0.99), 7e3);
        assert_eq!(Hist::default().percentile(0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(3, 0, &[metric("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
