//! Small helpers shared by every workload: the peak-RSS reader, order
//! statistics, histogram percentiles and the JSON result line.

use specfaas_sim::LogHistogram;

/// Peak resident set of this process in MiB, from `VmHWM` in
/// `/proc/self/status`. `None` where the file or the field is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// The `VmHWM:` field of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb)
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no values");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q` quantile (0..=1) of a latency histogram in milliseconds,
/// interpolated linearly by rank inside the bucket that holds it (the
/// Prometheus `histogram_quantile` rule) and clamped to the recorded
/// minimum and maximum. Unlike [`LogHistogram::quantile_ms`], which
/// answers with a bucket midpoint, the estimate moves continuously with
/// the sample, so two different samples rarely report the same value.
pub fn hist_quantile_ms(h: &LogHistogram, q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    let (Some(min), Some(max)) = (h.min(), h.max()) else {
        return 0.0;
    };
    let rank = q * h.count() as f64;
    let mut seen = 0u64;
    for (lo, hi, c) in h.nonzero_buckets() {
        if (seen + c) as f64 >= rank {
            let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
            let lo = lo.max(min) as f64;
            let hi = hi.min(max + 1) as f64;
            let us = (lo + frac * (hi - lo)).clamp(min as f64, max as f64);
            return us / 1_000.0;
        }
        seen += c;
    }
    max as f64 / 1_000.0
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// The ordered metric list of one run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The benchmark's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`. A non-finite value
/// cannot be written as JSON; it is written as 0 and the line reports
/// `correct: false`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let finite = metrics.0.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && finite,
        body.join(", ")
    )
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives (`1` becomes `1.0`).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_bounds() {
        let mut h = LogHistogram::new();
        for us in 1..=10_000u64 {
            h.record(us);
        }
        let p50 = hist_quantile_ms(&h, 0.5);
        let p99 = hist_quantile_ms(&h, 0.99);
        // Within the histogram's relative error of the exact ranks.
        assert!((p50 - 5.0).abs() / 5.0 < 0.01, "p50 {p50}");
        assert!((p99 - 9.9).abs() / 9.9 < 0.01, "p99 {p99}");
        assert!(p50 < p99);
        assert_eq!(hist_quantile_ms(&h, 0.0), 0.001);
        assert_eq!(hist_quantile_ms(&h, 1.0), 10.0);
        assert_eq!(hist_quantile_ms(&LogHistogram::new(), 0.5), 0.0);
        // A single sample is exact at every quantile.
        let mut one = LogHistogram::new();
        one.record(4_321);
        assert_eq!(hist_quantile_ms(&one, 0.5), 4.321);
    }

    #[test]
    fn histogram_quantiles_move_with_the_sample() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for us in 10_000..10_100u64 {
            a.record(us);
            b.record(us);
        }
        // One slow sample in another bucket shifts the median's rank.
        b.record(20_000);
        assert_eq!(
            a.quantile_ms(0.5),
            b.quantile_ms(0.5),
            "bucket midpoint unmoved"
        );
        assert_ne!(hist_quantile_ms(&a, 0.5), hist_quantile_ms(&b, 0.5));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms");
        m.push("count", 3.0, "count");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        specfaas_sim::trace::validate_json(&line).expect("valid JSON");
    }

    #[test]
    fn non_finite_values_fail_the_run() {
        let mut m = Metrics::default();
        m.push("x", f64::NAN, "ms");
        let line = result_line(true, 1, 0, &m);
        assert!(line.starts_with("{\"correct\": false"));
        specfaas_sim::trace::validate_json(&line).expect("valid JSON");
    }
}
