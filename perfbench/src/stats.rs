//! Summary statistics, counter deltas and the result line.

use spitz_obs::TelemetrySnapshot;
use spitz_storage::StoreStats;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of `candidates` (percentiles, e.g. `99.0`) that leaves at
/// least ten of `n` samples beyond it, so a tail is never read off a
/// handful of outliers.
pub fn highest_supported_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Median of a non-empty list (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Field-wise growth of the monotone store counters between two snapshots.
pub fn store_delta(before: StoreStats, after: StoreStats) -> StoreStats {
    StoreStats {
        chunk_count: after.chunk_count.saturating_sub(before.chunk_count),
        physical_bytes: after.physical_bytes.saturating_sub(before.physical_bytes),
        logical_bytes: after.logical_bytes.saturating_sub(before.logical_bytes),
        dedup_hits: after.dedup_hits.saturating_sub(before.dedup_hits),
        reads: after.reads.saturating_sub(before.reads),
        disk_bytes: after.disk_bytes.saturating_sub(before.disk_bytes),
        live_bytes: after.live_bytes,
    }
}

/// Counter and histogram growth between two telemetry snapshots of one
/// registry. Instruments missing from a snapshot count as zero.
pub struct TelemetryDelta<'a> {
    pub before: &'a TelemetrySnapshot,
    pub after: &'a TelemetrySnapshot,
}

impl TelemetryDelta<'_> {
    pub fn counter(&self, name: &str) -> f64 {
        let at = |s: &TelemetrySnapshot| s.counter(name).unwrap_or(0);
        at(self.after).saturating_sub(at(self.before)) as f64
    }

    /// `(observations, sum)` recorded in between.
    pub fn histogram(&self, name: &str) -> (f64, f64) {
        let at = |s: &TelemetrySnapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
        let (c0, s0) = at(self.before);
        let (c1, s1) = at(self.after);
        (c1.saturating_sub(c0) as f64, s1.wrapping_sub(s0) as f64)
    }

    /// Mean observation recorded in between, or 0.
    pub fn mean(&self, name: &str) -> f64 {
        let (count, sum) = self.histogram(name);
        ratio(sum, count)
    }

    /// `hits / (hits + misses)` over two counters, or 0.
    pub fn hit_ratio(&self, hits: &str, misses: &str) -> f64 {
        let h = self.counter(hits);
        ratio(h, h + self.counter(misses))
    }
}

/// Metric names: a letter or digit first, then at most 63 more of
/// `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Every end-to-end metric, with its unit: each workload reports all of
/// them in a `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p95_us", "us"),
    ("reopen_s", "s"),
    ("write_amp", "B/B"),
    ("rss_bytes_per_write", "B"),
];

/// The end-to-end metrics of one `--trace 0` run.
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_s: f64,
    pub op_p50_us: f64,
    pub op_p95_us: f64,
    pub reopen_s: f64,
    pub write_amp: f64,
    pub rss_bytes_per_write: f64,
}

impl EndToEnd {
    /// The metrics in [`END_TO_END`] order.
    pub fn metrics(&self) -> Vec<Metric> {
        let values = [
            self.setup_s,
            self.ops_s,
            self.op_p50_us,
            self.op_p95_us,
            self.reopen_s,
            self.write_amp,
            self.rss_bytes_per_write,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run prints as its last line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether the metrics are exactly `expected`, in order, with their units.
    pub fn reports_exactly(&self, expected: &[(&str, &str)]) -> bool {
        self.metrics.len() == expected.len()
            && self
                .metrics
                .iter()
                .zip(expected)
                .all(|(m, &(name, unit))| m.name == name && m.unit == unit)
    }

    /// The JSON result line. Panics on a malformed or non-finite metric:
    /// that is a bug in this benchmark, not a measurement.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(valid_metric_name(m.name), "bad metric name {:?}", m.name);
                assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spitz_obs::TelemetryHandle;

    #[test]
    fn percentile_selection_keeps_ten_samples_beyond() {
        let candidates = [50.0, 90.0, 95.0, 99.0, 99.9];
        assert_eq!(
            highest_supported_percentile(10_000, &candidates),
            Some(99.9)
        );
        assert_eq!(highest_supported_percentile(9_999, &candidates), Some(99.0));
        assert_eq!(highest_supported_percentile(1_000, &candidates), Some(99.0));
        assert_eq!(highest_supported_percentile(999, &candidates), Some(95.0));
        assert_eq!(highest_supported_percentile(200, &candidates), Some(95.0));
        assert_eq!(highest_supported_percentile(100, &candidates), Some(90.0));
        assert_eq!(highest_supported_percentile(19, &candidates), None);
    }

    #[test]
    fn quantiles_and_medians() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.5), 50);
        assert_eq!(quantile(&sorted, 0.99), 99);
        assert_eq!(quantile(&sorted, 1.0), 100);
        assert_eq!(quantile(&sorted, 0.0), 1);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn ratios_and_deltas() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);

        let before = StoreStats {
            chunk_count: 10,
            disk_bytes: 1000,
            reads: 5,
            live_bytes: 0,
            ..StoreStats::default()
        };
        let after = StoreStats {
            chunk_count: 25,
            disk_bytes: 4000,
            reads: 9,
            live_bytes: 700,
            ..StoreStats::default()
        };
        let d = store_delta(before, after);
        assert_eq!((d.chunk_count, d.disk_bytes, d.reads), (15, 3000, 4));
        assert_eq!(d.live_bytes, 700);

        let telemetry = TelemetryHandle::new();
        let hits = telemetry.counter("cache.hits");
        let misses = telemetry.counter("cache.misses");
        let lat = telemetry.histogram("op.nanos");
        hits.add(5);
        lat.record(100);
        let s0 = telemetry.snapshot();
        hits.add(6);
        misses.add(2);
        lat.record(200);
        lat.record(400);
        let s1 = telemetry.snapshot();
        let delta = TelemetryDelta {
            before: &s0,
            after: &s1,
        };
        assert_eq!(delta.counter("cache.hits"), 6.0);
        assert_eq!(delta.counter("absent"), 0.0);
        assert_eq!(delta.histogram("op.nanos"), (2.0, 600.0));
        assert_eq!(delta.mean("op.nanos"), 300.0);
        assert_eq!(delta.mean("absent"), 0.0);
        assert_eq!(delta.hit_ratio("cache.hits", "cache.misses"), 0.75);
    }

    #[test]
    fn metric_names_are_validated() {
        for good in [
            "ops_s",
            "setup_s",
            "storage.cache_hit_ratio",
            "p-99",
            "9lives",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_json() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "latency_ms",
                    value: 1.25,
                    unit: "ms",
                },
                Metric {
                    name: "setup_s",
                    value: 2.0,
                    unit: "s",
                },
            ],
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
