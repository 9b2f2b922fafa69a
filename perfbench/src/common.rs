//! Pieces every workload shares: scratch directories, latency samples,
//! benchmark-side spans and process counters.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::stats::{highest_supported_percentile, median, quantile};
use crate::Args;

/// Errors end the run without a result line.
pub type Result<T> = std::result::Result<T, String>;

/// Turn any displayable error into the run's error, with context.
pub fn ctx<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Fail the run unless `ok`.
pub fn check(ok: bool, what: &str) -> Result<()> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness check failed: {what}"))
    }
}

/// Root of this run's scratch databases: `perfbench/.work/<pid>` under the
/// current directory. Nothing under it is deleted before the run ends:
/// deleting fsynced segments issues discards that would slow the phases
/// still to be measured.
pub fn work_root() -> PathBuf {
    Path::new("perfbench")
        .join(".work")
        .join(std::process::id().to_string())
}

/// A fresh scratch directory for one database.
pub fn work_dir(label: &str) -> Result<PathBuf> {
    let path = work_root().join(label);
    std::fs::create_dir_all(&path).map_err(ctx("create work dir"))?;
    Ok(path)
}

/// Per-op-type latency samples: completion instant and nanoseconds.
#[derive(Default)]
pub struct Latencies(BTreeMap<&'static str, Vec<(Instant, u64)>>);

/// The op rate one loop's latency samples are reserved for (see
/// [`Latencies::reserved`]): more than twice the fastest loop's rate
/// (`verified_read`, about 18k ops/s on 2 vCPUs).
const RESERVED_OPS_PER_S: f64 = 40_000.0;

impl Latencies {
    /// Sample vectors for a loop of `seconds` whose op mix gives each op
    /// type `share` of the ops, written once up front so that recording a
    /// sample does not grow the process: the loop's resident-memory slope
    /// then counts the program's memory, not the benchmark's. A loop
    /// faster than [`RESERVED_OPS_PER_S`] grows them as it goes.
    pub fn reserved(seconds: u64, mix: &[(&'static str, f64)]) -> Latencies {
        let filler = (Instant::now(), u64::MAX);
        let mut lat = Latencies::default();
        for &(op, share) in mix {
            let n = (RESERVED_OPS_PER_S * share * seconds as f64).ceil() as usize;
            // `vec!` writes every element, so every page is resident.
            let mut samples = vec![filler; n];
            samples.clear();
            lat.0.insert(op, samples);
        }
        lat
    }

    pub fn record(&mut self, op: &'static str, started: Instant) {
        let done = Instant::now();
        let nanos = done.duration_since(started).as_nanos() as u64;
        self.0.entry(op).or_default().push((done, nanos));
    }

    pub fn merge(&mut self, other: Latencies) {
        for (op, samples) in other.0 {
            self.0.entry(op).or_default().extend(samples);
        }
    }

    fn of(&self, op: Option<&str>) -> Vec<(Instant, u64)> {
        match op {
            Some(op) => self.0.get(op).cloned().unwrap_or_default(),
            None => self.0.values().flatten().copied().collect(),
        }
    }

    /// The `q` quantile in microseconds of one op type (`None`: every op).
    /// Fails when fewer than ten samples lie beyond the quantile.
    pub fn quantile_us(&self, op: Option<&str>, q: f64) -> Result<f64> {
        let mut sorted: Vec<u64> = self.of(op).into_iter().map(|(_, n)| n).collect();
        sorted.sort_unstable();
        supports(sorted.len(), q)?;
        Ok(quantile(&sorted, q) as f64 / 1e3)
    }

    /// The median over [`Sampler::EVERY`] intervals of each interval's `q`
    /// quantile, in microseconds, over every op. Intervals with fewer than
    /// ten samples beyond the quantile are skipped; at least four must
    /// remain. A stall confined to a few intervals does not move it.
    pub fn interval_quantile_us(&self, q: f64) -> Result<f64> {
        let samples = self.of(None);
        let Some(first) = samples.iter().map(|&(done, _)| done).min() else {
            return Err("no latency samples".to_string());
        };
        let mut slots: BTreeMap<u128, Vec<u64>> = BTreeMap::new();
        for (done, nanos) in samples {
            let slot = done.duration_since(first).as_millis() / Sampler::EVERY.as_millis();
            slots.entry(slot).or_default().push(nanos);
        }
        let mut per_slot = Vec::new();
        for mut slot in slots.into_values() {
            if supports(slot.len(), q).is_ok() {
                slot.sort_unstable();
                per_slot.push(quantile(&slot, q) as f64 / 1e3);
            }
        }
        check(per_slot.len() >= 4, "four intervals with enough samples")?;
        Ok(median(&per_slot))
    }
}

/// Fail unless `n` samples leave ten beyond the `q` quantile.
fn supports(n: usize, q: f64) -> Result<()> {
    check(
        highest_supported_percentile(n, &[q * 100.0]).is_some(),
        &format!("{n} samples cannot support p{}", q * 100.0),
    )
}

/// Benchmark-side spans around calls into the program, aggregated per name
/// as (count, total nanoseconds). Inert unless tracing.
#[derive(Default)]
pub struct Spans {
    on: bool,
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            totals: BTreeMap::new(),
        }
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let started = Instant::now();
        let out = f();
        let entry = self.totals.entry(name).or_default();
        entry.0 += 1;
        entry.1 += started.elapsed().as_nanos() as u64;
        out
    }

    pub fn merge(&mut self, other: &Spans) {
        for (name, (count, nanos)) in &other.totals {
            let entry = self.totals.entry(name).or_default();
            entry.0 += count;
            entry.1 += nanos;
        }
    }

    /// Mean span in microseconds, 0 when never entered.
    pub fn mean_us(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |&(count, nanos)| nanos as f64 / count as f64 / 1e3)
    }
}

/// Periodic samples of a measured loop: completed ops, records written and
/// resident memory, every [`Sampler::EVERY`].
pub struct Sampler {
    started: Instant,
    next: Instant,
    /// `(seconds, ops, writes, rss bytes)`.
    points: Vec<(f64, f64, f64, f64)>,
}

impl Sampler {
    pub const EVERY: Duration = Duration::from_millis(250);

    pub fn start() -> Result<Sampler> {
        let now = Instant::now();
        let mut sampler = Sampler {
            started: now,
            next: now,
            points: Vec::new(),
        };
        sampler.record(0, 0)?;
        Ok(sampler)
    }

    /// Sample `done` (records written, one per op) for `seconds`.
    pub fn watch(done: &AtomicU64, seconds: u64) -> Result<Sampler> {
        let mut sampler = Sampler::start()?;
        let until = deadline(seconds);
        while Instant::now() < until {
            let wake = sampler.next.min(until);
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
            if sampler.due() || Instant::now() >= until {
                let n = done.load(Ordering::Relaxed);
                sampler.record(n, n)?;
            }
        }
        Ok(sampler)
    }

    /// Whether the next sample is due.
    pub fn due(&self) -> bool {
        Instant::now() >= self.next
    }

    /// Record the running totals of completed ops and records written.
    pub fn record(&mut self, ops: u64, writes: u64) -> Result<()> {
        let t = self.started.elapsed().as_secs_f64();
        self.points
            .push((t, ops as f64, writes as f64, rss_bytes()?));
        self.next += Self::EVERY;
        Ok(())
    }

    /// Median throughput over the sampling intervals: a stall or a burst
    /// in one interval does not move it.
    pub fn median_rate(&self) -> Result<f64> {
        let rates: Vec<f64> = self
            .points
            .windows(2)
            .filter(|w| w[1].0 > w[0].0)
            .map(|w| (w[1].1 - w[0].1) / (w[1].0 - w[0].0))
            .collect();
        check(rates.len() >= 4, "at least four sampling intervals")?;
        Ok(median(&rates))
    }

    /// Resident bytes per record written: the least-squares slope of the
    /// resident set size against the records written so far.
    pub fn rss_per_write(&self) -> Result<f64> {
        let xy: Vec<(f64, f64)> = self.points.iter().map(|p| (p.2, p.3)).collect();
        slope(&xy).ok_or_else(|| "no records written while sampling".to_string())
    }
}

/// Least-squares slope of `y` on `x`; `None` when `x` does not vary.
pub fn slope(points: &[(f64, f64)]) -> Option<f64> {
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    (sxx > 0.0).then(|| sxy / sxx)
}

/// What one measured closed-loop phase produced.
#[derive(Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    pub lat: Latencies,
    pub spans: Spans,
    pub cpu_s: f64,
    /// Median throughput over sampling intervals (see [`Sampler`]).
    pub median_ops_s: f64,
    /// Resident bytes per record written (see [`Sampler`]); 0 when the
    /// phase writes nothing.
    pub rss_per_write: f64,
}

impl Phase {
    /// An empty phase of a loop run as `args` asks, with the op mix `mix`
    /// (see [`Latencies::reserved`]).
    pub fn new(args: &Args, mix: &[(&'static str, f64)]) -> Phase {
        Phase {
            lat: Latencies::reserved(args.seconds, mix),
            spans: Spans::new(args.trace),
            ..Phase::default()
        }
    }

    /// Fill the sampled figures from `sampler`.
    pub fn sampled(&mut self, sampler: &Sampler, writes: bool) -> Result<()> {
        self.median_ops_s = sampler.median_rate()?;
        if writes {
            self.rss_per_write = sampler.rss_per_write()?;
        }
        Ok(())
    }

    pub fn fold(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.lat.merge(other.lat);
        self.spans.merge(&other.spans);
    }
}

/// Deadline of a phase that starts now.
pub fn deadline(seconds: u64) -> Instant {
    Instant::now() + Duration::from_secs(seconds)
}

/// Resident set size of this process.
pub fn rss_bytes() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(ctx("read status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0)
        .ok_or_else(|| "no VmRSS in /proc/self/status".to_string())
}

/// User plus system CPU time of this process, in seconds.
pub fn cpu_seconds() -> Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(ctx("read stat"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line, in clock ticks (100 per second).
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) / 100.0),
        _ => Err("malformed /proc/self/stat".to_string()),
    }
}

/// Time `f`, returning its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> Result<T>) -> Result<(T, f64)> {
    let started = Instant::now();
    let out = f()?;
    Ok((out, started.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_is_least_squares() {
        let line: Vec<(f64, f64)> = (0..10).map(|x| (x as f64, 3.0 * x as f64 + 7.0)).collect();
        assert!((slope(&line).unwrap() - 3.0).abs() < 1e-9);
        let steps = [(0.0, 0.0), (1.0, 0.0), (2.0, 10.0), (3.0, 10.0)];
        assert!((slope(&steps).unwrap() - 4.0).abs() < 1e-9);
        assert_eq!(slope(&[(1.0, 2.0), (1.0, 5.0)]), None);
    }

    #[test]
    fn interval_quantile_is_a_median_over_intervals() {
        let t0 = Instant::now();
        let mut lat = Latencies::default();
        let samples = lat.0.entry("op").or_default();
        // Five 250 ms intervals of 200 samples each; one interval stalls.
        for slot in 0..5u32 {
            for i in 0..200u64 {
                let done = t0 + Sampler::EVERY * slot + Duration::from_micros(i);
                let nanos = if slot == 2 { 1_000_000 } else { 1_000 + i };
                samples.push((done, nanos));
            }
        }
        // p95 of 1000..1200 by nearest rank is the 190th sample: 1189 ns.
        assert_eq!(lat.interval_quantile_us(0.95).unwrap(), 1.189);
        assert!(
            lat.interval_quantile_us(0.99).is_err(),
            "200 samples cannot support p99"
        );
        assert!(lat.quantile_us(None, 0.95).unwrap() > 1.189);
    }

    #[test]
    fn reserved_samples_record_without_growing() {
        let mut lat = Latencies::reserved(2, &[("a", 0.75), ("b", 0.25)]);
        assert_eq!(lat.0["a"].capacity(), 60_000);
        assert_eq!(lat.0["b"].capacity(), 20_000);
        let buffer = lat.0["a"].as_ptr();
        for _ in 0..60_000 {
            lat.record("a", Instant::now());
        }
        assert_eq!(lat.0["a"].as_ptr(), buffer, "recording reallocated");
        assert_eq!(lat.0["a"].len(), 60_000);
        assert!(lat.0["b"].is_empty());
    }

    #[test]
    fn median_rate_ignores_one_stalled_interval() {
        let mut s = Sampler {
            started: Instant::now(),
            next: Instant::now(),
            points: vec![],
        };
        for (i, ops) in [0, 100, 200, 300, 305, 405, 505].iter().enumerate() {
            s.points.push((i as f64 * 0.25, *ops as f64, 0.0, 0.0));
        }
        assert_eq!(s.median_rate().unwrap(), 400.0);
    }
}
