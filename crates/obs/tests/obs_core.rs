//! Histogram/registry core coverage: concurrent-writer counter accuracy,
//! quantile error bounds against a sorted-vector oracle (proptest),
//! ring-buffer wraparound, and snapshot consistency under concurrent
//! updates.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use spitz_obs::{Registry, TelemetryHandle};

#[test]
fn concurrent_writers_lose_no_counter_increments() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;
    let telemetry = TelemetryHandle::new();
    let counter = telemetry.counter("t.concurrent");
    let gauge = telemetry.gauge("t.balance");
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let counter = Arc::clone(&counter);
            let gauge = Arc::clone(&gauge);
            scope.spawn(move || {
                for _ in 0..PER_THREAD {
                    counter.inc();
                    gauge.add(2);
                    gauge.sub(1);
                }
            });
        }
    });
    assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
    assert_eq!(gauge.get(), (THREADS as u64 * PER_THREAD) as i64);
}

#[test]
fn concurrent_histogram_recording_loses_no_observations() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;
    let hist = TelemetryHandle::new().histogram("t.hist");
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let hist = Arc::clone(&hist);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    hist.record(t * PER_THREAD + i);
                }
            });
        }
    });
    assert_eq!(hist.count(), THREADS as u64 * PER_THREAD);
}

/// Oracle check: the histogram's quantile must be the upper edge of the
/// bucket holding the exact rank-order statistic, so for a true quantile
/// `q ≥ 1` the estimate `e` satisfies `q ≤ e ≤ 2q - 1`; a true quantile
/// of 0 must be estimated as exactly 0.
fn assert_quantile_bounds(values: &[u64], q: f64) {
    let hist = Registry::new().histogram("oracle");
    for &v in values {
        hist.record(v);
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let rank = ((q * n).ceil() as usize).clamp(1, sorted.len());
    let oracle = sorted[rank - 1];
    let est = hist.quantile(q).expect("non-empty");
    if oracle == 0 {
        assert_eq!(est, 0, "q={q}: zero quantile must be exact");
    } else {
        assert!(est >= oracle, "q={q}: estimate {est} below oracle {oracle}");
        assert!(
            est <= oracle.saturating_mul(2).saturating_sub(1),
            "q={q}: estimate {est} above 2x bound for oracle {oracle}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantile_estimates_stay_within_2x_of_the_oracle(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..300),
        q_bp in 100u32..10_000,
    ) {
        assert_quantile_bounds(&values, q_bp as f64 / 10_000.0);
        for fixed in [0.5, 0.95, 0.99] {
            assert_quantile_bounds(&values, fixed);
        }
    }

    #[test]
    fn histogram_sum_and_count_match_inputs(
        values in proptest::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let hist = Registry::new().histogram("sums");
        for &v in &values {
            hist.record(v);
        }
        prop_assert_eq!(hist.count(), values.len() as u64);
        prop_assert_eq!(hist.sum(), values.iter().sum::<u64>());
    }
}

#[test]
fn event_ring_wraparound_retains_newest_events() {
    let telemetry = TelemetryHandle::new();
    let total = spitz_obs::DEFAULT_EVENT_CAPACITY as u64 + 10;
    for i in 0..total {
        telemetry.event("wrap", format!("event-{i}"));
    }
    let snap = telemetry.snapshot();
    assert_eq!(snap.events.len(), spitz_obs::DEFAULT_EVENT_CAPACITY);
    assert_eq!(snap.dropped_events, 10);
    assert_eq!(snap.events.first().unwrap().message, "event-10");
    assert_eq!(
        snap.events.last().unwrap().message,
        format!("event-{}", total - 1)
    );
    // seq is monotone and contiguous across the retained window.
    for pair in snap.events.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1);
    }
}

#[test]
fn snapshots_stay_internally_consistent_under_concurrent_updates() {
    let telemetry = TelemetryHandle::new();
    let hist = telemetry.histogram("t.snap");
    let counter = telemetry.counter("t.snap.count");
    let stop = Arc::new(AtomicBool::new(false));

    /// Stops the writers when the scope body ends, also when an assert in
    /// it unwinds: the scope joins its threads before it re-raises the
    /// panic, so without this a failed assert would hang the test.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    std::thread::scope(|scope| {
        let _stop_writers = StopOnDrop(&stop);
        for t in 0..4u64 {
            let hist = Arc::clone(&hist);
            let counter = Arc::clone(&counter);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    hist.record((t + 1) * 1000 + i % 100);
                    counter.inc();
                    i += 1;
                }
            });
        }
        for _ in 0..200 {
            let snap = telemetry.snapshot();
            let h = snap.histogram("t.snap").expect("registered");
            // Quantiles are answered from one capture: they must be
            // monotone, and p99 must sit in a bucket a real observation
            // could occupy (all observations are < 8192).
            assert!(h.p50 <= h.p95 && h.p95 <= h.p99);
            if h.count > 0 {
                assert!(h.p99 < 8192, "p99 {} outside observed range", h.p99);
                assert!(h.p50 >= 1000, "p50 {} below observed range", h.p50);
            }
            // The JSON rendering never emits NaN even mid-update.
            assert!(!snap.render_json().contains("NaN"));
        }
    });

    // After writers stop, a final snapshot agrees with the live counter.
    let final_snap = telemetry.snapshot();
    assert_eq!(
        final_snap.counter("t.snap.count"),
        Some(counter.get()),
        "quiesced snapshot must match the live instrument"
    );
    assert_eq!(final_snap.histogram("t.snap").unwrap().count, hist.count());
}
