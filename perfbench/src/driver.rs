//! The driver every workload shares. A workload supplies set-up, the
//! measured loop and its final checks; the driver owns the repeated
//! set-ups and reopens, the untraced reference and traced phases of a
//! `--trace 1` run, and the assembly of the reported metrics.

use std::path::Path;

use spitz_crypto::Hash;
use spitz_index::SiriKind;
use spitz_obs::TelemetrySnapshot;
use spitz_storage::StoreStats;

use crate::common::{check, timed, work_dir, Phase, Result};
use crate::layers::{Layers, Probe};
use crate::stats::{median, EndToEnd, Outcome};
use crate::Args;

/// Set-ups of a `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Reopens after a `--trace 0` run; `reopen_s` is their median.
const REOPENS: usize = 3;

/// What one measured loop produced.
#[derive(Default)]
pub struct Measured {
    pub phase: Phase,
    /// Replies that verified but carried a value other than the expected
    /// one. Any makes the run incorrect.
    pub wrong: u64,
    /// Records written, and the write calls that carried them.
    pub records_written: u64,
    pub write_calls: u64,
    /// Storage bytes grown over the user key+value bytes written.
    pub write_amp: f64,
    /// Per-layer figures only this workload has. The traced run reports
    /// those of its untraced phase.
    pub layers: Vec<(&'static str, f64)>,
}

/// One workload: what differs between them.
pub trait Workload {
    /// A set-up database (or deployment) ready for the measured loop.
    type Db;
    /// What the digest-equality checks compare.
    type Digest: PartialEq;
    /// Prefix of the workload's scratch directories.
    const LABEL: &'static str;
    /// `(op, metric, quantile)`: the op-type latencies the traced run
    /// reports from its untraced phase.
    const OP_QUANTILES: &'static [(&'static str, &'static str, f64)];

    /// Open and preload a fresh database in `dir`; traced set-ups go
    /// through a counting store and return its probe.
    fn setup(&self, dir: &Path, traced: bool) -> Result<(Self::Db, Option<Probe>)>;

    fn digest(&self, db: &Self::Db) -> Self::Digest;

    /// Run the measured loop for `args.seconds`.
    fn measure(&self, db: &mut Self::Db, args: &Args) -> Result<Measured>;

    /// Run the final checks, then drop and reopen `dir` `reopens` times,
    /// checking each reopened digest. Returns the reopen times and the
    /// ledger height the last reopen replayed.
    fn finish(
        &self,
        db: Self::Db,
        dir: &Path,
        reopens: usize,
        measured: &Measured,
        args: &Args,
    ) -> Result<(Vec<f64>, u64)>;

    /// The database telemetry and per-shard store statistics.
    fn counters(&self, db: &Self::Db) -> (TelemetrySnapshot, Vec<StoreStats>);

    /// The index kind and each shard's index root.
    fn index_roots(&self, db: &Self::Db) -> (SiriKind, Vec<Hash>);
}

/// Run `workload` as `args` asks.
pub fn run<W: Workload>(workload: &W, args: &Args) -> Result<Outcome> {
    if args.trace {
        return run_traced(workload, args);
    }
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        // Each set-up starts from nothing: drop the previous one first.
        drop(kept.take());
        let dir = work_dir(&format!("{}-{i}", W::LABEL))?;
        let ((db, _), setup_s) = timed(|| workload.setup(&dir, false))?;
        setups.push(setup_s);
        kept = Some((db, dir));
    }
    let (mut db, dir) = kept.expect("at least one set-up");
    let m = workload.measure(&mut db, args)?;
    let (reopens, _) = workload.finish(db, &dir, REOPENS, &m, args)?;

    let lat = &m.phase.lat;
    Ok(Outcome {
        correct: m.wrong == 0,
        attempted: m.phase.attempted,
        failed: m.phase.failed,
        metrics: EndToEnd {
            setup_s: median(&setups),
            ops_s: m.phase.median_ops_s,
            op_p50_us: lat.quantile_us(None, 0.50)?,
            op_p95_us: lat.interval_quantile_us(0.95)?,
            reopen_s: median(&reopens),
            write_amp: m.write_amp,
            rss_bytes_per_write: m.phase.rss_per_write,
        }
        .metrics(),
    })
}

/// The traced run: an untraced reference phase, then the same workload on
/// counting stores with telemetry and spans on.
fn run_traced<W: Workload>(workload: &W, args: &Args) -> Result<Outcome> {
    let (untraced, args) = &args.traced_phases();
    let dir = work_dir(&format!("{}-ref", W::LABEL))?;
    let (mut db, _) = workload.setup(&dir, false)?;
    let plain_digest = workload.digest(&db);
    let reference = workload.measure(&mut db, untraced)?;
    workload.finish(db, &dir, 1, &reference, untraced)?;

    let dir = work_dir(&format!("{}-traced", W::LABEL))?;
    let (mut db, probe) = workload.setup(&dir, true)?;
    let probe = probe.expect("traced set-up has a probe");
    check(
        workload.digest(&db) == plain_digest,
        "the counting store ends on the unwrapped digest",
    )?;
    let snapshot = |db: &W::Db| {
        let (telemetry, stats) = workload.counters(db);
        probe.snapshot(telemetry, &stats)
    };
    let before = snapshot(&db);
    let traced = workload.measure(&mut db, args)?;
    let after = snapshot(&db);
    let (kind, roots) = workload.index_roots(&db);
    let live_index = probe.live_index_bytes(kind, &roots)?;
    let mut layers = Layers::new(
        &before,
        &after,
        &probe,
        &traced.phase,
        &reference.phase,
        traced.records_written as f64,
        traced.write_calls as f64,
    );
    // The counting stores must close before their directories are reopened.
    drop(probe);
    let (_, blocks) = workload.finish(db, &dir, 1, &traced, args)?;

    layers.set("ledger.blocks_replayed", blocks as f64);
    layers.set("index.live_bytes", live_index);
    for &(name, value) in &reference.layers {
        layers.set(name, value);
    }
    for &(op, name, q) in W::OP_QUANTILES {
        layers.set(name, reference.phase.lat.quantile_us(Some(op), q)?);
    }
    Ok(Outcome {
        correct: reference.wrong + traced.wrong == 0,
        attempted: reference.phase.attempted + traced.phase.attempted,
        failed: reference.phase.failed + traced.phase.failed,
        metrics: layers.metrics(),
    })
}
