//! `ingest`: a write-only closed loop over a durable `SpitzDb`.
//!
//! Two writer threads issue single-key `put`s over uniform keys, about half
//! inserts and half updates, against 20k preloaded records. Every step of
//! the write path works here (MVCC and cell writes in the control layer,
//! group commit, ledger append, POS-tree insert, segment append and
//! fsync); proofs and the server do none.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use spitz_core::{SpitzConfig, SpitzDb, Verifier};
use spitz_crypto::Hash;
use spitz_index::SiriKind;
use spitz_ledger::{Digest, DurabilityPolicy};
use spitz_obs::{TelemetryHandle, TelemetrySnapshot};
use spitz_storage::{DurableChunkStore, DurableConfig, StoreStats};

use crate::common::{
    check, cpu_seconds, ctx, deadline, rss_bytes, slope, timed, Phase, Result, Sampler,
};
use crate::driver::{Measured, Workload};
use crate::gen::{self, Rng};
use crate::layers::Probe;
use crate::stats::{ratio, store_delta};
use crate::Args;

const PRELOAD: usize = 20_000;
const PRELOAD_BATCH: usize = 1_000;
const WRITERS: usize = 2;
const READ_BACK: usize = 2_000;

fn config(traced: bool) -> SpitzConfig {
    SpitzConfig::default()
        .with_durability(DurabilityPolicy::grouped_default())
        .with_telemetry(traced)
}

/// Open the database; traced opens go through the counting store.
pub fn open(dir: &Path, traced: bool) -> Result<(SpitzDb, Option<Probe>)> {
    open_with(dir, traced, DurableConfig::default())
}

/// [`open`] with explicit storage tuning.
pub fn open_with(
    dir: &Path,
    traced: bool,
    durable: DurableConfig,
) -> Result<(SpitzDb, Option<Probe>)> {
    if !traced {
        let db = SpitzDb::open_with_configs(dir, config(false), durable).map_err(ctx("open"))?;
        return Ok((db, None));
    }
    let telemetry = TelemetryHandle::new();
    let store = DurableChunkStore::open_with_telemetry(dir, durable, telemetry.clone())
        .map_err(ctx("open store"))?;
    let probe = Probe::new(vec![Arc::new(store)], telemetry);
    let db =
        SpitzDb::with_store(probe.dyn_stores().remove(0), config(true)).map_err(ctx("open"))?;
    Ok((db, Some(probe)))
}

/// Load `records` in `PRELOAD_BATCH`-record `put_batch` blocks and flush.
/// With a probe, measure each block's useful index-chunk share. Returns
/// the resident bytes the load added per record (least-squares slope).
pub fn preload(
    db: &SpitzDb,
    records: &[(Vec<u8>, Vec<u8>)],
    mut probe: Option<&mut Probe>,
) -> Result<f64> {
    let mut rss = vec![(0.0, rss_bytes()?)];
    for (i, batch) in records.chunks(PRELOAD_BATCH).enumerate() {
        if let Some(p) = probe.as_deref_mut() {
            p.begin_commit();
        }
        db.put_batch(batch.to_vec())
            .map_err(ctx("preload put_batch"))?;
        if let Some(p) = probe.as_deref_mut() {
            p.end_commit(db.ledger().kind(), &[db.digest().index_root]);
        }
        rss.push((
            ((i + 1) * PRELOAD_BATCH).min(records.len()) as f64,
            rss_bytes()?,
        ));
    }
    db.flush().map_err(ctx("preload flush"))?;
    slope(&rss).ok_or_else(|| "nothing preloaded".to_string())
}

/// What writers produced: the measured phase, the last acknowledged value
/// of every tracked key written, and the user bytes committed.
struct Run {
    phase: Phase,
    last: HashMap<Vec<u8>, Vec<u8>>,
    user_bytes: u64,
}

/// Writers remember the last value of one key in `TRACK_ONE_IN` only:
/// enough keys for the read-back gate, without growing the process (and
/// `rss_bytes_per_write`) by a map entry per write.
const TRACK_ONE_IN: u64 = 32;

fn tracked(key: &[u8]) -> bool {
    let hash = key
        .iter()
        .fold(0u64, |h, &b| h.wrapping_mul(31).wrapping_add(u64::from(b)));
    hash % TRACK_ONE_IN == 0
}

/// One writer's closed loop. Writer `t` inserts the next key of its own
/// fixed stream (tagged `A + t`) or updates a preloaded key whose index is
/// `t` modulo the writer count, so every key has one writer and its last
/// value is known.
fn write_loop(
    db: &SpitzDb,
    t: usize,
    args: &Args,
    preloaded: &[(Vec<u8>, Vec<u8>)],
    done: &AtomicU64,
    mut out: Run,
    until: Instant,
) -> Run {
    let mut rng = Rng::new(args.seed, 100 + t as u64);
    let mut fresh_keys = gen::key_stream(100 + t as u64);
    let owned = (preloaded.len() - t).div_ceil(WRITERS) as u64;
    while Instant::now() < until {
        let key = if rng.below(2) == 0 {
            gen::key(&mut fresh_keys, b'A' + t as u8)
        } else {
            preloaded[rng.below(owned) as usize * WRITERS + t].0.clone()
        };
        let value = gen::value(&mut rng);
        let started = Instant::now();
        let result = out.phase.spans.time("core.put", || db.put(&key, &value));
        out.phase.lat.record("put", started);
        out.phase.attempted += 1;
        match result {
            Ok(_) => {
                done.fetch_add(1, Ordering::Relaxed);
                out.user_bytes += (key.len() + value.len()) as u64;
                if tracked(&key) {
                    out.last.insert(key, value);
                }
            }
            Err(_) => out.phase.failed += 1,
        }
    }
    out
}

fn run_writers(db: &SpitzDb, args: &Args, preloaded: &[(Vec<u8>, Vec<u8>)]) -> Result<Run> {
    let barrier = Barrier::new(WRITERS + 1);
    let done = AtomicU64::new(0);
    let cpu0 = cpu_seconds()?;
    let (writers, sampler) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|t| {
                let (barrier, done) = (&barrier, &done);
                s.spawn(move || {
                    let out = Run {
                        phase: Phase::new(args, &[("put", 1.0 / WRITERS as f64)]),
                        last: HashMap::new(),
                        user_bytes: 0,
                    };
                    barrier.wait();
                    write_loop(db, t, args, preloaded, done, out, deadline(args.seconds))
                })
            })
            .collect();
        barrier.wait();
        // The main thread samples while the writers run.
        let sampled = Sampler::watch(&done, args.seconds);
        let writers: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (writers, sampled)
    });
    let mut run = Run {
        phase: Phase {
            cpu_s: cpu_seconds()? - cpu0,
            ..Phase::new(args, &[])
        },
        last: HashMap::new(),
        user_bytes: 0,
    };
    run.phase.sampled(&sampler?, true)?;
    for w in writers {
        let w = w.map_err(|_| "writer thread panicked".to_string())?;
        run.phase.fold(w.phase);
        run.last.extend(w.last);
        run.user_bytes += w.user_bytes;
    }
    Ok(run)
}

/// Read back a seeded sample of tracked keys, written or only preloaded,
/// through `get_verified`, checking values and proofs.
fn read_back(
    db: &SpitzDb,
    args: &Args,
    preloaded: &[(Vec<u8>, Vec<u8>)],
    last: &HashMap<Vec<u8>, Vec<u8>>,
) -> Result<()> {
    let mut verifier = Verifier::new();
    check(verifier.observe_digest(db.digest()), "pin reopened digest")?;
    let mut written: Vec<(&Vec<u8>, &Vec<u8>)> = last.iter().collect();
    written.sort();
    let preloaded: Vec<_> = preloaded.iter().filter(|(k, _)| tracked(k)).collect();
    check(!preloaded.is_empty(), "some preloaded keys are tracked")?;
    let mut rng = Rng::new(args.seed, 7);
    for i in 0..READ_BACK {
        let (key, expected) = if i % 2 == 0 && !written.is_empty() {
            written[rng.below(written.len() as u64) as usize]
        } else {
            let (k, v) = preloaded[rng.below(preloaded.len() as u64) as usize];
            (k, last.get(k).unwrap_or(v))
        };
        let (value, proof) = db.get_verified(key).map_err(ctx("read back"))?;
        check(
            verifier.verify_read(key, value.as_deref(), &proof),
            "read-back proof verifies",
        )?;
        check(
            value.as_ref() == Some(expected),
            "read-back value matches the last acknowledged write",
        )?;
    }
    Ok(())
}

/// Flush, audit, drop, reopen (timed) and check the reopened state.
fn close_and_reopen(db: SpitzDb, dir: &Path) -> Result<(SpitzDb, f64)> {
    db.flush().map_err(ctx("flush"))?;
    let digest = db.digest();
    check(
        db.ledger().audit_chain().is_none(),
        "ledger chain audits clean",
    )?;
    drop(db);
    let ((db, _), reopen_s) = timed(|| open(dir, false))?;
    check(
        db.digest() == digest,
        "reopened digest equals the pre-drop digest",
    )?;
    check(
        db.ledger().audit_chain().is_none(),
        "reopened chain audits clean",
    )?;
    Ok((db, reopen_s))
}

/// The workload: its preloaded records.
pub struct Ingest {
    preloaded: Vec<(Vec<u8>, Vec<u8>)>,
}

impl Ingest {
    pub fn new(seed: u64) -> Ingest {
        Ingest {
            preloaded: gen::records(seed, PRELOAD),
        }
    }
}

/// The database under test and the last acknowledged value of every
/// tracked key written to it.
pub struct Written {
    db: SpitzDb,
    last: HashMap<Vec<u8>, Vec<u8>>,
}

impl Workload for Ingest {
    type Db = Written;
    type Digest = Digest;
    const LABEL: &'static str = "ingest";
    const OP_QUANTILES: &'static [(&'static str, &'static str, f64)] =
        &[("put", "put_p50_us", 0.50), ("put", "put_p99_us", 0.99)];

    fn setup(&self, dir: &Path, traced: bool) -> Result<(Written, Option<Probe>)> {
        let (db, mut probe) = open(dir, traced)?;
        preload(&db, &self.preloaded, probe.as_mut())?;
        let last = HashMap::new();
        Ok((Written { db, last }, probe))
    }

    fn digest(&self, w: &Written) -> Digest {
        w.db.digest()
    }

    fn measure(&self, w: &mut Written, args: &Args) -> Result<Measured> {
        let db = &w.db;
        let versions = || db.processor().manager().store().version_count() as f64;
        let (stats0, versions0) = (db.storage_stats(), versions());
        let run = run_writers(db, args, &self.preloaded)?;
        db.flush().map_err(ctx("flush"))?;
        let grown = store_delta(stats0, db.storage_stats());
        let writes = run.phase.attempted - run.phase.failed;
        let mvcc_per_put = ratio(versions() - versions0, writes as f64);
        w.last = run.last;
        Ok(Measured {
            phase: run.phase,
            wrong: 0,
            records_written: writes,
            write_calls: writes,
            write_amp: ratio(grown.disk_bytes as f64, run.user_bytes as f64),
            layers: vec![("core.mvcc_versions_per_put", mvcc_per_put)],
        })
    }

    /// Flush, audit, then reopen; read back a seeded sample of the keys.
    fn finish(
        &self,
        w: Written,
        dir: &Path,
        reopens: usize,
        _: &Measured,
        args: &Args,
    ) -> Result<(Vec<f64>, u64)> {
        let Written { mut db, last } = w;
        let mut times = Vec::new();
        for _ in 0..reopens {
            let (next, reopen_s) = close_and_reopen(db, dir)?;
            times.push(reopen_s);
            db = next;
        }
        read_back(&db, args, &self.preloaded, &last)?;
        Ok((times, db.digest().block_count()))
    }

    fn counters(&self, w: &Written) -> (TelemetrySnapshot, Vec<StoreStats>) {
        (w.db.telemetry(), vec![w.db.storage_stats()])
    }

    fn index_roots(&self, w: &Written) -> (SiriKind, Vec<Hash>) {
        (w.db.ledger().kind(), vec![w.db.digest().index_root])
    }
}
