//! `verified_read`: a read-only closed loop over a durable `SpitzDb`
//! whose live POS-tree (about 840 KB for 20k records) is four times its
//! 192 KiB chunk cache, so lookups go past the cache to the segment files.
//!
//! One reader issues 80 % `get_verified`, 10 % `get_multi_verified` of 16
//! adjacent keys and 10 % `range_verified` over 100 adjacent keys (0.5 %
//! of the data), uniform over the keys; every result passes through the
//! `Verifier` and is compared with the preloaded value: a refused proof
//! counts as failed, a verified wrong value makes the run incorrect.
//! Proof build, storage reads past the cache and client-side hashing do
//! the work; the write path does none.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use spitz_core::{SpitzDb, Verifier};
use spitz_crypto::Hash;
use spitz_index::SiriKind;
use spitz_ledger::Digest;
use spitz_obs::TelemetrySnapshot;
use spitz_storage::{DurableConfig, StoreStats};

use crate::common::{check, cpu_seconds, ctx, deadline, timed, Phase, Result, Sampler};
use crate::driver::{Measured, Workload};
use crate::gen::{self, Rng};
use crate::ingest::{open, open_with, preload};
use crate::layers::Probe;
use crate::stats::ratio;
use crate::Args;

const PRELOAD: usize = 20_000;
const CACHE_BYTES: usize = 192 << 10;
const MULTI_KEYS: usize = 16;
const RANGE_KEYS: usize = 100;
/// The op mix: shares of `get_verified`, 16-key and range reads.
const MIX: &[(&str, f64)] = &[
    ("get_verified", 0.8),
    ("batch16_verified", 0.1),
    ("range_verified", 0.1),
];

/// The small-cache storage tuning every read runs under.
fn small_cache() -> DurableConfig {
    DurableConfig {
        cache_capacity_bytes: CACHE_BYTES,
        ..DurableConfig::default()
    }
}

/// The workload: its data set, and the resident bytes per record of the
/// first preload (later set-ups reuse the memory earlier ones freed).
pub struct VerifiedRead {
    records: Vec<(Vec<u8>, Vec<u8>)>,
    /// `records` in key order.
    sorted: Vec<(Vec<u8>, Vec<u8>)>,
    preload_rss: OnceCell<f64>,
}

impl VerifiedRead {
    pub fn new(seed: u64) -> VerifiedRead {
        let records = gen::records(seed, PRELOAD);
        let mut sorted = records.clone();
        sorted.sort();
        VerifiedRead {
            records,
            sorted,
            preload_rss: OnceCell::new(),
        }
    }

    fn read_loop(&self, db: &SpitzDb, args: &Args) -> Result<Measured> {
        let mut verifier = Verifier::new();
        check(verifier.observe_digest(db.digest()), "pin the digest")?;
        let expected: HashMap<&[u8], &[u8]> = self
            .records
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        let sorted = &self.sorted;
        let n = sorted.len() as u64;
        let mut rng = Rng::new(args.seed, 200);
        let mut m = Measured {
            phase: Phase::new(args, MIX),
            ..Measured::default()
        };
        let phase = &mut m.phase;
        let cpu0 = cpu_seconds()?;
        let mut sampler = Sampler::start()?;
        let until = deadline(args.seconds);
        loop {
            let now = Instant::now();
            if sampler.due() || now >= until {
                sampler.record(phase.attempted - phase.failed, 0)?;
            }
            if now >= until {
                break;
            }
            let roll = rng.below(10);
            let op_started = Instant::now();
            // Whether the proof verified, and whether the values were the
            // preloaded ones.
            let (verified, right) = match roll {
                0..=7 => {
                    let (key, value) = &sorted[rng.below(n) as usize];
                    let got = phase
                        .spans
                        .time("core.get_verified", || db.get_verified(key));
                    let (got, proof) = got.map_err(ctx("get_verified"))?;
                    let verified = phase.spans.time("core.verify", || {
                        verifier.verify_read(key, got.as_deref(), &proof)
                    });
                    phase.lat.record("get_verified", op_started);
                    (verified, got.as_ref() == Some(value))
                }
                8 => {
                    let at = rng.below(n - MULTI_KEYS as u64) as usize;
                    let keys: Vec<Vec<u8>> = sorted[at..at + MULTI_KEYS]
                        .iter()
                        .map(|(k, _)| k.clone())
                        .collect();
                    let got = phase
                        .spans
                        .time("core.multi_verified", || db.get_multi_verified(&keys));
                    let (values, proof) = got.map_err(ctx("get_multi_verified"))?;
                    let items: Vec<(Vec<u8>, Option<Vec<u8>>)> =
                        keys.iter().cloned().zip(values.iter().cloned()).collect();
                    let verified = phase.spans.time("core.verify", || {
                        proof.verify(&items) && verifier.observe_digest(proof.digest)
                    });
                    phase.lat.record("batch16_verified", op_started);
                    let right = items
                        .iter()
                        .all(|(k, v)| v.as_deref() == expected.get(k.as_slice()).copied());
                    (verified, right)
                }
                _ => {
                    let at = rng.below(n - RANGE_KEYS as u64) as usize;
                    let want = &sorted[at..at + RANGE_KEYS];
                    let (start, end) = (&want[0].0, &sorted[at + RANGE_KEYS].0);
                    let got = phase
                        .spans
                        .time("core.range_verified", || db.range_verified(start, end));
                    let (entries, proof) = got.map_err(ctx("range_verified"))?;
                    let verified = phase
                        .spans
                        .time("core.verify", || verifier.verify_range(&entries, &proof));
                    phase.lat.record("range_verified", op_started);
                    (verified, entries.as_slice() == want)
                }
            };
            phase.attempted += 1;
            if !verified {
                phase.failed += 1;
            } else if !right {
                m.wrong += 1;
            }
        }
        phase.sampled(&sampler, false)?;
        phase.cpu_s = cpu_seconds()? - cpu0;
        Ok(m)
    }
}

/// After the run: nothing was written and the chain audits clean.
fn check_unchanged(db: &SpitzDb, digest_before: Digest) -> Result<()> {
    check(
        db.digest() == digest_before,
        "a read-only run leaves the digest unchanged",
    )?;
    check(
        db.ledger().audit_chain().is_none(),
        "ledger chain audits clean",
    )
}

impl Workload for VerifiedRead {
    type Db = SpitzDb;
    type Digest = Digest;
    const LABEL: &'static str = "verified-read";
    const OP_QUANTILES: &'static [(&'static str, &'static str, f64)] = &[
        ("get_verified", "get_verified_p50_us", 0.50),
        ("get_verified", "get_verified_p99_us", 0.99),
        ("batch16_verified", "batch16_verified_p50_us", 0.50),
        ("range_verified", "range_verified_p50_us", 0.50),
    ];

    /// Preload with the default cache, then reopen with the small one.
    fn setup(&self, dir: &Path, traced: bool) -> Result<(SpitzDb, Option<Probe>)> {
        let (db, mut probe) = open(dir, traced)?;
        let rss_per_record = preload(&db, &self.records, probe.as_mut())?;
        let _ = self.preload_rss.set(rss_per_record);
        let digest = db.digest();
        drop(db);
        // Close the store before reopening its directory, keeping the
        // preload's useful-chunk totals.
        let totals = probe.map(|p| p.commit_totals());
        let (db, mut probe) = open_with(dir, traced, small_cache())?;
        check(
            db.digest() == digest,
            "reopened digest equals the preloaded digest",
        )?;
        if let (Some(probe), Some(totals)) = (probe.as_mut(), totals) {
            probe.set_commit_totals(totals);
        }
        Ok((db, probe))
    }

    fn digest(&self, db: &SpitzDb) -> Digest {
        db.digest()
    }

    /// The read loop. Its write figures are the preload's, as the loop
    /// writes nothing.
    fn measure(&self, db: &mut SpitzDb, args: &Args) -> Result<Measured> {
        let digest = db.digest();
        let mut m = self.read_loop(db, args)?;
        check_unchanged(db, digest)?;
        m.phase.rss_per_write = *self.preload_rss.get().expect("set up before measuring");
        m.write_amp = ratio(
            db.storage_stats().disk_bytes as f64,
            gen::user_bytes(&self.records) as f64,
        );
        Ok(m)
    }

    fn finish(
        &self,
        mut db: SpitzDb,
        dir: &Path,
        reopens: usize,
        _: &Measured,
        _: &Args,
    ) -> Result<(Vec<f64>, u64)> {
        let digest = db.digest();
        let mut times = Vec::new();
        for _ in 0..reopens {
            drop(db);
            let ((next, _), reopen_s) = timed(|| open_with(dir, false, small_cache()))?;
            check_unchanged(&next, digest)?;
            times.push(reopen_s);
            db = next;
        }
        Ok((times, db.digest().block_count()))
    }

    fn counters(&self, db: &SpitzDb) -> (TelemetrySnapshot, Vec<StoreStats>) {
        (db.telemetry(), vec![db.storage_stats()])
    }

    fn index_roots(&self, db: &SpitzDb) -> (SiriKind, Vec<Hash>) {
        (db.ledger().kind(), vec![db.digest().index_root])
    }
}
