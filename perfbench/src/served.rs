//! `served_mixed`: a closed loop over one TCP connection to a
//! `SpitzServer` in front of a durable 4-shard `ShardedDb` (`PRELOAD`
//! records, which fit the 16 MiB per-shard chunk caches).
//!
//! The client waits for every verified reply, as a distrusting caller
//! does, and checks each one against a pinned cross-shard digest with the
//! same `Verifier` calls a `LightClient` makes: 75 % point gets, 10 %
//! 16-key batch gets, 5 % 20-key ranges and 10 % 4-key `put_batch`es with
//! one key on each shard (so every write runs two-phase commit). Reads
//! are Zipf-skewed; writes update existing keys and advance the pin, so no
//! read is refused as stale. Frame codec, transport, proof cache, shard
//! routing, 2PC and client verification work only here.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use spitz_core::{shard_for, ShardedConfig, ShardedDb, ShardedDigest, SpitzConfig, Verifier};
use spitz_crypto::Hash;
use spitz_index::SiriKind;
use spitz_ledger::DurabilityPolicy;
use spitz_obs::{TelemetryHandle, TelemetrySnapshot};
use spitz_server::{ServerConfig, SpitzClient, SpitzServer};
use spitz_storage::{ChunkStore, DurableChunkStore, DurableConfig, StoreStats};

use crate::common::{check, cpu_seconds, ctx, deadline, timed, Phase, Result, Sampler};
use crate::driver::{Measured, Workload};
use crate::gen::{self, Rng, Zipf};
use crate::layers::Probe;
use crate::stats::ratio;
use crate::Args;

const PRELOAD: usize = 20_000;
const PRELOAD_BATCH: usize = 1_000;
const SHARDS: usize = 4;
const BATCH_KEYS: usize = 16;
const RANGE_KEYS: usize = 20;
const ZIPF_THETA: f64 = 0.99;
/// The op mix: shares of verified point gets, 16-key batch gets, ranges
/// and 4-key writes.
const MIX: &[(&str, f64)] = &[
    ("get_verified", 0.75),
    ("batch16_verified", 0.10),
    ("range_verified", 0.05),
    ("put_batch4", 0.10),
];

fn spitz_config(traced: bool) -> SpitzConfig {
    SpitzConfig::default()
        .with_durability(DurabilityPolicy::grouped_default())
        .with_telemetry(traced)
}

fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}"))
}

/// Open the deployment; traced opens put a counting store under each shard.
fn open(dir: &Path, traced: bool) -> Result<(ShardedDb, Option<Probe>)> {
    if !traced {
        let config = ShardedConfig::default()
            .with_shards(SHARDS)
            .with_spitz(spitz_config(false))
            .with_durable(DurableConfig::default());
        return Ok((ShardedDb::open(dir, config).map_err(ctx("open"))?, None));
    }
    let telemetry = TelemetryHandle::new();
    let mut stores: Vec<Arc<dyn ChunkStore>> = Vec::new();
    for shard in 0..SHARDS {
        let store = DurableChunkStore::open_with_telemetry(
            shard_dir(dir, shard),
            DurableConfig::default(),
            telemetry.clone(),
        )
        .map_err(ctx("open store"))?;
        stores.push(Arc::new(store));
    }
    let probe = Probe::new(stores, telemetry);
    let db = ShardedDb::with_stores(probe.dyn_stores(), spitz_config(true)).map_err(ctx("open"))?;
    Ok((db, Some(probe)))
}

fn shard_stats(db: &ShardedDb) -> Vec<StoreStats> {
    (0..db.shard_count())
        .map(|i| db.shard(i).storage_stats())
        .collect()
}

fn disk_bytes(db: &ShardedDb) -> u64 {
    shard_stats(db).iter().map(|s| s.disk_bytes).sum()
}

/// The client's model of the data and its seeded access pattern.
struct Model {
    /// Keys in order, for ranges.
    sorted: Vec<Vec<u8>>,
    /// Current value of every key.
    values: HashMap<Vec<u8>, Vec<u8>>,
    /// Popularity rank → index into `sorted`.
    by_rank: Vec<usize>,
    zipf: Zipf,
    /// Per shard: its keys' indexes into `sorted`, most popular first.
    shard_ranked: Vec<Vec<usize>>,
    shard_zipf: Vec<Zipf>,
}

impl Model {
    fn new(seed: u64, records: &[(Vec<u8>, Vec<u8>)]) -> Model {
        let mut sorted: Vec<Vec<u8>> = records.iter().map(|(k, _)| k.clone()).collect();
        sorted.sort();
        let mut by_rank: Vec<usize> = (0..sorted.len()).collect();
        let mut rng = Rng::new(seed, 300);
        for i in (1..by_rank.len()).rev() {
            by_rank.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut shard_ranked = vec![Vec::new(); SHARDS];
        for &i in &by_rank {
            shard_ranked[shard_for(&sorted[i], SHARDS)].push(i);
        }
        let shard_zipf = shard_ranked
            .iter()
            .map(|keys| Zipf::new(keys.len(), ZIPF_THETA))
            .collect();
        Model {
            zipf: Zipf::new(sorted.len(), ZIPF_THETA),
            values: records.iter().cloned().collect(),
            sorted,
            by_rank,
            shard_ranked,
            shard_zipf,
        }
    }

    fn popular(&self, rng: &mut Rng) -> usize {
        self.by_rank[self.zipf.sample(rng)]
    }

    fn expected(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.values.get(key).cloned()
    }
}

/// A running deployment: the database behind a server, and one connected
/// client holding its pin. Dropping it closes the connection, drains the
/// server and then closes the database, in field order.
pub struct Deployment {
    client: SpitzClient,
    server: SpitzServer,
    verifier: Verifier,
    db: Arc<ShardedDb>,
}

impl Deployment {
    fn start(db: ShardedDb) -> Result<Deployment> {
        let db = Arc::new(db);
        let server = SpitzServer::start(Arc::clone(&db), ServerConfig::default())
            .map_err(ctx("start server"))?;
        let mut client = SpitzClient::connect(server.local_addr()).map_err(ctx("connect"))?;
        let mut verifier = Verifier::new();
        let digest = client.digest().map_err(ctx("digest"))?;
        check(verifier.observe_sharded(&digest), "pin the served digest")?;
        Ok(Deployment {
            client,
            server,
            verifier,
            db,
        })
    }

    /// Close the connection, drain the server and hand the database back.
    fn stop(self) -> Result<(ShardedDb, Verifier)> {
        let Deployment {
            client,
            mut server,
            verifier,
            db,
        } = self;
        drop(client);
        server.shutdown();
        drop(server);
        let db = Arc::try_unwrap(db).map_err(|_| "server still holds the database".to_string())?;
        Ok((db, verifier))
    }
}

/// What the measured loop produced: its figures, and the byte counts the
/// write amplification and bytes per op are derived from.
struct Run {
    measured: Measured,
    user_bytes: u64,
    response_bytes: u64,
}

fn client_loop(dep: &mut Deployment, model: &mut Model, args: &Args) -> Result<Run> {
    let mut rng = Rng::new(args.seed, 400);
    let mut m = Measured {
        phase: Phase::new(args, MIX),
        ..Measured::default()
    };
    let mut user_bytes = 0;
    let bytes0 = dep.client.bytes_received();
    let cpu0 = cpu_seconds()?;
    let mut sampler = Sampler::start()?;
    let until = deadline(args.seconds);
    let n = model.sorted.len();
    loop {
        let now = Instant::now();
        if sampler.due() || now >= until {
            sampler.record(m.phase.attempted - m.phase.failed, m.records_written)?;
        }
        if now >= until {
            break;
        }
        let roll = rng.below(100);
        let op_started = Instant::now();
        let spans = &mut m.phase.spans;
        let client = &mut dep.client;
        let verifier = &mut dep.verifier;
        // `Some(correct)` when the reply verified; `None` when it failed or
        // was refused.
        let (op, verified): (&'static str, Option<bool>) = match roll {
            0..=74 => {
                let key = model.sorted[model.popular(&mut rng)].clone();
                let reply = spans.time("server.roundtrip", || client.get_verified(&key));
                let verified = reply.ok().and_then(|(value, proof)| {
                    spans
                        .time("core.verify", || {
                            verifier.verify_sharded_read(&key, value.as_deref(), &proof)
                        })
                        .then(|| value == model.expected(&key))
                });
                ("get_verified", verified)
            }
            75..=84 => {
                let mut keys: Vec<Vec<u8>> = Vec::with_capacity(BATCH_KEYS);
                while keys.len() < BATCH_KEYS {
                    let key = &model.sorted[model.popular(&mut rng)];
                    if !keys.contains(key) {
                        keys.push(key.clone());
                    }
                }
                let reply = spans.time("server.roundtrip", || client.get_verified_batch(&keys));
                let verified = reply.ok().and_then(|(values, proof)| {
                    let items: Vec<(Vec<u8>, Option<Vec<u8>>)> =
                        keys.into_iter().zip(values).collect();
                    spans
                        .time("core.verify", || {
                            verifier.verify_sharded_multi(&items, &proof)
                        })
                        .then(|| items.iter().all(|(k, v)| *v == model.expected(k)))
                });
                ("batch16_verified", verified)
            }
            85..=89 => {
                let at = model.popular(&mut rng).min(n - RANGE_KEYS - 1);
                let (start, end) = (
                    model.sorted[at].clone(),
                    model.sorted[at + RANGE_KEYS].clone(),
                );
                let reply = spans.time("server.roundtrip", || client.range_verified(&start, &end));
                let verified = reply.ok().and_then(|(entries, proof)| {
                    spans
                        .time("core.verify", || {
                            verifier.verify_sharded_range(&entries, &proof)
                        })
                        .then(|| {
                            entries.len() == RANGE_KEYS
                                && entries
                                    .iter()
                                    .zip(&model.sorted[at..])
                                    .all(|((k, v), want)| {
                                        k == want && Some(v) == model.values.get(k)
                                    })
                        })
                });
                ("range_verified", verified)
            }
            _ => {
                let writes: Vec<(Vec<u8>, Vec<u8>)> = (0..SHARDS)
                    .map(|s| {
                        let key = &model.sorted
                            [model.shard_ranked[s][model.shard_zipf[s].sample(&mut rng)]];
                        (key.clone(), gen::value(&mut rng))
                    })
                    .collect();
                let reply = spans.time("server.roundtrip", || client.put_batch(&writes));
                // A refused digest counts as failed; the server committed
                // either way, so the model follows.
                let verified = reply.ok().and_then(|digest: ShardedDigest| {
                    m.records_written += writes.len() as u64;
                    m.write_calls += 1;
                    user_bytes += gen::user_bytes(&writes);
                    model.values.extend(writes);
                    spans
                        .time("core.verify", || verifier.observe_sharded(&digest))
                        .then_some(true)
                });
                ("put_batch4", verified)
            }
        };
        m.phase.lat.record(op, op_started);
        m.phase.attempted += 1;
        match verified {
            None => m.phase.failed += 1,
            Some(false) => m.wrong += 1,
            Some(true) => {}
        }
    }
    m.phase.sampled(&sampler, true)?;
    m.phase.cpu_s = cpu_seconds()? - cpu0;
    Ok(Run {
        measured: m,
        user_bytes,
        response_bytes: dep.client.bytes_received() - bytes0,
    })
}

/// Stop serving, flush, and check the final cross-shard digest: it is
/// internally consistent, equals the client's pin, and every shard's chain
/// audits clean.
fn stop_checked(dep: Deployment) -> Result<(ShardedDb, ShardedDigest)> {
    let (db, verifier) = dep.stop()?;
    let digest = db.flush().map_err(ctx("flush"))?;
    check(digest.verify(), "final cross-shard digest verifies")?;
    check(
        verifier.pinned_sharded_root() == Some(digest.root),
        "the client's pin is the final digest",
    )?;
    for i in 0..db.shard_count() {
        check(
            db.shard(i).ledger().audit_chain().is_none(),
            "shard chain audits clean",
        )?;
    }
    Ok((db, digest))
}

/// The workload: its preloaded records.
pub struct ServedMixed {
    records: Vec<(Vec<u8>, Vec<u8>)>,
}

impl ServedMixed {
    pub fn new(seed: u64) -> ServedMixed {
        ServedMixed {
            records: gen::records(seed, PRELOAD),
        }
    }
}

impl Workload for ServedMixed {
    type Db = Deployment;
    type Digest = ShardedDigest;
    const LABEL: &'static str = "served";
    const OP_QUANTILES: &'static [(&'static str, &'static str, f64)] = &[
        ("get_verified", "get_verified_p50_us", 0.50),
        ("get_verified", "get_verified_p99_us", 0.99),
        ("batch16_verified", "batch16_verified_p50_us", 0.50),
        ("range_verified", "range_verified_p50_us", 0.50),
        ("put_batch4", "put_batch4_p50_us", 0.50),
    ];

    /// Open, preload (measuring each preload commit when a probe is
    /// present), flush, and start serving.
    fn setup(&self, dir: &Path, traced: bool) -> Result<(Deployment, Option<Probe>)> {
        let (db, mut probe) = open(dir, traced)?;
        for batch in self.records.chunks(PRELOAD_BATCH) {
            if let Some(p) = probe.as_mut() {
                p.begin_commit();
            }
            db.put_batch(batch.to_vec())
                .map_err(ctx("preload put_batch"))?;
            if let Some(p) = probe.as_mut() {
                let (kind, roots) = index_roots(&db);
                p.end_commit(kind, &roots);
            }
        }
        db.flush().map_err(ctx("preload flush"))?;
        Ok((Deployment::start(db)?, probe))
    }

    fn digest(&self, dep: &Deployment) -> ShardedDigest {
        dep.db.digest()
    }

    /// The client loop against a fresh model of the data, then a flush so
    /// the storage growth is complete.
    fn measure(&self, dep: &mut Deployment, args: &Args) -> Result<Measured> {
        let disk0 = disk_bytes(&dep.db);
        let run = client_loop(dep, &mut Model::new(args.seed, &self.records), args)?;
        dep.db.flush().map_err(ctx("flush"))?;
        let mut m = run.measured;
        let ops = (m.phase.attempted - m.phase.failed) as f64;
        m.write_amp = ratio((disk_bytes(&dep.db) - disk0) as f64, run.user_bytes as f64);
        m.layers = vec![("wire_bytes_per_op", ratio(run.response_bytes as f64, ops))];
        Ok(m)
    }

    fn finish(
        &self,
        dep: Deployment,
        dir: &Path,
        reopens: usize,
        _: &Measured,
        _: &Args,
    ) -> Result<(Vec<f64>, u64)> {
        let (mut db, digest) = stop_checked(dep)?;
        let mut times = Vec::new();
        for _ in 0..reopens {
            drop(db);
            let ((next, _), reopen_s) = timed(|| open(dir, false))?;
            check(
                next.digest() == digest,
                "reopened digest equals the final digest",
            )?;
            times.push(reopen_s);
            db = next;
        }
        let blocks = (0..db.shard_count())
            .map(|i| db.shard(i).digest().block_count())
            .sum();
        Ok((times, blocks))
    }

    fn counters(&self, dep: &Deployment) -> (TelemetrySnapshot, Vec<StoreStats>) {
        (dep.db.telemetry(), shard_stats(&dep.db))
    }

    fn index_roots(&self, dep: &Deployment) -> (SiriKind, Vec<Hash>) {
        index_roots(&dep.db)
    }
}

/// The index kind and each shard's index root.
fn index_roots(db: &ShardedDb) -> (SiriKind, Vec<Hash>) {
    let roots = (0..db.shard_count())
        .map(|i| db.shard(i).digest().index_root)
        .collect();
    (db.shard(0).ledger().kind(), roots)
}
