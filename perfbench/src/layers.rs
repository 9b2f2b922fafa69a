//! The per-layer metrics of a traced run. Layers carry the workspace crate
//! names: `core`, `txn`, `ledger`, `index`, `storage`, `server`, `obs`.
//!
//! Every traced run reports every name in [`PER_LAYER`]; a layer a workload
//! does not exercise reads 0 there. Numbers come from the program's public
//! counters (the databases' `telemetry()` and `storage_stats()`, the
//! storage engine's own telemetry registry), from the counting store, and
//! from benchmark-side spans around each public call.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use spitz_crypto::Hash;
use spitz_index::SiriKind;
use spitz_obs::{TelemetryHandle, TelemetrySnapshot};
use spitz_storage::{ChunkKind, ChunkStore, StoreStats};

use crate::common::Phase;
use crate::counting::{CountingStore, Counts, CALLER, COMMITTER};
use crate::stats::{ratio, store_delta, Metric, TelemetryDelta};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.mvcc_versions_per_put", "count"),
    ("storage.cell_puts_per_put", "count"),
    ("index.chunks_per_write", "count"),
    ("index.useful_chunk_ratio", "ratio"),
    ("ledger.append_us", "us"),
    ("ledger.group_size", "count"),
    ("ledger.syncs_per_put", "count"),
    ("storage.append_us", "us"),
    ("storage.fsync_us", "us"),
    ("storage.bytes_appended_per_put", "B"),
    ("storage.committer_put_share", "ratio"),
    ("storage.put_us", "us"),
    ("ledger.blocks_replayed", "count"),
    ("core.put_us", "us"),
    ("core.get_verified_us", "us"),
    ("core.multi_verified_us", "us"),
    ("core.range_verified_us", "us"),
    ("core.verify_us", "us"),
    ("index.proof_build_us", "us"),
    ("index.proof_bytes", "B"),
    ("index.multi_proof_bytes_per_key", "B"),
    ("index.range_proof_bytes", "B"),
    ("index.live_bytes", "B"),
    ("storage.cache_hit_ratio", "ratio"),
    ("storage.index_gets_per_op", "count"),
    ("storage.get_us", "us"),
    ("storage.reads_per_op", "count"),
    ("storage.read_us", "us"),
    ("server.request_us", "us"),
    ("server.roundtrip_us", "us"),
    ("server.proof_cache_hit_ratio", "ratio"),
    ("server.bytes_per_op", "B"),
    ("server.busy_rejections", "count"),
    ("txn.twopc_prepares_per_batch", "count"),
    ("obs.overhead_frac", "ratio"),
    ("proc.cpu_us_per_op", "us"),
    ("error_rate", "ratio"),
    ("put_p50_us", "us"),
    ("put_p99_us", "us"),
    ("put_batch4_p50_us", "us"),
    ("get_verified_p50_us", "us"),
    ("get_verified_p99_us", "us"),
    ("batch16_verified_p50_us", "us"),
    ("range_verified_p50_us", "us"),
    ("wire_bytes_per_op", "B"),
];

/// The counting stores of a traced database (one per shard) and the
/// telemetry registry their storage engines record into.
pub struct Probe {
    stores: Vec<Arc<CountingStore>>,
    storage: TelemetryHandle,
    mark: Counts,
    /// Index nodes reachable from the new roots, and index nodes put, over
    /// every commit measured with `begin_commit`/`end_commit`.
    reached: u64,
    written: u64,
}

impl Probe {
    pub fn new(inner: Vec<Arc<dyn ChunkStore>>, storage: TelemetryHandle) -> Probe {
        Probe {
            stores: inner.into_iter().map(CountingStore::new).collect(),
            storage,
            mark: Counts::default(),
            reached: 0,
            written: 0,
        }
    }

    pub fn dyn_stores(&self) -> Vec<Arc<dyn ChunkStore>> {
        self.stores
            .iter()
            .map(|s| Arc::clone(s) as Arc<dyn ChunkStore>)
            .collect()
    }

    fn counts(&self) -> Counts {
        Counts::sum(&self.stores.iter().map(|s| s.counts()).collect::<Vec<_>>())
    }

    /// Mark the start of one quiesced commit.
    pub fn begin_commit(&mut self) {
        for store in &self.stores {
            store.start_capture();
        }
        self.mark = self.counts();
    }

    /// Close the commit begun last: `roots[i]` is shard `i`'s new index root.
    pub fn end_commit(&mut self, kind: SiriKind, roots: &[Hash]) {
        self.written += self
            .counts()
            .since(&self.mark)
            .puts_of(ChunkKind::IndexNode)
            .calls;
        for (store, root) in self.stores.iter().zip(roots) {
            self.reached += store.finish_capture(kind, *root);
        }
    }

    /// The useful-chunk totals so far, to carry over to a reopened probe.
    pub fn commit_totals(&self) -> (u64, u64) {
        (self.reached, self.written)
    }

    pub fn set_commit_totals(&mut self, (reached, written): (u64, u64)) {
        self.reached = reached;
        self.written = written;
    }

    /// Bytes of the index nodes reachable from `roots[i]` in shard `i`'s
    /// store: the live index the chunk cache is sized against.
    pub fn live_index_bytes(&self, kind: SiriKind, roots: &[Hash]) -> Result<f64, String> {
        let mut bytes = 0;
        for (store, root) in self.dyn_stores().iter().zip(roots) {
            let mut live = HashSet::new();
            spitz_index::collect_reachable(store, kind, *root, &mut live)
                .map_err(|e| format!("walk the live index: {e}"))?;
            for address in &live {
                let chunk = store
                    .get(address)
                    .map_err(|e| format!("read index node: {e}"))?;
                bytes += chunk.data().len();
            }
        }
        Ok(bytes as f64)
    }

    pub fn snapshot(&self, db: TelemetrySnapshot, stats: &[StoreStats]) -> Snap {
        let mut total = StoreStats::default();
        for s in stats {
            total.reads += s.reads;
            total.disk_bytes += s.disk_bytes;
        }
        Snap {
            db,
            storage: self.storage.snapshot(),
            counts: self.counts(),
            stats: total,
        }
    }
}

/// Everything a traced phase reads at its start and end.
pub struct Snap {
    db: TelemetrySnapshot,
    storage: TelemetrySnapshot,
    counts: Counts,
    stats: StoreStats,
}

/// The per-layer metrics being assembled.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Fill everything the counters and spans of one traced phase give.
    /// `writes` counts the records and `batches` the write calls committed
    /// in the traced phase; `reference` is the untraced phase of the run.
    pub fn new(
        before: &Snap,
        after: &Snap,
        probe: &Probe,
        traced: &Phase,
        reference: &Phase,
        writes: f64,
        batches: f64,
    ) -> Layers {
        let mut l = Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect());
        let db = TelemetryDelta {
            before: &before.db,
            after: &after.db,
        };
        let storage = TelemetryDelta {
            before: &before.storage,
            after: &after.storage,
        };
        let counts = after.counts.since(&before.counts);
        let stats = store_delta(before.stats, after.stats);
        let ops = (traced.attempted - traced.failed) as f64;
        let us = |nanos: f64| nanos / 1e3;
        // Sharded deployments record the envelope proofs under `sharded_`
        // names; single databases under the plain ones.
        let proof = |plain: &str, sharded: &str| {
            let sharded_mean = db.mean(sharded);
            if sharded_mean > 0.0 {
                sharded_mean
            } else {
                db.mean(plain)
            }
        };
        let all_puts = counts.puts_by(CALLER).calls + counts.puts_by(COMMITTER).calls;
        let put_nanos = counts.puts_by(CALLER).nanos + counts.puts_by(COMMITTER).nanos;

        l.set(
            "storage.cell_puts_per_put",
            ratio(counts.puts_of(ChunkKind::Cell).calls as f64, writes),
        );
        l.set(
            "index.chunks_per_write",
            ratio(counts.puts_of(ChunkKind::IndexNode).calls as f64, writes),
        );
        l.set(
            "index.useful_chunk_ratio",
            ratio(probe.reached as f64, probe.written as f64),
        );
        l.set("ledger.append_us", us(db.mean("pipeline.flush_nanos")));
        l.set("ledger.group_size", db.mean("pipeline.group_size"));
        l.set(
            "ledger.syncs_per_put",
            ratio(db.counter("pipeline.syncs"), writes),
        );
        l.set(
            "storage.append_us",
            us(storage.mean("storage.append_nanos")),
        );
        l.set("storage.fsync_us", us(storage.mean("storage.fsync_nanos")));
        l.set(
            "storage.bytes_appended_per_put",
            ratio(stats.disk_bytes as f64, writes),
        );
        l.set(
            "storage.committer_put_share",
            ratio(counts.puts_by(COMMITTER).calls as f64, all_puts as f64),
        );
        l.set(
            "storage.put_us",
            us(ratio(put_nanos as f64, all_puts as f64)),
        );
        l.set("core.put_us", traced.spans.mean_us("core.put"));
        l.set(
            "core.get_verified_us",
            traced.spans.mean_us("core.get_verified"),
        );
        l.set(
            "core.multi_verified_us",
            traced.spans.mean_us("core.multi_verified"),
        );
        l.set(
            "core.range_verified_us",
            traced.spans.mean_us("core.range_verified"),
        );
        l.set("core.verify_us", traced.spans.mean_us("core.verify"));
        l.set(
            "index.proof_build_us",
            us(proof(
                "proof.point_build_nanos",
                "proof.sharded_point_build_nanos",
            )),
        );
        l.set(
            "index.proof_bytes",
            proof("proof.point_bytes", "proof.sharded_point_bytes"),
        );
        l.set(
            "index.multi_proof_bytes_per_key",
            proof("proof.multi_bytes", "proof.sharded_multi_bytes") / 16.0,
        );
        l.set(
            "index.range_proof_bytes",
            proof("proof.range_bytes", "proof.sharded_range_bytes"),
        );
        l.set(
            "storage.cache_hit_ratio",
            storage.hit_ratio("storage.cache.hits", "storage.cache.misses"),
        );
        l.set("storage.reads_per_op", ratio(stats.reads as f64, ops));
        l.set("storage.read_us", us(storage.mean("storage.read_nanos")));
        l.set(
            "storage.index_gets_per_op",
            ratio(counts.gets_of(ChunkKind::IndexNode).calls as f64, ops),
        );
        let gets = counts.all_gets();
        l.set(
            "storage.get_us",
            us(ratio(gets.nanos as f64, gets.calls as f64)),
        );
        l.set("server.request_us", us(db.mean("server.request_nanos")));
        l.set(
            "server.roundtrip_us",
            traced.spans.mean_us("server.roundtrip"),
        );
        l.set(
            "server.proof_cache_hit_ratio",
            db.hit_ratio("server.proof_cache.hits", "server.proof_cache.misses"),
        );
        l.set(
            "server.bytes_per_op",
            ratio(
                db.counter("server.bytes_read") + db.counter("server.bytes_written"),
                ops,
            ),
        );
        l.set(
            "server.busy_rejections",
            db.counter("server.busy_rejections"),
        );
        l.set(
            "txn.twopc_prepares_per_batch",
            ratio(db.counter("twopc.prepares"), batches),
        );
        l.set(
            "obs.overhead_frac",
            1.0 - ratio(traced.median_ops_s, reference.median_ops_s),
        );
        let ref_ops = (reference.attempted - reference.failed) as f64;
        l.set("proc.cpu_us_per_op", ratio(reference.cpu_s * 1e6, ref_ops));
        let attempted = (traced.attempted + reference.attempted) as f64;
        l.set(
            "error_rate",
            ratio((traced.failed + reference.failed) as f64, attempted),
        );
        l
    }

    /// Set one metric; the name must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    pub fn metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0[name],
                unit,
            })
            .collect()
    }
}
