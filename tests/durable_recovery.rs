//! Crash-recovery and reopen-identity tests for the durable chunk store.
//!
//! The acceptance bar: a `SpitzDb`/`Ledger` built on `DurableChunkStore`,
//! dropped, and reopened from the same path yields byte-identical
//! records-root, chain head and digest, serves verifying Merkle proofs, and
//! preserves dedup `StoreStats` across reopen; a segment with a torn tail
//! record (a crashed append) recovers to the last intact record.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use spitz::core::db::SpitzConfig;
use spitz::ledger::DurabilityPolicy;
use spitz::storage::chunk::{Chunk, ChunkKind};
use spitz::storage::durable::format::root_record_len;
use spitz::storage::durable::DurableConfig;
use spitz::storage::{ChunkStore, DurableChunkStore, StorageError};
use spitz::{SpitzDb, Verifier};

mod common;
use common::{segment_files, TempDir};

/// The only segment file in a store directory (for tests that damage it).
fn single_segment_file(dir: &Path) -> PathBuf {
    let mut segments = segment_files(dir);
    assert_eq!(segments.len(), 1, "test expects exactly one segment");
    segments.pop().unwrap()
}

fn blob(data: &[u8]) -> Chunk {
    Chunk::new(ChunkKind::Blob, data.to_vec())
}

#[test]
fn reopened_spitzdb_reproduces_digest_chain_and_proofs() {
    let dir = TempDir::new("db-reopen");
    let mut client = Verifier::new();

    let (digest, records_root, block0, stats) = {
        let db = SpitzDb::open(dir.path()).unwrap();
        let writes: Vec<_> = (0..300u32)
            .map(|i| {
                (
                    format!("acct/{i:05}").into_bytes(),
                    format!("balance={}", i % 50).into_bytes(),
                )
            })
            .collect();
        db.put_batch(writes).unwrap();
        db.put(b"acct/00007", b"balance=updated").unwrap();
        db.put(b"audit/log", b"entry-1").unwrap();
        // A deterministic dedup event: the identical chunk stored twice.
        let probe = db.store().put(blob(b"dedup-probe"));
        assert_eq!(db.store().put(blob(b"dedup-probe")), probe);
        assert!(client.observe_digest(db.digest()));
        (
            db.digest(),
            db.ledger().block(0).unwrap().header.records_root,
            db.ledger().block(0).unwrap(),
            db.storage_stats(),
        )
    };
    assert!(stats.dedup_hits > 0, "identical chunks must deduplicate");

    // Reopen from the same path: everything a verifying client pins must be
    // byte-identical.
    let db = SpitzDb::open(dir.path()).unwrap();
    let reopened = db.digest();
    assert_eq!(reopened, digest);
    assert_eq!(reopened.block_hash, digest.block_hash);
    assert_eq!(reopened.index_root, digest.index_root);
    assert_eq!(reopened.journal_root, digest.journal_root);
    assert_eq!(reopened.block_height, 2);
    assert_eq!(db.ledger().block(0).unwrap(), block0);
    assert_eq!(
        db.ledger().block(0).unwrap().header.records_root,
        records_root
    );
    assert_eq!(db.ledger().audit_chain(), None);

    // The client that pinned the pre-restart digest accepts the reopened
    // database's proofs unchanged.
    let (value, proof) = db.get_verified(b"acct/00007").unwrap();
    assert_eq!(value, Some(b"balance=updated".to_vec()));
    assert!(client.verify_read(b"acct/00007", value.as_deref(), &proof));
    let (missing, proof) = db.get_verified(b"acct/99999").unwrap();
    assert!(missing.is_none());
    assert!(proof.verify(b"acct/99999", None));
    let (entries, range_proof) = db.range_verified(b"acct/00010", b"acct/00020").unwrap();
    assert_eq!(entries.len(), 10);
    assert!(range_proof.verify(&entries));

    // Dedup stats survive the restart and keep counting.
    let stats2 = db.storage_stats();
    assert_eq!(stats2.chunk_count, stats.chunk_count);
    assert_eq!(stats2.physical_bytes, stats.physical_bytes);
    assert_eq!(stats2.logical_bytes, stats.logical_bytes);
    assert_eq!(stats2.dedup_hits, stats.dedup_hits);
    db.store().put(blob(b"dedup-probe"));
    assert!(
        db.storage_stats().dedup_hits > stats.dedup_hits,
        "re-storing a persisted chunk must hit dedup after reopen"
    );

    // Writes after reopen extend the same chain.
    db.put(b"acct/00008", b"balance=8").unwrap();
    let extended = db.digest();
    assert_eq!(extended.block_height, 3);
    assert_ne!(extended.journal_root, digest.journal_root);
    assert_eq!(db.ledger().audit_chain(), None);
}

#[test]
fn torn_tail_record_is_dropped_and_the_rest_survives() {
    let dir = TempDir::new("torn-tail");
    let config = DurableConfig {
        segment_target_bytes: 1024 * 1024, // keep everything in one segment
        cache_capacity_bytes: 0,
        fsync_each_put: false,
    };

    let addresses: Vec<_> = {
        let store = DurableChunkStore::open_with_config(dir.path(), config).unwrap();
        (0..20u32)
            .map(|i| store.put(blob(format!("record payload {i:04}").as_bytes())))
            .collect()
    };

    // Simulate a crash mid-append: cut into the middle of the last record.
    let segment = single_segment_file(dir.path());
    let len = std::fs::metadata(&segment).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .unwrap();
    file.set_len(len - 9).unwrap();
    drop(file);

    let store = DurableChunkStore::open_with_config(dir.path(), config).unwrap();
    assert!(store.torn_bytes_recovered() > 0);

    // Every complete chunk survives; the torn one is gone.
    for address in &addresses[..19] {
        assert!(store.contains(address));
        store.get(address).unwrap();
    }
    assert!(!store.contains(&addresses[19]));
    assert!(matches!(
        store.get(&addresses[19]),
        Err(StorageError::ChunkNotFound(_))
    ));

    // Stats are consistent with what actually survived.
    let stats = store.stats();
    assert_eq!(stats.chunk_count, 19);
    assert!(stats.logical_bytes >= stats.physical_bytes);
    assert!(store.audit().is_empty());

    // The store keeps working: the dropped chunk can be rewritten and the
    // rewrite is durable.
    let rewritten = store.put(blob(b"record payload 0019"));
    assert_eq!(rewritten, addresses[19]);
    drop(store);
    let store = DurableChunkStore::open_with_config(dir.path(), config).unwrap();
    assert_eq!(store.torn_bytes_recovered(), 0);
    assert_eq!(store.stats().chunk_count, 20);
    assert_eq!(
        store.get(&addresses[19]).unwrap().data(),
        b"record payload 0019"
    );
}

/// Commit two blocks, record the per-block digests and the segment length
/// after each commit, and return them — the shared setup of the crash
/// tests. The database is closed cleanly; the caller then damages the
/// segment to simulate the crash.
fn two_block_history(
    dir: &Path,
    config: DurableConfig,
) -> (spitz::Digest, spitz::Digest, PathBuf, u64) {
    let store: Arc<dyn ChunkStore> =
        Arc::new(DurableChunkStore::open_with_config(dir, config).unwrap());
    let db = SpitzDb::with_store(store, Default::default()).unwrap();
    let digest1 = db.put(b"k1", b"v1").unwrap();
    let digest2 = db.put(b"k2", b"v2").unwrap();
    drop(db);
    let segment = single_segment_file(dir);
    let len = std::fs::metadata(&segment).unwrap().len();
    (digest1, digest2, segment, len)
}

fn truncate_to(path: &Path, len: u64) {
    let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    file.set_len(len).unwrap();
}

/// Crash simulation: the kill lands *between* the segment fsync of block
/// 2's data and the append of its root record — the log ends exactly at
/// the block chunk, with no (partial) root record after it. Reopen must
/// land on block 1, the last *durable* root, with the chain and digest
/// intact, and recommitting the lost write must reproduce block 2 exactly.
#[test]
fn crash_before_root_record_recovers_to_previous_root() {
    let dir = TempDir::new("crash-pre-root");
    let config = DurableConfig {
        segment_target_bytes: 1024 * 1024,
        cache_capacity_bytes: 0,
        fsync_each_put: false,
    };
    let (digest1, digest2, segment, len) = two_block_history(dir.path(), config);

    // The file tail is [... block-2 chunk][root record]; cut the whole root
    // record so the data survives but its publication never happened.
    let root_len = root_record_len(spitz::ledger::LEDGER_HEAD_ROOT) as u64;
    truncate_to(&segment, len - root_len);

    let store: Arc<dyn ChunkStore> =
        Arc::new(DurableChunkStore::open_with_config(dir.path(), config).unwrap());
    let db = SpitzDb::with_store(Arc::clone(&store), Default::default()).unwrap();
    assert_eq!(db.digest(), digest1, "must land on the last durable root");
    assert_eq!(db.digest().block_height, 0);
    assert_eq!(db.get(b"k1").unwrap(), Some(b"v1".to_vec()));
    assert_eq!(db.get(b"k2").unwrap(), None, "unpublished commit is gone");
    assert_eq!(db.ledger().audit_chain(), None);

    // Recommitting the lost write reproduces the identical block 2: same
    // height, same prev hash, same digest — and the block chunk that
    // survived unreferenced deduplicates instead of growing the log.
    let recommitted = db.put(b"k2", b"v2").unwrap();
    assert_eq!(recommitted, digest2);
    assert_eq!(db.ledger().audit_chain(), None);
}

/// Crash simulation: the kill lands *mid root-record* (a torn tail). The
/// partial record must be dropped, recovery again lands on the last
/// durable root, and every durability policy reopens to the same state.
#[test]
fn torn_root_record_recovers_to_previous_root_under_every_policy() {
    for policy in [
        DurabilityPolicy::Strict,
        DurabilityPolicy::grouped_default(),
        DurabilityPolicy::Os,
    ] {
        let dir = TempDir::new("crash-torn-root");
        let config = DurableConfig {
            segment_target_bytes: 1024 * 1024,
            cache_capacity_bytes: 0,
            fsync_each_put: false,
        };
        let (digest1, _digest2, segment, len) = two_block_history(dir.path(), config);

        // Tear into the middle of block 2's root record (3 bytes short).
        truncate_to(&segment, len - 3);

        let durable = Arc::new(DurableChunkStore::open_with_config(dir.path(), config).unwrap());
        assert!(durable.torn_bytes_recovered() > 0, "{}", policy.name());
        let db = SpitzDb::with_store(
            durable as Arc<dyn ChunkStore>,
            SpitzConfig::default().with_durability(policy),
        )
        .unwrap();
        assert_eq!(db.digest(), digest1, "{}", policy.name());
        assert_eq!(db.get(b"k2").unwrap(), None, "{}", policy.name());
        assert_eq!(db.ledger().audit_chain(), None, "{}", policy.name());

        // The recovered chain keeps extending under the same policy.
        let extended = db.put(b"k3", b"v3").unwrap();
        assert_eq!(extended.block_height, 1, "{}", policy.name());
        drop(db);
        let store: Arc<dyn ChunkStore> =
            Arc::new(DurableChunkStore::open_with_config(dir.path(), config).unwrap());
        let db = SpitzDb::with_store(store, Default::default()).unwrap();
        assert_eq!(db.digest(), extended, "{}", policy.name());
    }
}

/// N writer threads × M puts through the group-commit pipeline must yield
/// exactly N·M records with a verifiable digest and a clean chain, and the
/// whole history must survive a drain + reopen byte-identically.
#[test]
fn concurrent_pipeline_writers_commit_every_record_exactly_once() {
    const WRITERS: u32 = 4;
    const PUTS: u32 = 30;
    let dir = TempDir::new("pipeline-concurrency");
    let config = SpitzConfig::default().with_durability(DurabilityPolicy::grouped_default());

    let digest = {
        let db = SpitzDb::open_with_config(dir.path(), config).unwrap();
        std::thread::scope(|scope| {
            for writer in 0..WRITERS {
                let db = &db;
                scope.spawn(move || {
                    for i in 0..PUTS {
                        let key = format!("writer-{writer:02}/key-{i:04}");
                        let value = format!("value-{writer}-{i}");
                        db.put(key.as_bytes(), value.as_bytes()).unwrap();
                    }
                });
            }
        });

        assert_eq!(db.ledger().len() as u32, WRITERS * PUTS);
        for writer in 0..WRITERS {
            for i in 0..PUTS {
                let key = format!("writer-{writer:02}/key-{i:04}");
                assert_eq!(
                    db.get(key.as_bytes()).unwrap(),
                    Some(format!("value-{writer}-{i}").into_bytes())
                );
            }
        }
        assert_eq!(db.ledger().audit_chain(), None);
        let pipeline = db.pipeline().expect("durable db commits via pipeline");
        assert_eq!(pipeline.stats().commits, (WRITERS * PUTS) as u64);

        // A verified read proves the coalesced blocks still chain cleanly.
        let (value, proof) = db.get_verified(b"writer-00/key-0000").unwrap();
        assert!(proof.verify(b"writer-00/key-0000", value.as_deref()));
        db.digest()
    }; // drop: drain + final fsync + manifest

    let db = SpitzDb::open(dir.path()).unwrap();
    assert_eq!(db.digest(), digest);
    assert_eq!(db.ledger().len() as u32, WRITERS * PUTS);
    assert_eq!(db.ledger().audit_chain(), None);
}

/// Concurrent puts to one key never fail: the ledger orders them, and no
/// other layer adds a write-write conflict rule. The survivor is one
/// writer's last value and its proof verifies against the digest.
#[test]
fn concurrent_puts_to_one_key_all_commit() {
    const WRITERS: u32 = 4;
    const PUTS: u32 = 3000;
    fn hammer(db: &SpitzDb) {
        std::thread::scope(|scope| {
            for writer in 0..WRITERS {
                scope.spawn(move || {
                    for i in 0..PUTS {
                        let value = format!("writer-{writer}/put-{i}");
                        if let Err(e) = db.put(b"hot", value.as_bytes()) {
                            panic!("writer {writer} put {i} failed: {e}");
                        }
                    }
                });
            }
        });
        let last: Vec<Vec<u8>> = (0..WRITERS)
            .map(|w| format!("writer-{w}/put-{}", PUTS - 1).into_bytes())
            .collect();
        let value = db.get(b"hot").unwrap().expect("key written");
        assert!(last.contains(&value), "survivor is not a last write");

        let mut client = Verifier::new();
        assert!(client.observe_digest(db.digest()));
        let (proved, proof) = db.get_verified(b"hot").unwrap();
        assert_eq!(proved, Some(value));
        assert!(client.verify_read(b"hot", proved.as_deref(), &proof));
    }

    hammer(&SpitzDb::in_memory());

    let dir = TempDir::new("one-key-contention");
    let config = SpitzConfig::default().with_durability(DurabilityPolicy::grouped_default());
    hammer(&SpitzDb::open_with_config(dir.path(), config).unwrap());
}

/// `flush()` makes grouped commits durable on demand: after a flush, a
/// crash (simulated by leaking the store so nothing runs at drop) must not
/// lose the flushed history.
#[test]
fn explicit_flush_makes_grouped_commits_durable() {
    let dir = TempDir::new("pipeline-flush");
    let config = SpitzConfig::default().with_durability(DurabilityPolicy::Grouped {
        max_delay: std::time::Duration::from_secs(3600),
        max_writes: 1_000_000, // only an explicit flush may sync
    });

    let digest = {
        let db = SpitzDb::open_with_config(dir.path(), config).unwrap();
        db.put(b"k1", b"v1").unwrap();
        db.put(b"k2", b"v2").unwrap();
        db.flush().unwrap();
        let digest = db.digest();
        // Simulate a hard kill: no pipeline drain, no store flush.
        std::mem::forget(db);
        digest
    };

    let db = SpitzDb::open(dir.path()).unwrap();
    assert_eq!(db.digest(), digest, "flushed commits must survive a crash");
    assert_eq!(db.get(b"k2").unwrap(), Some(b"v2".to_vec()));
    assert_eq!(db.ledger().audit_chain(), None);
}

#[test]
fn stats_and_roots_survive_segment_rotation() {
    let dir = TempDir::new("rotation");
    let config = DurableConfig {
        segment_target_bytes: 2048, // force frequent rotation
        cache_capacity_bytes: 4096,
        fsync_each_put: false,
    };

    let (stats, segments) = {
        let store = DurableChunkStore::open_with_config(dir.path(), config).unwrap();
        for i in 0..100u32 {
            store.put(blob(&i.to_be_bytes().repeat(16)));
        }
        for i in 0..50u32 {
            store.put(blob(&i.to_be_bytes().repeat(16))); // dedup hits
        }
        (store.stats(), store.segment_count())
    };
    assert!(segments > 1, "rotation must have produced extra segments");
    assert_eq!(stats.chunk_count, 100);
    assert_eq!(stats.dedup_hits, 50);

    let store = DurableChunkStore::open_with_config(dir.path(), config).unwrap();
    assert_eq!(store.segment_count(), segments);
    assert_eq!(store.stats().chunk_count, stats.chunk_count);
    assert_eq!(store.stats().physical_bytes, stats.physical_bytes);
    assert_eq!(store.stats().logical_bytes, stats.logical_bytes);
    assert_eq!(store.stats().dedup_hits, stats.dedup_hits);
    assert!(store.audit().is_empty());
}

/// The typed-table catalog survives a reopen: schemas come back from the
/// `spitz/catalog` root chunk, and the analytical state (inverted indexes,
/// primary keys, record timestamps) is rebuilt from the ledger's
/// universal-key ranges — so typed reads, analytical queries and further
/// inserts all keep working across a restart.
#[test]
fn typed_table_catalog_survives_reopen() {
    use spitz::{ColumnType, Record, Schema, Value};

    let dir = TempDir::new("catalog-reopen");
    {
        let db = SpitzDb::open(dir.path()).unwrap();
        db.create_table(Schema::new(
            "items",
            vec![("name", ColumnType::Text), ("stock", ColumnType::Integer)],
        ))
        .unwrap();
        for i in 0..20 {
            let record = Record::new(format!("item-{i:03}"))
                .with("name", Value::Text(format!("widget-{i}")))
                .with("stock", Value::Integer(i));
            db.insert_record("items", &record).unwrap();
        }
        // A second version of one record: the reopen must surface the
        // latest version, not the first.
        db.insert_record(
            "items",
            &Record::new("item-007")
                .with("name", Value::Text("widget-7-v2".into()))
                .with("stock", Value::Integer(700)),
        )
        .unwrap();
        db.flush().unwrap();
    }

    let db = SpitzDb::open(dir.path()).unwrap();
    // Typed point reads serve the latest versions.
    let record = db.get_record("items", "item-007").unwrap().unwrap();
    assert_eq!(record.get("stock"), Some(&Value::Integer(700)));
    assert_eq!(record.get("name"), Some(&Value::Text("widget-7-v2".into())));
    let record = db.get_record("items", "item-012").unwrap().unwrap();
    assert_eq!(record.get("stock"), Some(&Value::Integer(12)));

    // Analytical queries over the rebuilt inverted indexes.
    let low = db.query_int_range("items", "stock", 0, 5).unwrap();
    assert_eq!(low.len(), 5);
    assert!(low.contains(&"item-004".to_string()));
    let named = db
        .query_eq("items", "name", &Value::Text("widget-12".into()))
        .unwrap();
    assert_eq!(named, vec!["item-012".to_string()]);

    // Inserts keep working after the rebuild (timestamps resume).
    db.insert_record(
        "items",
        &Record::new("item-new")
            .with("name", Value::Text("fresh".into()))
            .with("stock", Value::Integer(1)),
    )
    .unwrap();
    let record = db.get_record("items", "item-new").unwrap().unwrap();
    assert_eq!(record.get("stock"), Some(&Value::Integer(1)));

    // And a second reopen still sees everything.
    db.flush().unwrap();
    drop(db);
    let db = SpitzDb::open(dir.path()).unwrap();
    assert!(db.get_record("items", "item-new").unwrap().is_some());
    assert_eq!(
        db.query_eq("items", "name", &Value::Text("fresh".into()))
            .unwrap(),
        vec!["item-new".to_string()]
    );
}

/// Two tables whose columns share positions (and types) must stay separate
/// across a reopen: column ids are allocated globally per table, so the
/// catalog rebuild must not leak one table's cells into another's indexes.
#[test]
fn catalog_rebuild_keeps_tables_separate() {
    use spitz::{ColumnType, Record, Schema, Value};

    let dir = TempDir::new("catalog-two-tables");
    {
        let db = SpitzDb::open(dir.path()).unwrap();
        db.create_table(Schema::new("users", vec![("name", ColumnType::Text)]))
            .unwrap();
        db.create_table(Schema::new("cities", vec![("name", ColumnType::Text)]))
            .unwrap();
        db.insert_record(
            "users",
            &Record::new("u1").with("name", Value::Text("ada".into())),
        )
        .unwrap();
        db.insert_record(
            "cities",
            &Record::new("c1").with("name", Value::Text("athens".into())),
        )
        .unwrap();
        db.flush().unwrap();
    }

    let db = SpitzDb::open(dir.path()).unwrap();
    // Each table sees exactly its own rows, before and after analytics.
    assert_eq!(
        db.query_eq("users", "name", &Value::Text("ada".into()))
            .unwrap(),
        vec!["u1".to_string()]
    );
    assert!(db
        .query_eq("users", "name", &Value::Text("athens".into()))
        .unwrap()
        .is_empty());
    assert_eq!(
        db.query_eq("cities", "name", &Value::Text("athens".into()))
            .unwrap(),
        vec!["c1".to_string()]
    );
    assert!(db.get_record("users", "c1").unwrap().is_none());
    assert!(db.get_record("cities", "u1").unwrap().is_none());
    let user = db.get_record("users", "u1").unwrap().unwrap();
    assert_eq!(user.get("name"), Some(&Value::Text("ada".into())));
}
