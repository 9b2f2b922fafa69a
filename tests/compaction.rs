//! Full-stack segment-compaction tests: mark-sweep GC over a live
//! `SpitzDb`/`ShardedDb` must reclaim garbage without changing any digest,
//! breaking any proof (including proofs against snapshots pinned *before*
//! the pass), or losing in-doubt 2PC state — and a crash at either
//! compaction crash point must reopen to byte-identical state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use spitz::core::db::CompactionTrigger;
use spitz::core::sharded::{ShardedConfig, ShardedDb};
use spitz::core::staged::StagedLog;
use spitz::storage::durable::CompactionFault;
use spitz::storage::DurableConfig;
use spitz::{Hash, SpitzConfig, SpitzDb, Verifier};

mod common;
use common::TempDir;

/// Small segments so a handful of epochs spans many sealed segments.
fn small_segments() -> DurableConfig {
    DurableConfig {
        segment_target_bytes: 32 * 1024,
        ..DurableConfig::default()
    }
}

fn key(i: u32) -> Vec<u8> {
    format!("acct/{i:05}").into_bytes()
}

/// One commit epoch: overwrite all `n` keys (previous versions become
/// garbage — superseded index nodes).
fn epoch(db: &SpitzDb, e: u32, n: u32) {
    let writes: Vec<_> = (0..n)
        .map(|i| (key(i), format!("epoch-{e}-value-{i}").into_bytes()))
        .collect();
    db.put_batch(writes).unwrap();
}

#[test]
fn compaction_reclaims_garbage_and_preserves_digests_and_pinned_proofs() {
    let dir = TempDir::new("compact-basic");
    let db =
        SpitzDb::open_with_configs(dir.path(), SpitzConfig::default(), small_segments()).unwrap();

    for e in 0..6 {
        epoch(&db, e, 50);
    }
    // Pin a snapshot at an *old* root, then keep writing past it: the
    // pinned checkout must survive the sweep even though the live head has
    // long moved on.
    let pinned = db.snapshot().unwrap();
    let pinned_digest = pinned.digest();
    for e in 6..12 {
        epoch(&db, e, 50);
    }
    db.flush().unwrap();

    let pre = db.digest();
    let before = db.storage_stats();
    let report = db
        .compact()
        .unwrap()
        .expect("multiple sealed segments to compact");
    assert!(report.chunks_dropped > 0, "overwrites must leave garbage");
    assert!(report.bytes_reclaimed > 0);
    assert!(!report.victim_segments.is_empty());

    let after = db.storage_stats();
    assert!(
        after.disk_bytes < before.disk_bytes,
        "disk must shrink: {} -> {}",
        before.disk_bytes,
        after.disk_bytes
    );
    assert!(after.live_bytes > 0, "the mark pass measures live bytes");
    assert!(after.dead_bytes() < after.disk_bytes);

    // The digest is untouched — compaction moves chunks, never alters them.
    assert_eq!(db.digest(), pre);

    // Live verified reads still verify against the current digest.
    let mut client = Verifier::new();
    assert!(client.observe_digest(db.digest()));
    for i in (0..50).step_by(7) {
        let (value, proof) = db.get_verified(&key(i)).unwrap();
        assert_eq!(value, Some(format!("epoch-11-value-{i}").into_bytes()));
        assert!(client.verify_read(&key(i), value.as_deref(), &proof));
    }

    // The pre-compaction pin still serves repeatable verified reads.
    let mut pinned_client = Verifier::new();
    assert!(pinned_client.observe_digest(pinned_digest));
    for i in (0..50).step_by(11) {
        let (value, proof) = pinned.get_verified(&key(i));
        assert_eq!(value, Some(format!("epoch-5-value-{i}").into_bytes()));
        assert!(pinned_client.verify_read(&key(i), value.as_deref(), &proof));
    }
    drop(pinned);

    // Reopen: byte-identical digest, proofs keep verifying.
    drop(db);
    let db =
        SpitzDb::open_with_configs(dir.path(), SpitzConfig::default(), small_segments()).unwrap();
    assert_eq!(db.digest(), pre);
    let (value, proof) = db.get_verified(&key(3)).unwrap();
    assert!(client.verify_read(&key(3), value.as_deref(), &proof));
    assert_eq!(db.ledger().audit_chain(), None);
}

#[test]
fn compaction_crash_points_reopen_to_identical_digests() {
    for fault in [CompactionFault::BeforeSwap, CompactionFault::BeforeDelete] {
        let dir = TempDir::new("compact-crash");
        let pre;
        let pinned_digest;
        {
            let db =
                SpitzDb::open_with_configs(dir.path(), SpitzConfig::default(), small_segments())
                    .unwrap();
            for e in 0..10 {
                epoch(&db, e, 40);
            }
            db.flush().unwrap();
            pre = db.digest();
            let snapshot = db.snapshot().unwrap();
            pinned_digest = snapshot.digest();

            let durable = Arc::clone(db.durable_store().expect("durable instance"));
            let err = durable
                .compact_with_fault(|| db.collect_live(), fault)
                .unwrap_err();
            assert!(err.to_string().contains("injected"), "{fault:?}: {err}");
            // The process dies mid-compaction: no graceful drop, no flush.
            drop(snapshot);
            std::mem::forget(db);
        }

        let db = SpitzDb::open_with_configs(dir.path(), SpitzConfig::default(), small_segments())
            .unwrap();
        assert_eq!(db.digest(), pre, "{fault:?}: reopen must be identical");
        assert_eq!(db.digest(), pinned_digest, "{fault:?}");
        let mut client = Verifier::new();
        assert!(client.observe_digest(db.digest()));
        for i in 0..40 {
            let (value, proof) = db.get_verified(&key(i)).unwrap();
            assert_eq!(
                value,
                Some(format!("epoch-9-value-{i}").into_bytes()),
                "{fault:?}: key {i}"
            );
            assert!(client.verify_read(&key(i), value.as_deref(), &proof));
        }
        assert_eq!(db.ledger().audit_chain(), None, "{fault:?}");

        // The interrupted pass left nothing wedged: writes and a clean
        // compaction still work.
        epoch(&db, 10, 40);
        db.flush().unwrap();
        db.compact().unwrap();
        assert_eq!(
            db.get(&key(0)).unwrap(),
            Some(b"epoch-10-value-0".to_vec()),
            "{fault:?}"
        );
    }
}

#[test]
fn automatic_trigger_compacts_on_the_write_path() {
    let trigger = CompactionTrigger {
        min_disk_bytes: 64 * 1024,
        max_space_amp: 1.5,
    };
    let with_dir = TempDir::new("compact-auto");
    let without_dir = TempDir::new("compact-manual");
    let with = SpitzDb::open_with_configs(
        with_dir.path(),
        SpitzConfig::default().with_compaction(trigger),
        small_segments(),
    )
    .unwrap();
    let without =
        SpitzDb::open_with_configs(without_dir.path(), SpitzConfig::default(), small_segments())
            .unwrap();

    for e in 0..30 {
        epoch(&with, e, 40);
        epoch(&without, e, 40);
    }
    with.flush().unwrap();
    without.flush().unwrap();

    // The trigger fired: a mark pass measured live bytes, and the disk
    // footprint is strictly below the never-compacted twin's.
    let auto = with.storage_stats();
    let manual = without.storage_stats();
    assert!(auto.live_bytes > 0, "no automatic mark pass ran");
    assert!(
        auto.disk_bytes < manual.disk_bytes,
        "auto-compacted {} must be smaller than uncompacted {}",
        auto.disk_bytes,
        manual.disk_bytes
    );

    // Same writes, same digest — compaction changed layout only.
    assert_eq!(with.digest(), without.digest());
    let mut client = Verifier::new();
    assert!(client.observe_digest(with.digest()));
    let (value, proof) = with.get_verified(&key(17)).unwrap();
    assert_eq!(value, Some(b"epoch-29-value-17".to_vec()));
    assert!(client.verify_read(&key(17), value.as_deref(), &proof));
}

#[test]
fn sharded_compaction_keeps_staged_batches_and_the_cross_shard_digest() {
    let dir = TempDir::new("compact-sharded");
    let config = ShardedConfig::default()
        .with_shards(3)
        .with_durable(small_segments());
    let writes: Vec<(Vec<u8>, Vec<u8>)> = (1000..1024u32)
        .map(|i| (key(i), format!("staged-{i}").into_bytes()))
        .collect();

    let pre;
    {
        let db = ShardedDb::open(dir.path(), config).unwrap();
        for e in 0..8 {
            let batch: Vec<_> = (0..45)
                .map(|i| (key(i), format!("epoch-{e}-value-{i}").into_bytes()))
                .collect();
            db.put_batch(batch).unwrap();
        }
        // An in-doubt cross-shard batch with a durable commit decision:
        // its staged chunks are garbage to everything except the 2PC logs,
        // so the sweep must keep them alive.
        let prepared = db.prepare_batch(writes.clone()).unwrap();
        assert!(prepared.involved_shards().len() > 1);
        StagedLog::decisions(Arc::clone(db.shard(0).store()))
            .add(prepared.global_txn_id(), Hash::ZERO)
            .unwrap();
        db.flush().unwrap();

        pre = db.digest();
        let reports = db.compact().unwrap();
        assert!(
            reports.iter().any(|r| r.is_some()),
            "at least one shard must have sealed segments to compact"
        );
        assert_eq!(db.digest(), pre, "compaction must not move any shard");
        db.flush().unwrap();
        // Process dies with the decision durable but nothing applied.
        drop(prepared);
    }

    // Reopen: the decided batch is redone from its staged chunks — which
    // therefore must have survived the compaction pass above.
    let db = ShardedDb::open(dir.path(), config).unwrap();
    for (k, v) in &writes {
        assert_eq!(
            db.get(k).unwrap(),
            Some(v.clone()),
            "staged chunk must survive compaction for the redo"
        );
    }
    assert_eq!(db.recover(), 0);
    for s in 0..3 {
        assert_eq!(db.shard(s).ledger().audit_chain(), None);
    }
}

/// Long soak (run with `--ignored`): ≥50 commit epochs of overwrites with
/// automatic compaction enabled and a concurrent verified reader. Disk must
/// stay within 2× of live bytes (plus bounded active-segment slack), every
/// verified read and pinned-snapshot proof must succeed throughout, and the
/// final digest must survive a reopen byte-identically.
#[test]
#[ignore = "long soak; exercised by the dedicated CI step"]
fn soak_disk_stays_within_twice_live_bytes_under_concurrent_readers() {
    const EPOCHS: u32 = 60;
    const KEYS: u32 = 64;
    let segment_target = 32 * 1024u64;
    let dir = TempDir::new("compact-soak");
    let trigger = CompactionTrigger {
        min_disk_bytes: 128 * 1024,
        max_space_amp: 2.0,
    };
    let db = Arc::new(
        SpitzDb::open_with_configs(
            dir.path(),
            SpitzConfig::default().with_compaction(trigger),
            DurableConfig {
                segment_target_bytes: segment_target,
                ..DurableConfig::default()
            },
        )
        .unwrap(),
    );
    epoch(&db, 0, KEYS);

    // Concurrent reader: pin a snapshot, serve verified reads from it, and
    // verify live reads — in a loop, racing epochs and compaction passes.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rounds = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snapshot = db.snapshot().expect("snapshot");
                let mut pinned = Verifier::new();
                assert!(pinned.observe_digest(snapshot.digest()));
                for i in (0..KEYS).step_by(9) {
                    let (value, proof) = snapshot.get_verified(&key(i));
                    assert!(
                        pinned.verify_read(&key(i), value.as_deref(), &proof),
                        "pinned proof failed mid-compaction"
                    );
                    assert!(value.is_some(), "seeded key vanished");
                }
                let mut live = Verifier::new();
                let (value, proof) = db.get_verified(&key(1)).expect("read");
                assert!(live.observe_digest(proof.digest));
                assert!(
                    live.verify_read(&key(1), value.as_deref(), &proof),
                    "live verified read failed mid-compaction"
                );
                rounds += 1;
            }
            rounds
        })
    };

    for e in 1..EPOCHS {
        epoch(&db, e, KEYS);
    }
    stop.store(true, Ordering::Relaxed);
    let rounds = reader.join().expect("reader thread must not panic");
    assert!(rounds > 0, "the reader must have raced the writers");

    db.flush().unwrap();
    db.compact().unwrap();
    let stats = db.storage_stats();
    assert!(stats.live_bytes > 0);
    // The acceptance bound: disk within 2× of live, modulo the segments
    // compaction cannot touch (the active one and the freshly re-armed
    // slack around it).
    let bound = 2 * stats.live_bytes + 2 * segment_target;
    assert!(
        stats.disk_bytes <= bound,
        "space leak: disk {} > bound {} (live {})",
        stats.disk_bytes,
        bound,
        stats.live_bytes
    );

    let pre = db.digest();
    for i in 0..KEYS {
        assert_eq!(
            db.get(&key(i)).unwrap(),
            Some(format!("epoch-{}-value-{i}", EPOCHS - 1).into_bytes())
        );
    }
    drop(db);
    let db = SpitzDb::open_with_configs(
        dir.path(),
        SpitzConfig::default(),
        DurableConfig {
            segment_target_bytes: segment_target,
            ..DurableConfig::default()
        },
    )
    .unwrap();
    assert_eq!(db.digest(), pre, "reopen after the soak must be identical");
    assert_eq!(db.ledger().audit_chain(), None);
}
