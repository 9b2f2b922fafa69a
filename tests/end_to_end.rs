//! Cross-crate integration tests: the full write → ledger → proof → client
//! verification pipeline, system-equivalence between Spitz and the
//! comparison systems, and tampering detection end to end.

use spitz::baseline::{ImmutableKvs, NonIntrusiveVdb, QldbBaseline};
use spitz::{ColumnType, Record, Schema, SpitzDb, Value, Verifier};

fn record(i: usize) -> (Vec<u8>, Vec<u8>) {
    (
        format!("key-{i:06}").into_bytes(),
        format!("value-{i}").into_bytes(),
    )
}

#[test]
fn spitz_end_to_end_write_read_verify() {
    let db = SpitzDb::in_memory();
    let mut client = Verifier::new();

    for batch in (0..2_000).map(record).collect::<Vec<_>>().chunks(100) {
        let digest = db.put_batch(batch.to_vec()).unwrap();
        assert!(client.observe_digest(digest), "digests must move forward");
    }
    assert_eq!(db.digest().block_height, 19);

    // Every key is readable, verifiable online and via deferred batches.
    for i in (0..2_000).step_by(97) {
        let (k, v) = record(i);
        assert_eq!(db.get(&k).unwrap(), Some(v.clone()));
        let (value, proof) = db.get_verified(&k).unwrap();
        assert_eq!(value, Some(v.clone()));
        assert!(client.verify_read(&k, value.as_deref(), &proof));
        client.defer_read(k, value, db.get_verified(&record(i).0).unwrap().1);
    }
    assert!(client.flush_deferred().all_ok());

    // Range scans with a single combined proof.
    let (entries, proof) = db.range_verified(&record(500).0, &record(600).0).unwrap();
    assert_eq!(entries.len(), 100);
    assert!(client.verify_range(&entries, &proof));

    // The chain audits clean and historical versions stay readable.
    assert_eq!(db.ledger().audit_chain(), None);
    let old = db.ledger().checkout(4).unwrap();
    assert_eq!(old.len(), 500);
    assert_eq!(old.get(&record(499).0), Some(record(499).1));
    assert_eq!(old.get(&record(501).0), None);
}

#[test]
fn all_systems_return_identical_data_for_the_same_workload() {
    let records: Vec<_> = (0..1_000).map(record).collect();

    let spitz = SpitzDb::in_memory();
    let kvs = ImmutableKvs::new();
    let qldb = QldbBaseline::new();
    let non_intrusive = NonIntrusiveVdb::new();
    for (k, v) in &records {
        spitz.put(k, v).unwrap();
        kvs.put(k, v);
        qldb.put(k, v);
        non_intrusive.put(k, v);
    }
    qldb.seal();

    for (k, v) in records.iter().step_by(53) {
        assert_eq!(spitz.get(k).unwrap().as_ref(), Some(v));
        assert_eq!(kvs.get(k).as_ref(), Some(v));
        assert_eq!(qldb.get(k).as_ref(), Some(v));
        assert_eq!(non_intrusive.get(k).as_ref(), Some(v));
    }

    // Range results agree (same ordering, same contents).
    let start = record(100).0;
    let end = record(200).0;
    let spitz_range = spitz.range(&start, &end).unwrap();
    assert_eq!(spitz_range, kvs.range(&start, &end));
    assert_eq!(spitz_range, qldb.range(&start, &end));
    assert_eq!(spitz_range, non_intrusive.range(&start, &end));
    assert_eq!(spitz_range.len(), 100);

    // Verified reads succeed on every verifiable system.
    let (k, v) = record(321);
    let (value, proof) = spitz.get_verified(&k).unwrap();
    assert!(proof.verify(&k, value.as_deref()));
    let (value, proof) = qldb.get_verified(&k).unwrap();
    assert_eq!(value, v);
    assert!(proof.verify(&k, &value));
    let (value, proof) = non_intrusive.get_verified(&k);
    assert!(proof.verify(&k, value.as_deref()));
}

#[test]
fn tampering_with_any_layer_is_detected() {
    let db = SpitzDb::in_memory();
    db.put_batch((0..200).map(record).collect()).unwrap();
    let mut client = Verifier::new();
    client.observe_digest(db.digest());

    let (k, _) = record(42);
    let (value, proof) = db.get_verified(&k).unwrap();

    // Forged value, forged absence, stale digest, wrong key.
    assert!(!client.verify_read(&k, Some(b"forged"), &proof));
    assert!(!client.verify_read(&k, None, &proof));
    assert!(!client.verify_read(&record(43).0, value.as_deref(), &proof));

    // A range result with an extra injected row fails.
    let (mut entries, range_proof) = db.range_verified(&record(10).0, &record(20).0).unwrap();
    entries.push((b"injected".to_vec(), b"row".to_vec()));
    assert!(!client.verify_range(&entries, &range_proof));

    // A range result with a modified row fails.
    let (mut entries, range_proof) = db.range_verified(&record(10).0, &record(20).0).unwrap();
    entries[0].1 = b"forged".to_vec();
    assert!(!client.verify_range(&entries, &range_proof));
}

#[test]
fn typed_tables_flow_through_the_ledger() {
    let db = SpitzDb::in_memory();
    db.create_table(Schema::new(
        "events",
        vec![("kind", ColumnType::Text), ("amount", ColumnType::Integer)],
    ))
    .unwrap();
    for i in 0..100 {
        db.insert_record(
            "events",
            &Record::new(format!("evt-{i:04}"))
                .with(
                    "kind",
                    Value::Text(if i % 2 == 0 { "credit" } else { "debit" }.into()),
                )
                .with("amount", Value::Integer(i)),
        )
        .unwrap();
    }
    // Each record is one ledger block; analytics agree with the raw data.
    assert_eq!(db.digest().block_height, 99);
    assert_eq!(
        db.query_eq("events", "kind", &Value::Text("credit".into()))
            .unwrap()
            .len(),
        50
    );
    assert_eq!(
        db.query_int_range("events", "amount", 0, 10).unwrap().len(),
        10
    );
    assert_eq!(db.ledger().audit_chain(), None);

    let rec = db.get_record("events", "evt-0042").unwrap().unwrap();
    assert_eq!(rec.get("amount"), Some(&Value::Integer(42)));
}

#[test]
fn storage_deduplication_bounds_ledger_growth() {
    // The Figure 1 / node-sharing property end to end: updating the same key
    // many times grows storage far slower than inserting distinct keys.
    let updates = SpitzDb::in_memory();
    for _ in 0..500usize {
        // Re-writing identical content: the ledger index reaches an identical
        // state each time, so its nodes are deduplicated by content address.
        updates.put(b"same-key", b"same-value").unwrap();
    }
    let distinct = SpitzDb::in_memory();
    for i in 0..500usize {
        distinct
            .put(format!("key-{i}").as_bytes(), b"value")
            .unwrap();
    }
    let u = updates.storage_stats();
    let d = distinct.storage_stats();
    assert!(u.physical_bytes > 0 && d.physical_bytes > 0);
    // Both retain all history (immutable), but dedup keeps repeated content
    // from being stored twice.
    assert!(u.dedup_hits > 0);
}
