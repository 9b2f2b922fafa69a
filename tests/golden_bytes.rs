//! Golden bytes: one fixed workload fed to a POS-tree, an MPT and an MBT
//! ledger on a durable store must keep producing the same digest, the same
//! encoded point, multi and range proofs, and the same digest after reopen.
//!
//! The expected values were captured from the implementation that
//! recomputed every split decision and rebuilt the journal block by block,
//! so any change to the write or reopen path that alters a single byte on
//! disk or on the wire fails here. Proofs are pinned by their length and
//! the SHA-256 of their encoding (the encodings run to kilobytes).
//!
//! The workload mixes 1000-record batches, single puts, updates, a key
//! written several times inside one batch, and keys below the current
//! minimum and above the current maximum.

use std::sync::Arc;

use spitz::crypto::sha256;
use spitz::index::SiriKind;
use spitz::ledger::{Digest, Ledger};
use spitz::storage::{ChunkStore, DurableChunkStore};

mod common;
use common::TempDir;

fn key(prefix: &str, i: u32) -> Vec<u8> {
    format!("{prefix}/{i:06}").into_bytes()
}

/// Values of varying length so leaves hold differently sized entries.
fn value(round: u32, i: u32) -> Vec<u8> {
    format!("v{round}-{i}-{}", "x".repeat((i % 7) as usize)).into_bytes()
}

fn put(ledger: &Ledger, k: Vec<u8>, v: Vec<u8>) {
    ledger.try_append_block(vec![(k, v)], "put").unwrap();
}

/// Drive the fixed workload; every step is a sealed block.
fn run_workload(ledger: &Ledger) {
    // 1000-record batch of even keys, so later odd keys land in between.
    let batch: Vec<_> = (0..1000).map(|i| (key("m", 2 * i), value(0, i))).collect();
    ledger.try_append_block(batch, "load even").unwrap();

    // 1000-record batch: 400 new odd keys, 400 updates of even keys, and
    // one key written 200 times in a row (the last write wins).
    let mut batch: Vec<_> = (0..400)
        .map(|i| (key("m", 2 * i + 1), value(1, i)))
        .collect();
    batch.extend((0..400).map(|i| (key("m", 4 * i), value(2, i))));
    batch.extend((0..200).map(|i| (key("m", 777), value(3, i))));
    ledger.try_append_block(batch, "mixed").unwrap();

    // Single puts: inserts in the middle, updates, a new minimum and a new
    // maximum.
    for i in 0..10 {
        put(ledger, key("m", 1001 + 2 * i), value(4, i));
        put(ledger, key("m", 10 * i), value(5, i));
    }
    put(ledger, key("a", 1), value(6, 1));
    put(ledger, key("z", 1), value(6, 2));

    // Two groups sealed into one block writing the same key.
    ledger
        .try_append_groups(vec![
            (vec![(key("m", 5), value(7, 0))], "group one".to_string()),
            (
                vec![(key("m", 5), value(7, 1)), (key("m", 6), value(7, 2))],
                "group two".to_string(),
            ),
        ])
        .unwrap();

    // 1000-record batch of keys all below the minimum and all above the
    // maximum.
    let mut batch: Vec<_> = (0..500).map(|i| (key("0", i), value(8, i))).collect();
    batch.extend((0..500).map(|i| (key("zz", i), value(9, i))));
    ledger.try_append_block(batch, "edges").unwrap();

    // Single puts at the new extremes.
    put(ledger, key("", 0), value(10, 0));
    put(ledger, key("zzz", 0), value(10, 1));
    put(ledger, key("0", 250), value(10, 2));
}

fn digest_hex(d: &Digest) -> String {
    format!(
        "{} {} {} {} {}",
        d.block_height,
        d.block_hash.to_hex(),
        d.index_root.to_hex(),
        d.journal_root.to_hex(),
        d.index_kind.tag()
    )
}

fn pin(bytes: &[u8]) -> String {
    format!("{} {}", bytes.len(), sha256(bytes).to_hex())
}

/// Everything the test pins for one ledger: its digest and its point
/// (present and absent), multi and range proofs.
fn fingerprint(ledger: &Ledger) -> Vec<String> {
    let digest = ledger.digest();
    let present = key("m", 777);
    let (value, point) = ledger.get_with_proof(&present);
    assert!(point.verify(&present, value.as_deref()));
    let absent = key("m", 1999);
    let (none, absence) = ledger.get_with_proof(&absent);
    assert!(none.is_none());
    assert!(absence.verify(&absent, None));

    let keys: Vec<Vec<u8>> = (0..16)
        .map(|i| key("m", 120 * i + 3))
        .chain([key("a", 1), key("zz", 499), key("q", 0)])
        .collect();
    let (values, multi) = ledger.get_multi_with_proof(&keys);
    let items: Vec<_> = keys.iter().cloned().zip(values).collect();
    assert!(multi.verify(&items));

    let (entries, range) = ledger.range_with_proof(&key("m", 990), &key("m", 1030));
    assert!(!entries.is_empty());
    assert!(range.verify(&entries));

    vec![
        digest_hex(&digest),
        pin(&point.encode()),
        pin(&absence.encode()),
        pin(&multi.encode()),
        pin(&range.encode()),
    ]
}

/// Run the workload on a fresh durable store, fingerprint it, reopen the
/// store, check the reopened ledger fingerprints identically, then seal
/// one more block on the reopened ledger and return its digest too.
fn golden(kind: SiriKind) -> (Vec<String>, String) {
    let dir = TempDir::new(&format!("golden-{}", kind.name()));
    let before = {
        let store: Arc<dyn ChunkStore> = DurableChunkStore::shared(dir.path()).unwrap();
        let ledger = Ledger::with_kind(store, kind);
        run_workload(&ledger);
        fingerprint(&ledger)
    };
    let store: Arc<dyn ChunkStore> = DurableChunkStore::shared(dir.path()).unwrap();
    let reopened = Ledger::open_with_kind(store, kind).unwrap();
    assert_eq!(reopened.audit_chain(), None);
    assert_eq!(fingerprint(&reopened), before, "reopen changed the bytes");
    put(&reopened, key("m", 3), value(11, 0));
    (before, digest_hex(&reopened.digest()))
}

fn check(kind: SiriKind, expected: &[&str], expected_after_reopen: &str) {
    let (got, after) = golden(kind);
    println!("{} fingerprint: {got:#?}", kind.name());
    println!("{} after reopen: {after:?}", kind.name());
    assert_eq!(got, expected, "{} golden bytes changed", kind.name());
    assert_eq!(
        after,
        expected_after_reopen,
        "{} digest after reopen changed",
        kind.name()
    );
}

#[test]
fn pos_tree_ledger_bytes_are_pinned() {
    check(
        SiriKind::PosTree,
        &[
            "28 fa780de6efab193d58bdaaa92dd587b709ea044ca592c6a4418de8952b07ac48 6dcc02b1f71439c8fc0083a7118ee56818dc3888d1d6fef9f0f5d3b4c22638d3 20890bee7f04f38677c3387bbd7531255b1d281db4648b7ef43136924389a49a 0",
            "5256 0e04a60e2424faf79e34ffa314f269a184744f98a09d0d6d6d9dffe735d99ae2",
            "2076 a70b6080beddcab72ed48909388acbfcf394c23e1330cf5f6151a14e1c2e72a1",
            "20970 d5463ab12397d10f698011016375018b41257d3a6ff87ee6b44d00c3b93e6460",
            "5853 e962439faa6494b69ac0c346923b4f7ee690893e5766ef2d53e9a9762b0d514b",
        ],
        "29 74c09069aa6e1be702c5452b57e345805f15cac9ca8ae2394da2575618413614 633dba2fb07c6cd6e830b1028a498889d89ef0b2a519d529931419a2c3249037 c393e24d6759edb62d93c5d59be6f70f6678aae321adf2f52fe76f22d375155f 0",
    );
}

#[test]
fn mpt_ledger_bytes_are_pinned() {
    check(
        SiriKind::MerklePatriciaTrie,
        &[
            "28 d7286b75a8b7f70ab29525cdf1122c1da09e2f236745aaf2647b2c322c6ccb35 4a7c5d09e62ca2255ea73cf3524d77e92317bdc130081dba76d44c2918af9d9c 5e03a6c521941d70f2ec196b45198bd39b2fb06d963f2e8028dfd5f5c112eb2f 1",
            "823 e8cfac1b80fd5143d51c00c57ff8997f661a7d6c7004f201c80e3fba030ea598",
            "612 481fead3159e6235b4b6817d7097f25ca91396c29cc182cc7aa64e791d854fb4",
            "5124 f5e46ab151f9147da46dff329fbe9a77839b768e21d26c3061cc6d2dd474fc6d",
            "160092 d559694dd21d4edbdafff0640bfbec522f4f203ef7532c53924068c65b2d60dd",
        ],
        "29 87e67c0b366596dfa6fe9775db300094a1d3c3d57559d991a206cac6b16d2698 095793b5fab852b20714c181d93571f9c41be7801253058d783ee3d32dbd662e f7f232351c8b8915690f723ba9ccace01e0f2bb08eb04ff63b54ea6f0ae0f262 1",
    );
}

#[test]
fn mbt_ledger_bytes_are_pinned() {
    check(
        SiriKind::MerkleBucketTree,
        &[
            "28 d01f1921354902cbe47e7aed0c61fe5dd31fc326a1f951029d86a33e748bcb77 454a4919c110958e66e98635876fd1188c6209c7a33db1fdb719e6ffc44037de 6ddf0dc69a26b11f8b354b09ba804c77ec3b779cd5c8444fcd15d40f4b98787a 2",
            "1823 e9c973b02ca1dea144c344673036d4fc6c14f43c5ef8cb784e921a36d72d8afb",
            "1788 9d87e61cc6ce21c64933984af26d04874a2cb2da9a17ed02d3b08e2820039cfe",
            "17915 941fdd75cef05e1f14b4db63d9c0316c9718ec9db1924744b3e7c2600150b783",
            "220901 cc2928a1257253930c7102d76ab39394c301c410a2c0da8e2e9f0cf3d7a955d4",
        ],
        "29 03e4578ba632ddd354526be5e9a16762bc929d57a6d88a8ac9a913a73bc4bb30 6cc8908cf2be7fb2e57396f19d7ac9a8799a768abc93b983361b5b06b13fd147 5bf96624e89a88c621fee37629c6269edd82ecabb241b6e8f03a9830ce69129f 2",
    );
}
