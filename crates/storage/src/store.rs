//! The chunk store: content-addressed, deduplicating physical storage.
//!
//! [`ChunkStore`] is the trait the rest of the system writes through;
//! [`InMemoryChunkStore`] is the default implementation used by the
//! evaluation (the paper's experiments also run against an in-process
//! ForkBase instance). The store deduplicates by content address and keeps
//! [`StoreStats`] that distinguish *logical* bytes (what callers wrote) from
//! *physical* bytes (what is actually retained) — the quantity plotted in
//! Figure 1.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use spitz_crypto::Hash;

use crate::chunk::{Chunk, ChunkKind};
use crate::error::StorageError;
use crate::Result;

/// The operational health of a chunk store, surfaced so serving layers can
/// route around sick storage instead of discovering failures one write at a
/// time.
///
/// Within a process lifetime health only rises (`Healthy → Degraded →
/// ReadOnly`), with one exception: a store degraded by exhausted
/// transient-I/O retries returns to `Healthy` after a run of clean writes.
/// A `Degraded` raised by a scrub quarantine and every `ReadOnly` hold until
/// the store is reopened, which resets health.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Fully operational.
    #[default]
    Healthy,
    /// Still writable, but something needs attention: transient I/O retries
    /// were exhausted, or a scrub quarantined a corrupt segment (with all
    /// live chunks salvaged).
    Degraded,
    /// Writes are rejected with [`StorageError::ReadOnly`]; verified reads
    /// keep serving. Entered on `ENOSPC`, fsync failure, torn appends whose
    /// tail could not be restored, or corruption that salvage could not
    /// fully repair.
    ReadOnly,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Degraded => write!(f, "degraded"),
            HealthState::ReadOnly => write!(f, "read-only"),
        }
    }
}

/// Aggregate statistics maintained by a chunk store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of distinct chunks physically retained.
    pub chunk_count: u64,
    /// Bytes physically retained (sum of [`Chunk::storage_size`] over
    /// distinct chunks).
    pub physical_bytes: u64,
    /// Bytes logically written (every `put`, including duplicates).
    pub logical_bytes: u64,
    /// Number of `put` calls that were absorbed by deduplication.
    pub dedup_hits: u64,
    /// Number of `get` calls served.
    pub reads: u64,
    /// Bytes occupied on the backing device (segment files for a durable
    /// store). For an in-memory store this equals `physical_bytes`.
    pub disk_bytes: u64,
    /// Bytes reachable from the named roots, as measured by the most recent
    /// mark-sweep pass. Zero until a compaction has run; an in-memory store
    /// reports `physical_bytes` (it never retains garbage it could drop).
    pub live_bytes: u64,
}

impl StoreStats {
    /// Fraction of logical bytes saved by deduplication, in `[0, 1]`.
    pub fn dedup_ratio(&self) -> f64 {
        if self.logical_bytes == 0 {
            0.0
        } else {
            1.0 - (self.physical_bytes as f64 / self.logical_bytes as f64)
        }
    }

    /// Bytes on the device that no root can reach: the compactor's fodder.
    /// Zero until a mark pass has established `live_bytes`.
    pub fn dead_bytes(&self) -> u64 {
        if self.live_bytes == 0 {
            0
        } else {
            self.disk_bytes.saturating_sub(self.live_bytes)
        }
    }

    /// Ratio of device bytes to live bytes (≥ 1.0 in steady state).
    ///
    /// `None` until a mark pass has measured `live_bytes`: before that the
    /// ratio has no denominator, and returning a made-up `1.0` (as this
    /// used to) hid real amplification from dashboards and triggers.
    pub fn space_amplification(&self) -> Option<f64> {
        if self.live_bytes == 0 {
            None
        } else {
            Some(self.disk_bytes as f64 / self.live_bytes as f64)
        }
    }
}

/// A content-addressed store of immutable chunks.
///
/// Implementations must be safe to share across threads; Spitz processor
/// nodes all write through the same store.
pub trait ChunkStore: Send + Sync {
    /// Store a chunk and return its content address. Storing an identical
    /// chunk twice is a no-op for physical storage.
    fn put(&self, chunk: Chunk) -> Hash;

    /// Fallible variant of [`ChunkStore::put`]: surfaces storage failures
    /// (disk full, I/O errors in a durable backend) as a [`StorageError`]
    /// instead of panicking. The default forwards to `put`, which cannot
    /// fail for in-memory stores.
    fn try_put(&self, chunk: Chunk) -> Result<Hash> {
        Ok(self.put(chunk))
    }

    /// Fetch a chunk by address.
    fn get(&self, address: &Hash) -> Result<Arc<Chunk>>;

    /// True when the store holds a chunk with this address.
    fn contains(&self, address: &Hash) -> bool;

    /// Current statistics snapshot.
    fn stats(&self) -> StoreStats;

    /// Verify the integrity of every stored chunk: its address must equal
    /// the hash of its contents. Returns the addresses that fail.
    ///
    /// This models an offline audit pass over the physical storage; for a
    /// durable store it re-reads and re-hashes every chunk on disk.
    fn audit(&self) -> Vec<Hash>;

    /// Persist a named root pointer (e.g. the ledger chain head).
    ///
    /// Root pointers are the only mutable cells in the otherwise
    /// content-addressed store — the same role git refs play over its object
    /// database. Stores without durability may keep them in memory; the
    /// default implementation discards them.
    fn set_root(&self, name: &str, hash: Hash) {
        let _ = (name, hash);
    }

    /// Fallible variant of [`ChunkStore::set_root`] (a durable backend can
    /// fail to append the root record). The default forwards to `set_root`.
    fn try_set_root(&self, name: &str, hash: Hash) -> Result<()> {
        self.set_root(name, hash);
        Ok(())
    }

    /// Read back a named root pointer. The default implementation knows no
    /// roots.
    fn root(&self, name: &str) -> Option<Hash> {
        let _ = name;
        None
    }

    /// Force everything written so far to stable storage. A no-op for
    /// stores without a durability notion (the default); a durable backend
    /// fsyncs its active log so that every chunk *and root publication*
    /// appended before this call survives a crash.
    fn sync(&self) -> Result<()> {
        Ok(())
    }

    /// Fetch a chunk and check that it has the expected kind.
    fn get_kind(&self, address: &Hash, expected: ChunkKind) -> Result<Arc<Chunk>> {
        let chunk = self.get(address)?;
        if chunk.kind() != expected {
            return Err(StorageError::WrongChunkKind {
                expected: expected.name(),
                found: chunk.kind().name(),
            });
        }
        Ok(chunk)
    }

    /// Current operational health. Stores without failure modes (the
    /// in-memory default) are always [`HealthState::Healthy`]; a durable
    /// backend reports degraded/read-only states here.
    fn health(&self) -> HealthState {
        HealthState::Healthy
    }
}

/// The default, thread-safe, in-memory chunk store.
#[derive(Debug, Default)]
pub struct InMemoryChunkStore {
    inner: RwLock<StoreInner>,
}

#[derive(Debug, Default)]
struct StoreInner {
    chunks: HashMap<Hash, Arc<Chunk>>,
    roots: HashMap<String, Hash>,
    stats: StoreStats,
}

impl InMemoryChunkStore {
    /// Create an empty store.
    pub fn new() -> Self {
        InMemoryChunkStore::default()
    }

    /// Create an empty store already wrapped in an [`Arc`], the form most
    /// components take it in.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Total number of distinct chunks of a particular kind (diagnostics).
    pub fn count_kind(&self, kind: ChunkKind) -> usize {
        self.inner
            .read()
            .chunks
            .values()
            .filter(|c| c.kind() == kind)
            .count()
    }
}

impl ChunkStore for InMemoryChunkStore {
    fn put(&self, chunk: Chunk) -> Hash {
        let address = chunk.address();
        let mut inner = self.inner.write();
        inner.stats.logical_bytes += chunk.storage_size() as u64;
        if inner.chunks.contains_key(&address) {
            inner.stats.dedup_hits += 1;
        } else {
            inner.stats.chunk_count += 1;
            inner.stats.physical_bytes += chunk.storage_size() as u64;
            inner.chunks.insert(address, Arc::new(chunk));
        }
        address
    }

    fn get(&self, address: &Hash) -> Result<Arc<Chunk>> {
        let mut inner = self.inner.write();
        inner.stats.reads += 1;
        inner
            .chunks
            .get(address)
            .cloned()
            .ok_or(StorageError::ChunkNotFound(*address))
    }

    fn contains(&self, address: &Hash) -> bool {
        self.inner.read().chunks.contains_key(address)
    }

    fn stats(&self) -> StoreStats {
        let mut stats = self.inner.read().stats;
        // Memory is the device, and nothing unreachable is ever retained
        // past a process lifetime — physical bytes are both quantities.
        stats.disk_bytes = stats.physical_bytes;
        stats.live_bytes = stats.physical_bytes;
        stats
    }

    fn audit(&self) -> Vec<Hash> {
        let inner = self.inner.read();
        inner
            .chunks
            .iter()
            .filter(|(addr, chunk)| chunk.address() != **addr)
            .map(|(addr, _)| *addr)
            .collect()
    }

    fn set_root(&self, name: &str, hash: Hash) {
        self.inner.write().roots.insert(name.to_string(), hash);
    }

    fn root(&self, name: &str) -> Option<Hash> {
        self.inner.read().roots.get(name).copied()
    }
}

/// A chunk store wrapper that verifies content addresses on every read,
/// turning silent tampering of the underlying store into an explicit
/// [`StorageError::IntegrityViolation`].
#[derive(Debug)]
pub struct VerifyingStore<S> {
    inner: S,
}

impl<S: ChunkStore> VerifyingStore<S> {
    /// Wrap a store with read-time verification.
    pub fn new(inner: S) -> Self {
        VerifyingStore { inner }
    }

    /// Access the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: ChunkStore> ChunkStore for VerifyingStore<S> {
    fn put(&self, chunk: Chunk) -> Hash {
        self.inner.put(chunk)
    }

    fn try_put(&self, chunk: Chunk) -> Result<Hash> {
        self.inner.try_put(chunk)
    }

    fn get(&self, address: &Hash) -> Result<Arc<Chunk>> {
        let chunk = self.inner.get(address)?;
        let actual = chunk.address();
        if actual != *address {
            return Err(StorageError::IntegrityViolation {
                expected: *address,
                actual,
            });
        }
        Ok(chunk)
    }

    fn contains(&self, address: &Hash) -> bool {
        self.inner.contains(address)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn audit(&self) -> Vec<Hash> {
        self.inner.audit()
    }

    fn set_root(&self, name: &str, hash: Hash) {
        self.inner.set_root(name, hash)
    }

    fn try_set_root(&self, name: &str, hash: Hash) -> Result<()> {
        self.inner.try_set_root(name, hash)
    }

    fn root(&self, name: &str) -> Option<Hash> {
        self.inner.root(name)
    }

    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }

    fn health(&self) -> HealthState {
        self.inner.health()
    }
}

impl<S: ChunkStore + ?Sized> ChunkStore for &S {
    fn put(&self, chunk: Chunk) -> Hash {
        (**self).put(chunk)
    }

    fn try_put(&self, chunk: Chunk) -> Result<Hash> {
        (**self).try_put(chunk)
    }

    fn get(&self, address: &Hash) -> Result<Arc<Chunk>> {
        (**self).get(address)
    }

    fn contains(&self, address: &Hash) -> bool {
        (**self).contains(address)
    }

    fn stats(&self) -> StoreStats {
        (**self).stats()
    }

    fn audit(&self) -> Vec<Hash> {
        (**self).audit()
    }

    fn set_root(&self, name: &str, hash: Hash) {
        (**self).set_root(name, hash)
    }

    fn try_set_root(&self, name: &str, hash: Hash) -> Result<()> {
        (**self).try_set_root(name, hash)
    }

    fn root(&self, name: &str) -> Option<Hash> {
        (**self).root(name)
    }

    fn sync(&self) -> Result<()> {
        (**self).sync()
    }

    fn get_kind(&self, address: &Hash, expected: ChunkKind) -> Result<Arc<Chunk>> {
        (**self).get_kind(address, expected)
    }

    fn health(&self) -> HealthState {
        (**self).health()
    }
}

impl<S: ChunkStore + ?Sized> ChunkStore for Arc<S> {
    fn put(&self, chunk: Chunk) -> Hash {
        (**self).put(chunk)
    }

    fn try_put(&self, chunk: Chunk) -> Result<Hash> {
        (**self).try_put(chunk)
    }

    fn get(&self, address: &Hash) -> Result<Arc<Chunk>> {
        (**self).get(address)
    }

    fn contains(&self, address: &Hash) -> bool {
        (**self).contains(address)
    }

    fn stats(&self) -> StoreStats {
        (**self).stats()
    }

    fn audit(&self) -> Vec<Hash> {
        (**self).audit()
    }

    fn set_root(&self, name: &str, hash: Hash) {
        (**self).set_root(name, hash)
    }

    fn try_set_root(&self, name: &str, hash: Hash) -> Result<()> {
        (**self).try_set_root(name, hash)
    }

    fn root(&self, name: &str) -> Option<Hash> {
        (**self).root(name)
    }

    fn sync(&self) -> Result<()> {
        (**self).sync()
    }

    fn get_kind(&self, address: &Hash, expected: ChunkKind) -> Result<Arc<Chunk>> {
        (**self).get_kind(address, expected)
    }

    fn health(&self) -> HealthState {
        (**self).health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(data: &[u8]) -> Chunk {
        Chunk::new(ChunkKind::Blob, data.to_vec())
    }

    #[test]
    fn put_get_roundtrip() {
        let store = InMemoryChunkStore::new();
        let addr = store.put(blob(b"hello"));
        let fetched = store.get(&addr).unwrap();
        assert_eq!(fetched.data(), b"hello");
        assert_eq!(fetched.kind(), ChunkKind::Blob);
    }

    #[test]
    fn missing_chunk_is_an_error() {
        let store = InMemoryChunkStore::new();
        let err = store.get(&spitz_crypto::sha256(b"nope")).unwrap_err();
        assert!(matches!(err, StorageError::ChunkNotFound(_)));
    }

    #[test]
    fn duplicate_puts_do_not_grow_physical_storage() {
        let store = InMemoryChunkStore::new();
        store.put(blob(b"same"));
        let s1 = store.stats();
        for _ in 0..10 {
            store.put(blob(b"same"));
        }
        let s2 = store.stats();
        assert_eq!(s1.physical_bytes, s2.physical_bytes);
        assert_eq!(s2.dedup_hits, 10);
        assert_eq!(s2.chunk_count, 1);
        assert!(s2.logical_bytes > s2.physical_bytes);
        assert!(s2.dedup_ratio() > 0.8);
    }

    #[test]
    fn distinct_chunks_accumulate() {
        let store = InMemoryChunkStore::new();
        for i in 0..100u32 {
            store.put(blob(&i.to_be_bytes()));
        }
        let stats = store.stats();
        assert_eq!(stats.chunk_count, 100);
        assert_eq!(stats.dedup_hits, 0);
        assert_eq!(stats.dedup_ratio(), 0.0);
    }

    #[test]
    fn space_accounting_fields_and_ratios() {
        let store = InMemoryChunkStore::new();
        let empty = store.stats();
        // No live-byte measurement yet: the ratio must say so, not fake 1.0.
        assert_eq!(empty.space_amplification(), None);
        assert_eq!(empty.dead_bytes(), 0);

        store.put(blob(b"hello"));
        let stats = store.stats();
        assert_eq!(stats.disk_bytes, stats.physical_bytes);
        assert_eq!(stats.live_bytes, stats.physical_bytes);
        assert_eq!(stats.space_amplification(), Some(1.0));
        assert_eq!(stats.dead_bytes(), 0);

        let skewed = StoreStats {
            disk_bytes: 300,
            live_bytes: 100,
            ..StoreStats::default()
        };
        assert_eq!(skewed.dead_bytes(), 200);
        assert!((skewed.space_amplification().unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn get_kind_checks_kind() {
        let store = InMemoryChunkStore::new();
        let addr = store.put(blob(b"x"));
        assert!(store.get_kind(&addr, ChunkKind::Blob).is_ok());
        let err = store.get_kind(&addr, ChunkKind::Meta).unwrap_err();
        assert!(matches!(err, StorageError::WrongChunkKind { .. }));
    }

    #[test]
    fn contains_and_count_kind() {
        let store = InMemoryChunkStore::new();
        let addr = store.put(blob(b"x"));
        store.put(Chunk::new(ChunkKind::Meta, &b"m"[..]));
        assert!(store.contains(&addr));
        assert!(!store.contains(&spitz_crypto::sha256(b"other")));
        assert_eq!(store.count_kind(ChunkKind::Blob), 1);
        assert_eq!(store.count_kind(ChunkKind::Meta), 1);
        assert_eq!(store.count_kind(ChunkKind::Commit), 0);
    }

    #[test]
    fn audit_of_honest_store_is_clean() {
        let store = InMemoryChunkStore::new();
        for i in 0..10u8 {
            store.put(blob(&[i]));
        }
        assert!(store.audit().is_empty());
    }

    #[test]
    fn root_pointers_roundtrip_and_overwrite() {
        let store = InMemoryChunkStore::new();
        assert_eq!(store.root("ledger/head"), None);
        let h1 = spitz_crypto::sha256(b"head-1");
        let h2 = spitz_crypto::sha256(b"head-2");
        store.set_root("ledger/head", h1);
        assert_eq!(store.root("ledger/head"), Some(h1));
        store.set_root("ledger/head", h2);
        assert_eq!(store.root("ledger/head"), Some(h2));
        assert_eq!(store.root("other"), None);
    }

    #[test]
    fn verifying_store_passes_through_honest_reads() {
        let store = VerifyingStore::new(InMemoryChunkStore::new());
        let addr = store.put(blob(b"v"));
        assert_eq!(store.get(&addr).unwrap().data(), b"v");
        assert!(store.contains(&addr));
        assert_eq!(store.stats().chunk_count, 1);
    }

    #[test]
    fn arc_store_is_usable_through_trait() {
        let store = InMemoryChunkStore::shared();
        let addr = ChunkStore::put(&store, blob(b"arc"));
        assert_eq!(store.get(&addr).unwrap().data(), b"arc");
    }

    #[test]
    fn concurrent_puts_deduplicate() {
        let store = InMemoryChunkStore::shared();
        let mut handles = Vec::new();
        for t in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    // Every thread writes the same 500 chunks.
                    store.put(Chunk::new(ChunkKind::Blob, i.to_be_bytes().to_vec()));
                }
                t
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.chunk_count, 500);
        assert_eq!(stats.dedup_hits, 7 * 500);
    }
}
