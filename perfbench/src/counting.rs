//! A `ChunkStore` wrapper that counts and times every call per chunk kind,
//! keeping the commit pipeline's `spitz-committer` thread apart from the
//! calling threads. Installed only in traced runs, through the databases'
//! caller-store constructors (`SpitzDb::with_store`, `ShardedDb::with_stores`).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use spitz_crypto::Hash;
use spitz_index::SiriKind;
use spitz_storage::{Chunk, ChunkKind, ChunkStore, HealthState, StoreStats};

/// Chunk kinds by their stable tag; tags past the table share the last slot.
const KINDS: usize = 8;
/// Thread classes: callers and the commit pipeline's committer.
pub const CALLER: usize = 0;
pub const COMMITTER: usize = 1;

fn kind_slot(kind: ChunkKind) -> usize {
    (kind.tag() as usize).min(KINDS - 1)
}

fn thread_class() -> usize {
    thread_local! {
        static CLASS: usize = match std::thread::current().name() {
            Some("spitz-committer") => COMMITTER,
            _ => CALLER,
        };
    }
    CLASS.with(|c| *c)
}

#[derive(Default)]
struct OpCounter {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl OpCounter {
    fn record(&self, started: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn load(&self) -> OpTotals {
        OpTotals {
            calls: self.calls.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
        }
    }
}

/// Totals of one call type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTotals {
    pub calls: u64,
    pub nanos: u64,
}

impl OpTotals {
    fn minus(self, before: OpTotals) -> OpTotals {
        OpTotals {
            calls: self.calls - before.calls,
            nanos: self.nanos - before.nanos,
        }
    }

    fn plus(self, other: OpTotals) -> OpTotals {
        OpTotals {
            calls: self.calls + other.calls,
            nanos: self.nanos + other.nanos,
        }
    }
}

/// A point-in-time copy of every counter, indexed `[thread class][kind]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub puts: [[OpTotals; KINDS]; 2],
    pub gets: [[OpTotals; KINDS]; 2],
}

impl Counts {
    /// Growth since `before`.
    pub fn since(&self, before: &Counts) -> Counts {
        let mut out = *self;
        for class in 0..2 {
            for kind in 0..KINDS {
                out.puts[class][kind] = self.puts[class][kind].minus(before.puts[class][kind]);
                out.gets[class][kind] = self.gets[class][kind].minus(before.gets[class][kind]);
            }
        }
        out
    }

    /// Puts of one kind, summed over thread classes.
    pub fn puts_of(&self, kind: ChunkKind) -> OpTotals {
        let slot = kind_slot(kind);
        self.puts[CALLER][slot].plus(self.puts[COMMITTER][slot])
    }

    /// Gets of one kind, summed over thread classes.
    pub fn gets_of(&self, kind: ChunkKind) -> OpTotals {
        let slot = kind_slot(kind);
        self.gets[CALLER][slot].plus(self.gets[COMMITTER][slot])
    }

    /// Every put of one thread class, summed over kinds.
    pub fn puts_by(&self, class: usize) -> OpTotals {
        sum(&self.puts[class])
    }

    /// Every get, summed over kinds and thread classes.
    pub fn all_gets(&self) -> OpTotals {
        sum(&self.gets[CALLER]).plus(sum(&self.gets[COMMITTER]))
    }

    /// Sum of several snapshots (one per shard).
    pub fn sum(all: &[Counts]) -> Counts {
        let mut out = Counts::default();
        for c in all {
            for class in 0..2 {
                for kind in 0..KINDS {
                    out.puts[class][kind] = out.puts[class][kind].plus(c.puts[class][kind]);
                    out.gets[class][kind] = out.gets[class][kind].plus(c.gets[class][kind]);
                }
            }
        }
        out
    }
}

fn sum(totals: &[OpTotals]) -> OpTotals {
    totals.iter().fold(OpTotals::default(), |a, b| a.plus(*b))
}

/// The counting and timing wrapper.
pub struct CountingStore {
    inner: Arc<dyn ChunkStore>,
    puts: [[OpCounter; KINDS]; 2],
    gets: [[OpCounter; KINDS]; 2],
    /// While `Some`, the payload of every index node put is kept, so a probe
    /// can tell which of the nodes one commit wrote its new root reaches.
    captured: Mutex<Option<HashMap<Hash, Chunk>>>,
}

impl CountingStore {
    pub fn new(inner: Arc<dyn ChunkStore>) -> Arc<CountingStore> {
        Arc::new(CountingStore {
            inner,
            puts: Default::default(),
            gets: Default::default(),
            captured: Mutex::new(None),
        })
    }

    pub fn counts(&self) -> Counts {
        let mut out = Counts::default();
        for class in 0..2 {
            for kind in 0..KINDS {
                out.puts[class][kind] = self.puts[class][kind].load();
                out.gets[class][kind] = self.gets[class][kind].load();
            }
        }
        out
    }

    /// Start keeping the index nodes written from now on.
    pub fn start_capture(&self) {
        *self.captured.lock().expect("capture lock poisoned") = Some(HashMap::new());
    }

    /// Stop keeping index nodes and count how many of those put since
    /// [`CountingStore::start_capture`] are reachable from `new_root`. The
    /// walk follows captured nodes only: a commit's new nodes form the top
    /// of the new tree version, above subtrees it left untouched.
    pub fn finish_capture(&self, kind: SiriKind, new_root: Hash) -> u64 {
        let captured = self
            .captured
            .lock()
            .expect("capture lock poisoned")
            .take()
            .unwrap_or_default();
        let mut reached = HashSet::new();
        let mut stack = vec![new_root];
        while let Some(address) = stack.pop() {
            let Some(chunk) = captured.get(&address) else {
                continue;
            };
            if reached.insert(address) {
                stack.extend(spitz_index::node_children(kind, chunk.data()).unwrap_or_default());
            }
        }
        reached.len() as u64
    }

    fn counted_put(&self, chunk: Chunk) -> spitz_storage::Result<Hash> {
        let slot = kind_slot(chunk.kind());
        // Chunk clones share the payload, so keeping one is cheap.
        let kept = (chunk.kind() == ChunkKind::IndexNode).then(|| chunk.clone());
        let started = Instant::now();
        let result = self.inner.try_put(chunk);
        self.puts[thread_class()][slot].record(started);
        if let (Ok(address), Some(chunk)) = (&result, kept) {
            if let Some(map) = self
                .captured
                .lock()
                .expect("capture lock poisoned")
                .as_mut()
            {
                map.insert(*address, chunk);
            }
        }
        result
    }
}

impl ChunkStore for CountingStore {
    fn put(&self, chunk: Chunk) -> Hash {
        self.counted_put(chunk).expect("chunk put failed")
    }

    fn try_put(&self, chunk: Chunk) -> spitz_storage::Result<Hash> {
        self.counted_put(chunk)
    }

    fn get(&self, address: &Hash) -> spitz_storage::Result<Arc<Chunk>> {
        let started = Instant::now();
        let result = self.inner.get(address);
        if let Ok(chunk) = &result {
            self.gets[thread_class()][kind_slot(chunk.kind())].record(started);
        }
        result
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

    fn try_set_root(&self, name: &str, hash: Hash) -> spitz_storage::Result<()> {
        self.inner.try_set_root(name, hash)
    }

    fn root(&self, name: &str) -> Option<Hash> {
        self.inner.root(name)
    }

    fn sync(&self) -> spitz_storage::Result<()> {
        self.inner.sync()
    }

    fn health(&self) -> HealthState {
        self.inner.health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spitz_storage::InMemoryChunkStore;

    #[test]
    fn counts_calls_per_kind_and_thread_class() {
        let store = CountingStore::new(InMemoryChunkStore::shared());
        let before = store.counts();
        let a = store.put(Chunk::new(ChunkKind::Blob, b"abc".to_vec()));
        store.put(Chunk::new(ChunkKind::Cell, b"cell".to_vec()));
        store.get(&a).unwrap();
        let inner = Arc::clone(&store);
        std::thread::Builder::new()
            .name("spitz-committer".into())
            .spawn(move || {
                inner.put(Chunk::new(ChunkKind::Block, b"block".to_vec()));
            })
            .unwrap()
            .join()
            .unwrap();
        let d = store.counts().since(&before);
        assert_eq!(d.puts_of(ChunkKind::Blob).calls, 1);
        assert_eq!(d.puts_of(ChunkKind::Cell).calls, 1);
        assert_eq!(d.puts[COMMITTER][kind_slot(ChunkKind::Block)].calls, 1);
        assert_eq!(d.puts_by(CALLER).calls, 2);
        assert_eq!(d.puts_by(COMMITTER).calls, 1);
        assert_eq!(d.gets_of(ChunkKind::Blob).calls, 1);
        assert_eq!(d.all_gets().calls, 1);
        assert_eq!(Counts::sum(&[d, d]).puts_by(CALLER).calls, 4);
    }
}
