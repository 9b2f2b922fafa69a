//! The `SpitzDb` facade: the public API of the Spitz verifiable database.
//!
//! `SpitzDb` owns a chunk store, the unified ledger, the group-commit
//! pipeline (durable instances) and a typed table layer (schemas, records,
//! inverted indexes for the analytical path). It exposes the operations the
//! paper's evaluation measures: point/range reads and writes, each with and
//! without verification. Every write is one ledger commit: the SIRI index
//! leaf holds the value, so no other copy is kept.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use parking_lot::RwLock;
use spitz_crypto::Hash;
use spitz_index::inverted::{IndexValue, InvertedIndex};
use spitz_index::BPlusTree;
use spitz_ledger::{
    CommitPipeline, Digest, DurabilityPolicy, Ledger, LedgerMultiProof, LedgerProof, VerifiedRange,
};
use spitz_obs::{Histogram, TelemetryHandle, TelemetrySnapshot};
use spitz_storage::{
    real_io, Chunk, ChunkKind, ChunkStore, CompactionReport, DurableChunkStore, DurableConfig,
    HealthState, InMemoryChunkStore, ScrubReport, SegmentIoHandle, StorageError, StoreStats,
};
use spitz_txn::{CcScheme, MvccStore, TimestampOracle, TransactionManager};

use crate::cell::UniversalKey;
use crate::error::DbError;
use crate::schema::{ColumnDef, ColumnType, Record, Schema, Value};
use crate::snapshot::Snapshot;
use crate::Result;

/// Named root under which the typed-table catalog (the set of
/// [`Schema`]s created with [`SpitzDb::create_table`]) is persisted, so a
/// reopened database still knows its tables.
pub const CATALOG_ROOT: &str = "spitz/catalog";

/// When the storage engine should compact itself.
///
/// Compaction is a mark-sweep pass over a durable instance's segment files:
/// chunks unreachable from the database's named roots (superseded index
/// nodes, rolled-back writes, aborted 2PC staging) are dropped by rewriting the
/// live survivors into fresh segments. The pass costs a full reachability
/// walk, so the trigger is deliberately coarse: never before
/// `min_disk_bytes` are on disk, and only while the measured
/// space amplification (disk bytes ÷ live bytes) exceeds `max_space_amp`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionTrigger {
    /// Do not compact while the store's segment files hold fewer total
    /// bytes than this — small stores are not worth a mark pass.
    pub min_disk_bytes: u64,
    /// Compact when `disk_bytes / live_bytes` exceeds this ratio (2.0 =
    /// "at most half the disk is garbage"). Before the first mark pass the
    /// live size is unknown and the size floor alone decides.
    pub max_space_amp: f64,
}

impl Default for CompactionTrigger {
    fn default() -> Self {
        CompactionTrigger {
            min_disk_bytes: 64 << 20,
            max_space_amp: 2.0,
        }
    }
}

/// Configuration for a Spitz instance.
#[derive(Debug, Clone, Copy)]
pub struct SpitzConfig {
    /// SIRI structure used by the ledger.
    pub siri: spitz_index::SiriKind,
    /// Durability policy of the commit pipeline that durable instances
    /// route writes through (see [`DurabilityPolicy`] for the trade-offs).
    /// Purely in-memory instances ([`SpitzDb::in_memory`] /
    /// [`SpitzDb::with_config`]) commit inline and ignore this field.
    pub durability: DurabilityPolicy,
    /// Automatic segment-compaction trigger for durable instances. `None`
    /// (the default) disables automatic compaction; [`SpitzDb::compact`]
    /// always works explicitly. When set, the write paths only perform a
    /// cheap watermark check and hand the actual trigger decision (and any
    /// resulting mark-sweep pass) to a background compactor thread, so a
    /// committing writer never pays for a compaction inline.
    pub compaction: Option<CompactionTrigger>,
    /// Background-scrub interval for durable instances. `None` (the
    /// default) disables the scrubber thread; [`SpitzDb::scrub`] always
    /// works explicitly. When set, a dedicated thread walks the sealed
    /// segments every interval verifying every record CRC off the hot
    /// path, and quarantines any corrupt segment it finds (salvaging the
    /// intact chunks — see [`DurableChunkStore::scrub`]).
    pub scrub_interval: Option<std::time::Duration>,
    /// Record telemetry (counters, latency histograms, event ring) for this
    /// instance. Enabled by default: every instrument is a relaxed atomic
    /// update, cheap enough for the hot paths the paper's figures measure.
    /// Disable to freeze all instruments to no-ops (a single predictable
    /// branch per call site).
    pub telemetry: bool,
}

impl Default for SpitzConfig {
    fn default() -> Self {
        SpitzConfig {
            siri: spitz_index::SiriKind::PosTree,
            durability: DurabilityPolicy::Strict,
            compaction: None,
            scrub_interval: None,
            telemetry: true,
        }
    }
}

impl SpitzConfig {
    /// This configuration with a different durability policy.
    pub fn with_durability(mut self, durability: DurabilityPolicy) -> Self {
        self.durability = durability;
        self
    }

    /// This configuration with automatic compaction governed by `trigger`.
    pub fn with_compaction(mut self, trigger: CompactionTrigger) -> Self {
        self.compaction = Some(trigger);
        self
    }

    /// This configuration with a background scrub pass every `interval`.
    pub fn with_scrub_interval(mut self, interval: std::time::Duration) -> Self {
        self.scrub_interval = Some(interval);
        self
    }

    /// This configuration with telemetry recording switched on or off.
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// A fresh [`TelemetryHandle`] honouring this configuration's
    /// `telemetry` flag.
    pub(crate) fn telemetry_handle(&self) -> TelemetryHandle {
        if self.telemetry {
            TelemetryHandle::new()
        } else {
            TelemetryHandle::disabled()
        }
    }
}

/// Typed table state: schema, per-column inverted indexes and a B+-tree from
/// primary keys to the record's latest commit timestamp.
struct Table {
    schema: Schema,
    /// First universal-key column id of this table. Column ids are
    /// allocated globally (`base + position`), so two tables never share a
    /// universal-key range — which is what lets the catalog rebuild scan
    /// each table's cells unambiguously.
    column_base: u32,
    inverted: HashMap<String, InvertedIndex>,
    primary: BPlusTree<u64>,
    next_timestamp: u64,
}

impl Table {
    /// Fresh table state for a schema: one empty inverted index per column.
    fn empty(schema: Schema, column_base: u32) -> Table {
        let mut inverted = HashMap::new();
        for column in &schema.columns {
            let index = match column.column_type {
                ColumnType::Integer => InvertedIndex::numeric(),
                ColumnType::Text | ColumnType::Bytes => InvertedIndex::text(),
            };
            inverted.insert(column.name.clone(), index);
        }
        Table {
            schema,
            column_base,
            inverted,
            primary: BPlusTree::new(),
            next_timestamp: 1,
        }
    }

    /// The universal-key column id of a named column.
    fn column_id(&self, name: &str) -> Result<u32> {
        Ok(self.column_base + self.schema.column_id(name)?)
    }
}

/// The inverted-index key for a typed value.
fn index_value_of(value: &Value) -> IndexValue {
    match value {
        Value::Integer(v) => IndexValue::Int(*v),
        Value::Text(s) => IndexValue::text(s.as_bytes()),
        Value::Bytes(b) => IndexValue::text(b),
    }
}

const CATALOG_MAGIC: &[u8] = b"spitz-catalog\0";

/// Payload of the catalog chunk: magic ‖ table count ‖ per table (name,
/// column base, column count, per column (name, type tag)). Uses the shared
/// `spitz_index::codec` framing helpers.
fn encode_catalog(tables: &[(&Schema, u32)]) -> Vec<u8> {
    use spitz_index::codec::{put_bytes, put_u32};
    let mut out = Vec::new();
    out.extend_from_slice(CATALOG_MAGIC);
    put_u32(&mut out, tables.len() as u32);
    for (schema, column_base) in tables {
        put_bytes(&mut out, schema.table.as_bytes());
        put_u32(&mut out, *column_base);
        put_u32(&mut out, schema.columns.len() as u32);
        for column in &schema.columns {
            put_bytes(&mut out, column.name.as_bytes());
            out.push(match column.column_type {
                ColumnType::Integer => 0,
                ColumnType::Text => 1,
                ColumnType::Bytes => 2,
            });
        }
    }
    out
}

/// Inverse of [`encode_catalog`]: `(schema, column_base)` per table. `None`
/// for malformed bytes.
fn decode_catalog(bytes: &[u8]) -> Option<Vec<(Schema, u32)>> {
    let bytes = bytes.strip_prefix(CATALOG_MAGIC)?;
    let mut r = spitz_index::codec::Reader::new(bytes);
    let table_count = r.u32()? as usize;
    let mut tables = Vec::with_capacity(table_count);
    for _ in 0..table_count {
        let table = String::from_utf8(r.bytes()?.to_vec()).ok()?;
        let column_base = r.u32()?;
        let column_count = r.u32()? as usize;
        let mut columns = Vec::with_capacity(column_count);
        for _ in 0..column_count {
            let name = String::from_utf8(r.bytes()?.to_vec()).ok()?;
            let column_type = match r.u8()? {
                0 => ColumnType::Integer,
                1 => ColumnType::Text,
                2 => ColumnType::Bytes,
                _ => return None,
            };
            columns.push(ColumnDef { name, column_type });
        }
        tables.push((Schema { table, columns }, column_base));
    }
    r.is_exhausted().then_some(tables)
}

/// Proof-layer instruments, resolved once at construction so the verified
/// read paths never touch the registry maps.
struct ProofObs {
    /// Mirror of [`TelemetryHandle::is_enabled`]: lets the hot paths skip
    /// computing `encoded_len` when nothing records it.
    enabled: bool,
    point_build_nanos: Arc<Histogram>,
    point_bytes: Arc<Histogram>,
    range_build_nanos: Arc<Histogram>,
    range_bytes: Arc<Histogram>,
    multi_build_nanos: Arc<Histogram>,
    multi_bytes: Arc<Histogram>,
}

impl ProofObs {
    fn new(telemetry: &TelemetryHandle) -> Self {
        ProofObs {
            enabled: telemetry.is_enabled(),
            point_build_nanos: telemetry.histogram("proof.point_build_nanos"),
            point_bytes: telemetry.histogram("proof.point_bytes"),
            range_build_nanos: telemetry.histogram("proof.range_build_nanos"),
            range_bytes: telemetry.histogram("proof.range_bytes"),
            multi_build_nanos: telemetry.histogram("proof.multi_build_nanos"),
            multi_bytes: telemetry.histogram("proof.multi_bytes"),
        }
    }
}

/// Everything the background compactor needs to evaluate the trigger and
/// run a pass without borrowing the owning [`SpitzDb`].
struct CompactionCtx {
    store: Arc<dyn ChunkStore>,
    ledger: Arc<Ledger>,
    durable: Arc<DurableChunkStore>,
    trigger: CompactionTrigger,
    /// Shared with [`SpitzDb::compact_floor`]; see that field's docs.
    floor: Arc<AtomicU64>,
}

impl CompactionCtx {
    /// The cheap inline check a committing writer performs: has the disk
    /// footprint crossed the re-armed watermark? One atomic load plus a
    /// stats read — everything heavier happens on the compactor thread.
    fn should_wake(&self) -> bool {
        let stored = self.floor.load(Ordering::Relaxed);
        if stored == u64::MAX {
            // A pass claimed the trigger and is still running.
            return false;
        }
        self.durable.stats().disk_bytes >= stored.max(self.trigger.min_disk_bytes)
    }

    /// Full trigger decision, run on the compactor thread. Compaction
    /// failures are swallowed (the next explicit [`SpitzDb::compact`]
    /// surfaces them) so a GC hiccup never fails a commit.
    fn run_trigger(&self) {
        let stored = self.floor.load(Ordering::Relaxed);
        if stored == u64::MAX {
            return;
        }
        let stats = self.durable.stats();
        if stats.disk_bytes < stored.max(self.trigger.min_disk_bytes) {
            return;
        }
        if let Some(amp) = stats.space_amplification() {
            if amp < self.trigger.max_space_amp {
                // Mostly-live growth: push the next check out instead of
                // re-evaluating the trigger on every subsequent commit.
                self.floor.store(
                    stats
                        .disk_bytes
                        .saturating_add(self.trigger.min_disk_bytes / 2),
                    Ordering::Relaxed,
                );
                return;
            }
        }
        // Claim the trigger for the duration of the (long) pass; `compact`
        // re-arms the floor whether the pass succeeds or fails.
        if self
            .floor
            .compare_exchange(stored, u64::MAX, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let _ = self.compact();
    }

    /// Mark, sweep, and re-arm the watermark above the post-pass footprint
    /// (also on error, so a failed pass cannot wedge the trigger into
    /// re-running the mark after every commit).
    fn compact(&self) -> std::result::Result<Option<CompactionReport>, StorageError> {
        let result = self.durable.compact_with(|| self.collect_live());
        self.floor.store(
            self.durable
                .stats()
                .disk_bytes
                .saturating_add(self.trigger.min_disk_bytes / 2),
            Ordering::Relaxed,
        );
        result
    }

    /// The same mark phase as [`SpitzDb::collect_live`], reachable from the
    /// compactor thread.
    fn collect_live(&self) -> std::result::Result<HashSet<Hash>, StorageError> {
        let mut live = HashSet::new();
        self.ledger.collect_live(&mut live)?;
        for (name, address) in self.durable.roots() {
            live.insert(address);
            crate::staged::collect_staged_references(&self.store, &name, address, &mut live)?;
        }
        Ok(live)
    }
}

/// Wake/idle handshake between committing writers and the compactor thread.
#[derive(Default)]
struct CompactorState {
    /// A writer crossed the watermark since the last trigger evaluation.
    pending: bool,
    /// The compactor thread is currently evaluating the trigger or running
    /// a pass.
    busy: bool,
    /// Drop requested the thread exit.
    shutdown: bool,
}

struct CompactorShared {
    state: Mutex<CompactorState>,
    /// Signalled by writers when `pending` is set and by Drop on shutdown.
    wake: Condvar,
    /// Signalled by the compactor thread whenever it finishes a trigger
    /// evaluation; [`Compactor::quiesce`] waits on it.
    idle: Condvar,
}

/// The background compaction worker: owns the thread that evaluates the
/// automatic [`CompactionTrigger`] off the committing writers' critical
/// path.
struct Compactor {
    ctx: Arc<CompactionCtx>,
    shared: Arc<CompactorShared>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Compactor {
    fn spawn(ctx: CompactionCtx) -> Compactor {
        let ctx = Arc::new(ctx);
        let shared = Arc::new(CompactorShared {
            state: Mutex::new(CompactorState::default()),
            wake: Condvar::new(),
            idle: Condvar::new(),
        });
        let thread_ctx = Arc::clone(&ctx);
        let thread_shared = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name("spitz-compactor".into())
            .spawn(move || Self::worker(thread_ctx, thread_shared))
            .expect("spawn compactor thread");
        Compactor {
            ctx,
            shared,
            thread: Some(thread),
        }
    }

    fn worker(ctx: Arc<CompactionCtx>, shared: Arc<CompactorShared>) {
        loop {
            let mut state = shared.state.lock().expect("compactor state poisoned");
            while !state.pending && !state.shutdown {
                state = shared.wake.wait(state).expect("compactor state poisoned");
            }
            if state.shutdown {
                // Skip any still-pending evaluation: the database is being
                // dropped, so reclaiming space no longer matters.
                return;
            }
            state.pending = false;
            state.busy = true;
            drop(state);
            ctx.run_trigger();
            let mut state = shared.state.lock().expect("compactor state poisoned");
            state.busy = false;
            shared.idle.notify_all();
        }
    }

    /// Called by writers after publishing a commit: if the watermark is
    /// crossed, hand the trigger decision to the compactor thread.
    fn maybe_nudge(&self) {
        if !self.ctx.should_wake() {
            return;
        }
        let mut state = self.shared.state.lock().expect("compactor state poisoned");
        if !state.pending {
            state.pending = true;
            self.shared.wake.notify_one();
        }
    }

    /// Block until the compactor has no queued nudge and no pass in flight,
    /// so callers observe the effects of every compaction their own writes
    /// triggered.
    fn quiesce(&self) {
        let mut state = self.shared.state.lock().expect("compactor state poisoned");
        while state.pending || state.busy {
            state = self
                .shared
                .idle
                .wait(state)
                .expect("compactor state poisoned");
        }
    }

    fn shutdown(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("compactor state poisoned");
            state.shutdown = true;
            self.shared.wake.notify_one();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Wake/idle handshake between callers and the scrubber thread.
#[derive(Default)]
struct ScrubberState {
    /// The scrubber thread is currently running a pass.
    busy: bool,
    /// Drop requested the thread exit.
    shutdown: bool,
}

struct ScrubberShared {
    state: Mutex<ScrubberState>,
    /// Signalled by Drop on shutdown (the periodic wake-ups come from the
    /// wait timeout).
    wake: Condvar,
    /// Signalled by the scrubber thread whenever a pass finishes;
    /// [`Scrubber::quiesce`] waits on it.
    idle: Condvar,
}

/// The background integrity scrubber: a thread that CRC-walks the sealed
/// segments every interval, entirely off the commit path. Corruption it
/// finds is quarantined by [`DurableChunkStore::scrub`]; errors never
/// propagate to writers (the store's health state and telemetry carry the
/// outcome).
struct Scrubber {
    shared: Arc<ScrubberShared>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Scrubber {
    fn spawn(durable: Arc<DurableChunkStore>, interval: std::time::Duration) -> Scrubber {
        let shared = Arc::new(ScrubberShared {
            state: Mutex::new(ScrubberState::default()),
            wake: Condvar::new(),
            idle: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name("spitz-scrubber".into())
            .spawn(move || Self::worker(durable, thread_shared, interval))
            .expect("spawn scrubber thread");
        Scrubber {
            shared,
            thread: Some(thread),
        }
    }

    fn worker(
        durable: Arc<DurableChunkStore>,
        shared: Arc<ScrubberShared>,
        interval: std::time::Duration,
    ) {
        loop {
            {
                let state = shared.state.lock().expect("scrubber state poisoned");
                if state.shutdown {
                    return;
                }
                let (state, _timeout) = shared
                    .wake
                    .wait_timeout(state, interval)
                    .expect("scrubber state poisoned");
                if state.shutdown {
                    return;
                }
            }
            {
                let mut state = shared.state.lock().expect("scrubber state poisoned");
                state.busy = true;
            }
            // A pass that errors mid-swap has already raised the store's
            // health and emitted events; the next interval retries.
            let _ = durable.scrub();
            let mut state = shared.state.lock().expect("scrubber state poisoned");
            state.busy = false;
            shared.idle.notify_all();
        }
    }

    /// Block until no pass is in flight (a newly started interval wait is
    /// fine — callers only need the effects of passes that already began).
    fn quiesce(&self) {
        let mut state = self.shared.state.lock().expect("scrubber state poisoned");
        while state.busy {
            state = self
                .shared
                .idle
                .wait(state)
                .expect("scrubber state poisoned");
        }
    }

    fn shutdown(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("scrubber state poisoned");
            state.shutdown = true;
            self.shared.wake.notify_one();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A processor node's transaction manager (MVCC with OCC validation).
///
/// Writes do not run through it: [`SpitzDb::put`] and
/// [`SpitzDb::put_batch`] commit straight to the ledger, so its version
/// store stays empty unless a caller opens transactions on it directly.
/// It is kept because the `perfbench` `ingest` workload reads its version
/// count through [`SpitzDb::processor`] (`core.mvcc_versions_per_put`).
pub struct ProcessorNode {
    manager: TransactionManager,
}

impl ProcessorNode {
    fn new() -> Self {
        let oracle = Arc::new(TimestampOracle::new());
        ProcessorNode {
            manager: TransactionManager::new(Arc::new(MvccStore::new()), oracle, CcScheme::Occ),
        }
    }

    /// The node's transaction manager.
    pub fn manager(&self) -> &TransactionManager {
        &self.manager
    }
}

/// The Spitz verifiable database.
pub struct SpitzDb {
    store: Arc<dyn ChunkStore>,
    ledger: Arc<Ledger>,
    processor: ProcessorNode,
    tables: RwLock<HashMap<String, Table>>,
    /// Present on durable instances: the group-commit pipeline writes are
    /// routed through. Shut down (drained + synced) when the db drops.
    pipeline: Option<Arc<CommitPipeline>>,
    /// Present on instances opened over a [`DurableChunkStore`]: the
    /// concrete handle the compaction entry points need (the trait object
    /// in `store` cannot run a mark-sweep pass).
    durable: Option<Arc<DurableChunkStore>>,
    /// Automatic-compaction trigger, `None` when disabled.
    compaction: Option<CompactionTrigger>,
    /// Disk-byte watermark below which the automatic trigger skips even the
    /// stats check. Re-armed after every compaction (and after a pass is
    /// judged unnecessary) so a hot write path does not re-evaluate the
    /// trigger on every commit. Shared with the background compactor.
    compact_floor: Arc<AtomicU64>,
    /// Background compaction worker, present when automatic compaction is
    /// configured on a durable instance. Joined (after a best-effort
    /// shutdown signal) before the pipeline drains on drop.
    compactor: Option<Compactor>,
    /// Background integrity scrubber, present when a scrub interval is
    /// configured on a durable instance. Joined on drop.
    scrubber: Option<Scrubber>,
    /// Telemetry registry shared by every layer of this instance (storage,
    /// pipeline, proofs; the sharded wrapper adds 2PC).
    telemetry: TelemetryHandle,
    /// Proof-layer instruments (build latency and proof bytes).
    proof_obs: ProofObs,
}

impl SpitzDb {
    /// Create an in-memory instance with the default configuration (POS-Tree
    /// ledger) — the configuration evaluated in the paper.
    pub fn in_memory() -> Self {
        Self::with_config(SpitzConfig::default())
    }

    /// Create an instance with an explicit configuration.
    pub fn with_config(config: SpitzConfig) -> Self {
        let telemetry = config.telemetry_handle();
        Self::with_config_and_telemetry(config, telemetry)
    }

    /// In-memory construction over a caller-supplied telemetry handle (the
    /// sharded wrapper shares one registry across all shards).
    pub(crate) fn with_config_and_telemetry(
        config: SpitzConfig,
        telemetry: TelemetryHandle,
    ) -> Self {
        let raw = InMemoryChunkStore::shared();
        let store: Arc<dyn ChunkStore> = raw;
        let ledger = Arc::new(Ledger::with_kind(Arc::clone(&store), config.siri));
        // Purely in-memory instances commit inline: there is no fsync to
        // amortize, so the pipeline's thread hop would be pure overhead on
        // the hot path the paper's figures measure.
        Self::assemble(store, ledger, config, false, telemetry)
    }

    /// Open (or create) a durable instance persisted under `path` with the
    /// default configuration.
    ///
    /// The chunk store, ledger blocks and index instances all live in
    /// append-only segment files under `path`; reopening the same path
    /// recovers the identical digest, chain head and records roots, and
    /// keeps serving verifying Merkle proofs. The typed-table catalog of
    /// [`SpitzDb::create_table`] is persisted under the [`CATALOG_ROOT`]
    /// named root and rebuilt (schemas plus analytical indexes, by scanning
    /// the ledger's universal-key ranges) on reopen.
    /// Writes are routed through a group-commit pipeline with
    /// the default [`DurabilityPolicy::Strict`] — every acknowledged commit
    /// is fsynced; pick `Grouped` via [`SpitzDb::open_with_config`] to
    /// amortize the fsync across commits instead.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_config(path, SpitzConfig::default())
    }

    /// Open (or create) a durable instance under `path` with an explicit
    /// Spitz configuration. `config.siri` must match the kind the database
    /// was created with.
    pub fn open_with_config(path: impl AsRef<Path>, config: SpitzConfig) -> Result<Self> {
        Self::open_with_configs(path, config, DurableConfig::default())
    }

    /// Open (or create) a durable instance with explicit Spitz *and*
    /// storage tuning (segment size, chunk-cache budget, fsync policy).
    pub fn open_with_configs(
        path: impl AsRef<Path>,
        config: SpitzConfig,
        durable: DurableConfig,
    ) -> Result<Self> {
        let telemetry = config.telemetry_handle();
        Self::open_with_telemetry(path, config, durable, telemetry)
    }

    /// Open (or create) a durable instance with a caller-supplied
    /// [`SegmentIoHandle`] installed beneath the store's file I/O. The
    /// production handle is [`real_io`]; fault-injection harnesses install
    /// a seeded injector here to drive torn writes, bit flips, `ENOSPC`,
    /// and fsync failures through the *real* recovery, retry and health
    /// machinery.
    pub fn open_with_io(
        path: impl AsRef<Path>,
        config: SpitzConfig,
        durable: DurableConfig,
        io: SegmentIoHandle,
    ) -> Result<Self> {
        let telemetry = config.telemetry_handle();
        Self::open_full(path, config, durable, telemetry, io)
    }

    /// Durable construction over a caller-supplied telemetry handle (the
    /// sharded wrapper shares one registry across all shards).
    pub(crate) fn open_with_telemetry(
        path: impl AsRef<Path>,
        config: SpitzConfig,
        durable: DurableConfig,
        telemetry: TelemetryHandle,
    ) -> Result<Self> {
        Self::open_full(path, config, durable, telemetry, real_io())
    }

    pub(crate) fn open_full(
        path: impl AsRef<Path>,
        config: SpitzConfig,
        durable: DurableConfig,
        telemetry: TelemetryHandle,
        io: SegmentIoHandle,
    ) -> Result<Self> {
        let concrete = Arc::new(DurableChunkStore::open_with_io(
            path,
            durable,
            telemetry.clone(),
            io,
        )?);
        let store: Arc<dyn ChunkStore> = Arc::clone(&concrete) as Arc<dyn ChunkStore>;
        let mut db = Self::with_store_and_telemetry(store, config, telemetry)?;
        // Keep the concrete handle: compaction needs the segment-level API
        // the `ChunkStore` trait object does not expose.
        db.durable = Some(Arc::clone(&concrete));
        if let Some(trigger) = config.compaction {
            db.compactor = Some(Compactor::spawn(CompactionCtx {
                store: Arc::clone(&db.store),
                ledger: Arc::clone(&db.ledger),
                durable: Arc::clone(&concrete),
                trigger,
                floor: Arc::clone(&db.compact_floor),
            }));
        }
        if let Some(interval) = config.scrub_interval {
            db.scrubber = Some(Scrubber::spawn(concrete, interval));
        }
        Ok(db)
    }

    /// Build an instance over any chunk store, recovering a persisted
    /// ledger if the store holds one (the reopen path for custom backends).
    /// Writes go through a group-commit pipeline governed by
    /// `config.durability`.
    pub fn with_store(store: Arc<dyn ChunkStore>, config: SpitzConfig) -> Result<Self> {
        let telemetry = config.telemetry_handle();
        Self::with_store_and_telemetry(store, config, telemetry)
    }

    pub(crate) fn with_store_and_telemetry(
        store: Arc<dyn ChunkStore>,
        config: SpitzConfig,
        telemetry: TelemetryHandle,
    ) -> Result<Self> {
        let ledger = Arc::new(Ledger::open_with_kind(Arc::clone(&store), config.siri)?);
        let db = Self::assemble(store, ledger, config, true, telemetry);
        db.reload_catalog()?;
        Ok(db)
    }

    fn assemble(
        store: Arc<dyn ChunkStore>,
        ledger: Arc<Ledger>,
        config: SpitzConfig,
        group_commit: bool,
        telemetry: TelemetryHandle,
    ) -> Self {
        let pipeline = group_commit.then(|| {
            CommitPipeline::with_telemetry(
                Arc::clone(&ledger),
                config.durability,
                telemetry.clone(),
            )
        });
        let proof_obs = ProofObs::new(&telemetry);
        SpitzDb {
            store,
            ledger,
            processor: ProcessorNode::new(),
            tables: RwLock::new(HashMap::new()),
            pipeline,
            durable: None,
            compaction: config.compaction,
            compact_floor: Arc::new(AtomicU64::new(0)),
            compactor: None,
            scrubber: None,
            telemetry,
            proof_obs,
        }
    }

    /// The processor node (see [`ProcessorNode`] for why it remains).
    pub fn processor(&self) -> &ProcessorNode {
        &self.processor
    }

    /// The group-commit pipeline, present on durable instances.
    pub fn pipeline(&self) -> Option<&Arc<CommitPipeline>> {
        self.pipeline.as_ref()
    }

    /// Drain the commit pipeline (if any) and force everything written so
    /// far onto stable storage, regardless of the durability policy. Also
    /// waits out any automatic compaction the flushed writes triggered, so
    /// storage statistics read after a flush reflect every pass those
    /// writes caused.
    pub fn flush(&self) -> Result<()> {
        match &self.pipeline {
            Some(pipeline) => pipeline.flush()?,
            None => self.store.sync()?,
        }
        if let Some(compactor) = &self.compactor {
            compactor.quiesce();
        }
        if let Some(scrubber) = &self.scrubber {
            scrubber.quiesce();
        }
        Ok(())
    }

    /// A point-in-time snapshot of every telemetry instrument this
    /// instance has touched, across the storage, commit-pipeline and proof
    /// layers (plus 2PC on sharded deployments, which share the registry).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// The live telemetry handle backing [`SpitzDb::telemetry`] (for
    /// resolving instruments or recording application-level events).
    pub fn telemetry_handle(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// The unified ledger.
    pub fn ledger(&self) -> &Arc<Ledger> {
        &self.ledger
    }

    /// The backing chunk store.
    pub fn store(&self) -> &Arc<dyn ChunkStore> {
        &self.store
    }

    /// Storage statistics of the backing chunk store.
    pub fn storage_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// The concrete durable store, when this instance was opened over one
    /// (compaction diagnostics, fault-injection tests).
    pub fn durable_store(&self) -> Option<&Arc<DurableChunkStore>> {
        self.durable.as_ref()
    }

    /// The GC mark phase: every chunk address this database can still
    /// reach. The set spans the ledger (block chain, head index version,
    /// index roots pinned by live snapshots — see `Ledger::collect_live`),
    /// the target chunk of every named root (catalog, shard membership,
    /// cross-shard head, 2PC logs), and the staged-writes chunks referenced
    /// by the 2PC staged/decision logs. Everything else in the store is
    /// reclaimable garbage.
    ///
    /// Only meaningful on durable instances; returns an error when called
    /// on an in-memory one.
    pub fn collect_live(&self) -> std::result::Result<HashSet<Hash>, StorageError> {
        let durable = self
            .durable
            .as_ref()
            .ok_or_else(|| StorageError::KeyNotFound("no durable store to mark".into()))?;
        let mut live = HashSet::new();
        self.ledger.collect_live(&mut live)?;
        for (name, address) in durable.roots() {
            live.insert(address);
            crate::staged::collect_staged_references(&self.store, &name, address, &mut live)?;
        }
        Ok(live)
    }

    /// Compact the durable store: mark everything reachable (see
    /// [`SpitzDb::collect_live`]), rewrite the live chunks out of sealed
    /// segments into fresh ones, and delete the old segment files.
    ///
    /// Readers are never blocked — concurrent verified reads, pinned
    /// snapshots and writers keep working throughout, and the digest is
    /// unchanged by construction (compaction moves chunks, it never alters
    /// them). Returns `Ok(None)` on in-memory instances and when the store
    /// has nothing to compact; errors leave the store exactly as it was.
    pub fn compact(&self) -> Result<Option<CompactionReport>> {
        let Some(durable) = self.durable.as_ref() else {
            return Ok(None);
        };
        let result = durable.compact_with(|| self.collect_live());
        // Re-arm the automatic trigger above the post-pass footprint (also
        // on error, so a failed pass cannot wedge the write path into
        // retrying the mark on every commit).
        let pad = self
            .compaction
            .map(|t| t.min_disk_bytes / 2)
            .unwrap_or_default();
        self.compact_floor.store(
            durable.stats().disk_bytes.saturating_add(pad),
            Ordering::Relaxed,
        );
        Ok(result?)
    }

    /// The health of the backing store. [`HealthState::Healthy`] in normal
    /// operation; [`HealthState::Degraded`] after exhausted transient-I/O
    /// retries or a fully salvaged quarantine; [`HealthState::ReadOnly`]
    /// once the device is out of space, a write path failed unrecoverably,
    /// or a scrub lost data — verified reads keep serving while every write
    /// fails fast with [`DbError::ReadOnly`]. In-memory instances are
    /// always healthy.
    pub fn health(&self) -> HealthState {
        self.store.health()
    }

    /// Why the store is degraded or read-only. `None` on non-durable
    /// instances, `Some("")` while healthy.
    pub fn health_reason(&self) -> Option<String> {
        self.durable.as_ref().map(|d| d.health_reason())
    }

    /// Run one synchronous scrub pass over the durable store's sealed
    /// segments: verify every record CRC and quarantine (with salvage) any
    /// corrupt segment found. Returns `Ok(None)` on in-memory instances.
    /// The background scrubber (see [`SpitzConfig::scrub_interval`]) runs
    /// the same pass periodically.
    pub fn scrub(&self) -> Result<Option<ScrubReport>> {
        let Some(durable) = self.durable.as_ref() else {
            return Ok(None);
        };
        Ok(Some(durable.scrub()?))
    }

    /// Post-commit hook on the write paths: when automatic compaction is
    /// configured, perform the cheap watermark check and (only if crossed)
    /// wake the background compactor. The trigger decision itself — and
    /// any resulting mark-sweep pass — runs entirely off this thread.
    fn nudge_compactor(&self) {
        if let Some(compactor) = &self.compactor {
            compactor.maybe_nudge();
        }
    }

    /// The current database digest (what clients pin).
    pub fn digest(&self) -> Digest {
        self.ledger.digest()
    }

    /// Pin the current state as a [`Snapshot`]: quiesce the commit pipeline
    /// (when one exists), then capture the digest and an index checkout in
    /// one step. All reads against the snapshot are repeatable and their
    /// proofs verify against the pinned digest while writers keep
    /// committing ("pin once, verify many").
    pub fn snapshot(&self) -> Result<Snapshot> {
        if let Some(pipeline) = &self.pipeline {
            pipeline.fence()?;
        }
        Ok(Snapshot::new(self.ledger.snapshot()?))
    }

    // ------------------------------------------------------------------
    // Key/value API (the operations measured in Figures 6–8)
    // ------------------------------------------------------------------

    /// Write one key/value pair (sealed as its own ledger block, or as part
    /// of a shared block when the commit pipeline groups it).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<Digest> {
        Ok(self.commit(vec![(key.to_vec(), value.to_vec())], "PUT")?)
    }

    /// Write a batch atomically as one ledger block.
    pub fn put_batch(&self, writes: Vec<(Vec<u8>, Vec<u8>)>) -> Result<Digest> {
        Ok(self.commit(writes, "PUT BATCH")?)
    }

    /// The one write path: seal `writes` into the ledger, through the
    /// group-commit pipeline when one exists, then give the automatic
    /// compactor its watermark check. Cross-shard 2PC commits and their
    /// recovery redo land here too.
    ///
    /// A failed commit (disk full in a durable store) leaves nothing
    /// readable: the ledger rolls its index back before returning the error.
    pub(crate) fn commit(
        &self,
        writes: Vec<(Vec<u8>, Vec<u8>)>,
        statement: &str,
    ) -> std::result::Result<Digest, StorageError> {
        let digest = match &self.pipeline {
            Some(pipeline) => pipeline.commit(writes, statement)?,
            None => self.ledger.try_append_block(writes, statement)?,
        };
        self.nudge_compactor();
        Ok(digest)
    }

    /// Unverified point read.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.ledger.get(key))
    }

    /// Verified point read: value plus ledger proof.
    pub fn get_verified(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, LedgerProof)> {
        let timer = self.proof_obs.point_build_nanos.start();
        let (value, proof) = self.ledger.get_with_proof(key);
        if self.proof_obs.enabled {
            self.proof_obs.point_build_nanos.finish(timer);
            self.proof_obs
                .point_bytes
                .record(proof.encoded_len() as u64);
        }
        Ok((value, proof))
    }

    /// Batched verified point read: all keys are resolved against one
    /// consistent ledger state and covered by a single
    /// [`LedgerMultiProof`] that shares the keys' common upper-tree nodes,
    /// so a k-key batch costs less on the wire than k independent
    /// [`SpitzDb::get_verified`] calls.
    pub fn get_multi_verified(
        &self,
        keys: &[Vec<u8>],
    ) -> Result<(Vec<Option<Vec<u8>>>, LedgerMultiProof)> {
        let timer = self.proof_obs.multi_build_nanos.start();
        let (values, proof) = self.ledger.get_multi_with_proof(keys);
        if self.proof_obs.enabled {
            self.proof_obs.multi_build_nanos.finish(timer);
            self.proof_obs
                .multi_bytes
                .record(proof.encoded_len() as u64);
        }
        Ok((values, proof))
    }

    /// Unverified range read over `start <= key < end`.
    pub fn range(&self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(self.ledger.range(start, end))
    }

    /// Verified range read: entries plus a combined proof from the unified
    /// index traversal.
    pub fn range_verified(&self, start: &[u8], end: &[u8]) -> Result<VerifiedRange> {
        let timer = self.proof_obs.range_build_nanos.start();
        let (entries, proof) = self.ledger.range_with_proof(start, end);
        if self.proof_obs.enabled {
            self.proof_obs.range_build_nanos.finish(timer);
            self.proof_obs
                .range_bytes
                .record(proof.encoded_len() as u64);
        }
        Ok((entries, proof))
    }

    // ------------------------------------------------------------------
    // Typed table API (HTAP path: records, cells, inverted indexes)
    // ------------------------------------------------------------------

    /// Create a table from a schema. Numeric columns get skip-list inverted
    /// indexes, text columns radix-tree inverted indexes. The schema is
    /// persisted under the [`CATALOG_ROOT`] named root, so it survives
    /// [`SpitzDb::open`]. Each table gets its own globally allocated
    /// universal-key column-id range, so no two tables' cells ever share a
    /// key prefix.
    pub fn create_table(&self, schema: Schema) -> Result<()> {
        // The tables lock is held across the catalog publication: two
        // concurrent `create_table` calls must not race the read-encode-
        // publish cycle, or the later root write could durably drop the
        // earlier table.
        let mut tables = self.tables.write();
        let column_base = tables
            .values()
            .map(|t| t.column_base + t.schema.columns.len() as u32)
            .max()
            .unwrap_or(0);
        tables.insert(schema.table.clone(), Table::empty(schema, column_base));
        let catalog: Vec<(&Schema, u32)> = tables
            .values()
            .map(|t| (&t.schema, t.column_base))
            .collect();
        let payload = encode_catalog(&catalog);
        let address = self.store.try_put(Chunk::new(ChunkKind::Meta, payload))?;
        self.store.try_set_root(CATALOG_ROOT, address)?;
        Ok(())
    }

    /// Reload the persisted table catalog (if any) and rebuild each table's
    /// analytical state — inverted indexes, primary-key tree and the next
    /// record timestamp — by scanning the ledger's universal-key ranges.
    fn reload_catalog(&self) -> Result<()> {
        let Some(address) = self.store.root(CATALOG_ROOT) else {
            return Ok(());
        };
        let chunk = self.store.get_kind(&address, ChunkKind::Meta)?;
        let catalog = decode_catalog(chunk.data())
            .ok_or_else(|| DbError::Storage(format!("corrupt catalog chunk {address}")))?;
        let mut tables = self.tables.write();
        for (schema, column_base) in catalog {
            let mut table = Table::empty(schema, column_base);
            self.rebuild_table(&mut table);
            tables.insert(table.schema.table.clone(), table);
        }
        Ok(())
    }

    /// Rebuild one table's in-memory indexes from the ledger: every cell
    /// version in the table's own column-id range is replayed into the
    /// inverted indexes, the primary tree keeps each record's latest
    /// timestamp, and `next_timestamp` resumes after the highest one seen.
    fn rebuild_table(&self, table: &mut Table) {
        let mut max_timestamp = 0u64;
        for (position, column) in table.schema.columns.iter().enumerate() {
            let id = table.column_base + position as u32;
            let start = UniversalKey::column_prefix(id);
            let end = UniversalKey::column_prefix(id + 1);
            for (ukey, encoded) in self.ledger.range(&start, &end) {
                let Ok(decoded) = UniversalKey::decode(&ukey) else {
                    continue;
                };
                let Ok(value) = Value::decode(&encoded) else {
                    continue;
                };
                if value.column_type() != column.column_type {
                    continue;
                }
                if let Some(index) = table.inverted.get_mut(&column.name) {
                    index.add(&index_value_of(&value), ukey.clone());
                }
                let newer = table
                    .primary
                    .get(&decoded.primary_key)
                    .is_none_or(|&ts| decoded.timestamp > ts);
                if newer {
                    table
                        .primary
                        .insert(&decoded.primary_key, decoded.timestamp);
                }
                max_timestamp = max_timestamp.max(decoded.timestamp);
            }
        }
        table.next_timestamp = max_timestamp + 1;
    }

    /// Insert (or append a new version of) a record: one cell per column,
    /// one ledger block for the whole record, inverted indexes updated.
    pub fn insert_record(&self, table: &str, record: &Record) -> Result<Digest> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownColumn(format!("table {table}")))?;
        t.schema.validate(record)?;

        let timestamp = t.next_timestamp;
        t.next_timestamp += 1;

        let mut writes = Vec::with_capacity(record.values.len());
        for (column, value) in &record.values {
            let column_id = t.column_id(column)?;
            let encoded = value.encode();
            let ukey = UniversalKey::new(
                column_id,
                record.primary_key.as_bytes().to_vec(),
                timestamp,
                &encoded,
            );
            if let Some(index) = t.inverted.get_mut(column) {
                index.add(&index_value_of(value), ukey.encode());
            }
            writes.push((ukey.encode(), encoded));
        }
        t.primary.insert(record.primary_key.as_bytes(), timestamp);
        drop(tables);

        self.put_batch(writes)
    }

    /// Read back the latest version of a record.
    pub fn get_record(&self, table: &str, primary_key: &str) -> Result<Option<Record>> {
        let tables = self.tables.read();
        let t = tables
            .get(table)
            .ok_or_else(|| DbError::UnknownColumn(format!("table {table}")))?;
        let Some(&timestamp) = t.primary.get(primary_key.as_bytes()) else {
            return Ok(None);
        };
        let mut record = Record::new(primary_key);
        for column in &t.schema.columns {
            let column_id = t.column_id(&column.name)?;
            // The value hash is unknown at lookup time, so scan the cell's
            // key range (all versions) and take the one at `timestamp`.
            let prefix = UniversalKey::cell_prefix(column_id, primary_key.as_bytes());
            let mut end = prefix.clone();
            end.extend_from_slice(&(timestamp + 1).to_be_bytes());
            let mut start = prefix.clone();
            start.extend_from_slice(&timestamp.to_be_bytes());
            for (ukey, encoded) in self.ledger.range(&start, &end) {
                let decoded = UniversalKey::decode(&ukey)?;
                if decoded.timestamp == timestamp {
                    record
                        .values
                        .insert(column.name.clone(), Value::decode(&encoded)?);
                }
            }
        }
        Ok(Some(record))
    }

    /// Analytical lookup: primary keys of records whose `column` equals
    /// `value`, served from the inverted index.
    pub fn query_eq(&self, table: &str, column: &str, value: &Value) -> Result<Vec<String>> {
        let tables = self.tables.read();
        let t = tables
            .get(table)
            .ok_or_else(|| DbError::UnknownColumn(format!("table {table}")))?;
        let index = t
            .inverted
            .get(column)
            .ok_or_else(|| DbError::UnknownColumn(column.to_string()))?;
        Ok(postings_to_primary_keys(
            index.lookup_eq(&index_value_of(value)),
        ))
    }

    /// Analytical range lookup over an integer column, e.g. "all items with
    /// stock-level lower than 50".
    pub fn query_int_range(
        &self,
        table: &str,
        column: &str,
        low: i64,
        high: i64,
    ) -> Result<Vec<String>> {
        let tables = self.tables.read();
        let t = tables
            .get(table)
            .ok_or_else(|| DbError::UnknownColumn(format!("table {table}")))?;
        let index = t
            .inverted
            .get(column)
            .ok_or_else(|| DbError::UnknownColumn(column.to_string()))?;
        Ok(postings_to_primary_keys(index.lookup_range(low, high)))
    }
}

impl Drop for SpitzDb {
    fn drop(&mut self) {
        // Stop the background compactor first so no pass races the pipeline
        // drain below; then drain queued commits, fsync outstanding work and
        // join the committer thread before the store closes, so a clean exit
        // never loses acknowledged writes under any durability policy.
        if let Some(compactor) = &mut self.compactor {
            compactor.shutdown();
        }
        if let Some(scrubber) = &mut self.scrubber {
            scrubber.shutdown();
        }
        if let Some(pipeline) = &self.pipeline {
            pipeline.shutdown();
        }
    }
}

/// Decode posting-list universal keys back into their primary keys,
/// de-duplicated and sorted.
fn postings_to_primary_keys(postings: Vec<Vec<u8>>) -> Vec<String> {
    let mut keys: Vec<String> = postings
        .iter()
        .filter_map(|p| UniversalKey::decode(p).ok())
        .map(|k| String::from_utf8_lossy(&k.primary_key).into_owned())
        .collect();
    keys.sort();
    keys.dedup();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_roundtrip_with_and_without_verification() {
        let db = SpitzDb::in_memory();
        db.put(b"alpha", b"1").unwrap();
        db.put(b"beta", b"2").unwrap();
        assert_eq!(db.get(b"alpha").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"missing").unwrap(), None);

        let (value, proof) = db.get_verified(b"beta").unwrap();
        assert_eq!(value, Some(b"2".to_vec()));
        assert!(proof.verify(b"beta", value.as_deref()));

        let digest = db.digest();
        assert_eq!(digest.block_height, 1);
        assert!(db.storage_stats().chunk_count > 0);
    }

    #[test]
    fn range_reads_return_sorted_windows_with_proofs() {
        let db = SpitzDb::in_memory();
        let writes: Vec<_> = (0..200u32)
            .map(|i| {
                (
                    format!("key-{i:05}").into_bytes(),
                    format!("{i}").into_bytes(),
                )
            })
            .collect();
        db.put_batch(writes).unwrap();

        let entries = db.range(b"key-00050", b"key-00060").unwrap();
        assert_eq!(entries.len(), 10);

        let (entries, proof) = db.range_verified(b"key-00050", b"key-00060").unwrap();
        assert_eq!(entries.len(), 10);
        assert!(proof.verify(&entries));
    }

    #[test]
    fn typed_records_and_analytics() {
        let db = SpitzDb::in_memory();
        db.create_table(Schema::new(
            "items",
            vec![("name", ColumnType::Text), ("stock", ColumnType::Integer)],
        ))
        .unwrap();

        for i in 0..30 {
            let record = Record::new(format!("item-{i:03}"))
                .with("name", Value::Text(format!("widget-{i}")))
                .with("stock", Value::Integer(i));
            db.insert_record("items", &record).unwrap();
        }

        // Point read of a typed record.
        let record = db.get_record("items", "item-007").unwrap().unwrap();
        assert_eq!(record.get("stock"), Some(&Value::Integer(7)));
        assert_eq!(record.get("name"), Some(&Value::Text("widget-7".into())));
        assert!(db.get_record("items", "item-999").unwrap().is_none());

        // "getting all items with stock-level lower than 5"
        let low = db.query_int_range("items", "stock", 0, 5).unwrap();
        assert_eq!(low.len(), 5);
        assert!(low.contains(&"item-004".to_string()));

        // Equality over a text column.
        let named = db
            .query_eq("items", "name", &Value::Text("widget-12".into()))
            .unwrap();
        assert_eq!(named, vec!["item-012".to_string()]);
    }

    #[test]
    fn schema_violations_are_rejected() {
        let db = SpitzDb::in_memory();
        db.create_table(Schema::new("t", vec![("n", ColumnType::Integer)]))
            .unwrap();
        let bad = Record::new("pk").with("n", Value::Text("not a number".into()));
        assert!(matches!(
            db.insert_record("t", &bad),
            Err(DbError::TypeMismatch { .. })
        ));
        assert!(db
            .insert_record("missing-table", &Record::new("pk"))
            .is_err());
        assert!(db.get_record("missing-table", "pk").is_err());
        assert!(db.query_eq("t", "missing-col", &Value::Integer(1)).is_err());
    }

    #[test]
    fn every_write_advances_the_digest() {
        let db = SpitzDb::in_memory();
        let d0 = db.digest();
        db.put(b"a", b"1").unwrap();
        let d1 = db.digest();
        db.put(b"a", b"2").unwrap();
        let d2 = db.digest();
        assert_ne!(d0.index_root, d1.index_root);
        assert_ne!(d1.index_root, d2.index_root);
        assert_ne!(d1.journal_root, d2.journal_root);
        assert_eq!(db.get(b"a").unwrap(), Some(b"2".to_vec()));
        assert_eq!(db.ledger().audit_chain(), None);
    }
}
