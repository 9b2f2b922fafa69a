//! ForkBase-like immutable storage substrate for the Spitz verifiable
//! database.
//!
//! The Spitz paper builds its storage layer on ForkBase: an immutable,
//! content-addressed, deduplicating, multi-version storage engine with a
//! Merkle-DAG data model. This crate reproduces the properties the paper
//! relies on:
//!
//! * **Content addressing** — every [`chunk::Chunk`] is identified by the
//!   SHA-256 hash of its payload, so identical data is physically stored once
//!   ([`store::ChunkStore`]).
//! * **Content-defined chunking** — large values are split by a rolling-hash
//!   [`chunker::Chunker`], so a small edit to a 16 KB page only produces a
//!   couple of new chunks and every untouched chunk is deduplicated. This is
//!   the mechanism behind Figure 1 of the paper.
//! * **Versioning** — the [`version::VersionManager`] records, per logical
//!   key, an append-only chain of [`version::Commit`]s, giving Git-like
//!   lineage over immutable snapshots.
//! * **Hash-chained objects** — a [`object::VBlob`] meta node lists its
//!   chunks by hash, and the SIRI index nodes and ledger blocks stored here
//!   reference their children the same way, so every structure chains up to
//!   a single root hash and any node of it is tamper evident.
//! * **Durability** — [`durable::DurableChunkStore`] persists chunks in
//!   append-only segment files with per-record CRCs, crash recovery of a
//!   torn tail, and named root pointers, behind the same [`ChunkStore`]
//!   trait.
//!
//! # Example
//!
//! ```
//! use spitz_storage::{ChunkStore, InMemoryChunkStore, VBlob, ChunkerConfig};
//!
//! let store = InMemoryChunkStore::new();
//! let page = vec![7u8; 16 * 1024];
//! let blob = VBlob::write(&store, &page, &ChunkerConfig::default()).unwrap();
//! assert_eq!(VBlob::read(&store, &blob.root()).unwrap(), page);
//!
//! // Writing the same page again stores no new physical bytes.
//! let before = store.stats().physical_bytes;
//! VBlob::write(&store, &page, &ChunkerConfig::default()).unwrap();
//! assert_eq!(store.stats().physical_bytes, before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod chunker;
pub mod durable;
pub mod error;
pub mod mpt_commit;
pub mod object;
pub mod store;
pub mod version;

pub use chunk::{Chunk, ChunkKind};
pub use chunker::{Chunker, ChunkerConfig};
pub use durable::io::{real_io, FsyncOutcome, RealIo, SegmentIo, SegmentIoHandle, WriteOutcome};
pub use durable::{
    CompactionFault, CompactionReport, DurableChunkStore, DurableConfig, ScrubReport,
};
pub use error::{IoError, IoErrorKind, StorageError};
pub use mpt_commit::{
    mpt_branch_commitment, mpt_commitment, mpt_extension_commitment, mpt_leaf_commitment,
    mpt_value_hash,
};
pub use object::VBlob;
pub use store::{ChunkStore, HealthState, InMemoryChunkStore, StoreStats};
pub use version::{Commit, VersionManager};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
