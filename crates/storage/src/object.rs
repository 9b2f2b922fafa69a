//! Chunked blobs: the typed object layered over chunks.
//!
//! A [`VBlob`] stores a byte string of arbitrary size as a list of
//! content-defined chunks referenced by a meta node, so that successive
//! versions of a mostly-unchanged value share almost all physical chunks.

use spitz_crypto::Hash;

use crate::chunk::{Chunk, ChunkKind};
use crate::chunker::{Chunker, ChunkerConfig};
use crate::error::StorageError;
use crate::store::ChunkStore;
use crate::Result;

/// A large byte value stored as content-defined chunks under one root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VBlob {
    root: Hash,
    len: u64,
    chunks: Vec<(Hash, u32)>,
}

impl VBlob {
    /// Split `data` with a chunker configured by `config`, store every chunk
    /// and a meta node in `store`, and return the blob handle.
    pub fn write<S: ChunkStore + ?Sized>(
        store: &S,
        data: &[u8],
        config: &ChunkerConfig,
    ) -> Result<VBlob> {
        let chunker = Chunker::new(*config)?;
        let mut entries: Vec<(Hash, u32)> = Vec::new();
        for piece in chunker.split(data) {
            let addr = store.put(Chunk::new(ChunkKind::Blob, piece.to_vec()));
            entries.push((addr, piece.len() as u32));
        }

        let meta = encode_meta(&entries, data.len() as u64);
        let root = store.put(Chunk::new(ChunkKind::Meta, meta));
        Ok(VBlob {
            root,
            len: data.len() as u64,
            chunks: entries,
        })
    }

    /// Load a blob handle from its meta-node root.
    pub fn load<S: ChunkStore + ?Sized>(store: &S, root: &Hash) -> Result<VBlob> {
        let meta = store.get_kind(root, ChunkKind::Meta)?;
        let (entries, len) = decode_meta(meta.data()).ok_or(StorageError::CorruptChunk(*root))?;
        Ok(VBlob {
            root: *root,
            len,
            chunks: entries,
        })
    }

    /// Read back the full contents of the blob stored under `root`.
    pub fn read<S: ChunkStore + ?Sized>(store: &S, root: &Hash) -> Result<Vec<u8>> {
        let blob = VBlob::load(store, root)?;
        blob.contents(store)
    }

    /// Read back this blob's contents.
    pub fn contents<S: ChunkStore + ?Sized>(&self, store: &S) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.len as usize);
        for (addr, _) in &self.chunks {
            let chunk = store.get_kind(addr, ChunkKind::Blob)?;
            out.extend_from_slice(chunk.data());
        }
        Ok(out)
    }

    /// The content address of the blob's meta node.
    pub fn root(&self) -> Hash {
        self.root
    }

    /// Logical length of the blob in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the blob is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunk addresses (and sizes) making up this blob.
    pub fn chunk_entries(&self) -> &[(Hash, u32)] {
        &self.chunks
    }
}

fn encode_meta(entries: &[(Hash, u32)], len: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + entries.len() * 36);
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
    for (hash, size) in entries {
        out.extend_from_slice(hash.as_bytes());
        out.extend_from_slice(&size.to_be_bytes());
    }
    out
}

fn decode_meta(data: &[u8]) -> Option<(Vec<(Hash, u32)>, u64)> {
    if data.len() < 12 {
        return None;
    }
    let len = u64::from_be_bytes(data[0..8].try_into().ok()?);
    let count = u32::from_be_bytes(data[8..12].try_into().ok()?) as usize;
    let mut entries = Vec::with_capacity(count);
    let mut offset = 12;
    for _ in 0..count {
        if offset + 36 > data.len() {
            return None;
        }
        let mut hash_bytes = [0u8; 32];
        hash_bytes.copy_from_slice(&data[offset..offset + 32]);
        let size = u32::from_be_bytes(data[offset + 32..offset + 36].try_into().ok()?);
        entries.push((Hash::from_bytes(hash_bytes), size));
        offset += 36;
    }
    if offset != data.len() {
        return None;
    }
    Some((entries, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::InMemoryChunkStore;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        data
    }

    #[test]
    fn blob_roundtrip_various_sizes() {
        let store = InMemoryChunkStore::new();
        let cfg = ChunkerConfig::default();
        for len in [0usize, 1, 20, 255, 4096, 16 * 1024, 70_000] {
            let data = random_bytes(len, len as u64 + 1);
            let blob = VBlob::write(&store, &data, &cfg).unwrap();
            assert_eq!(blob.len() as usize, len);
            assert_eq!(
                VBlob::read(&store, &blob.root()).unwrap(),
                data,
                "len {len}"
            );
        }
    }

    #[test]
    fn identical_blobs_share_all_chunks() {
        let store = InMemoryChunkStore::new();
        let cfg = ChunkerConfig::default();
        let data = random_bytes(16 * 1024, 3);
        let b1 = VBlob::write(&store, &data, &cfg).unwrap();
        let before = store.stats().physical_bytes;
        let b2 = VBlob::write(&store, &data, &cfg).unwrap();
        assert_eq!(b1.root(), b2.root());
        assert_eq!(store.stats().physical_bytes, before);
    }

    #[test]
    fn edited_blob_shares_most_chunks() {
        let store = InMemoryChunkStore::new();
        let cfg = ChunkerConfig::default();
        let data = random_bytes(16 * 1024, 5);
        let b1 = VBlob::write(&store, &data, &cfg).unwrap();

        let mut edited = data.clone();
        for b in &mut edited[100..150] {
            *b ^= 0xff;
        }
        let b2 = VBlob::write(&store, &edited, &cfg).unwrap();
        assert_ne!(b1.root(), b2.root());

        let set1: std::collections::HashSet<_> =
            b1.chunk_entries().iter().map(|(h, _)| *h).collect();
        let shared = b2
            .chunk_entries()
            .iter()
            .filter(|(h, _)| set1.contains(h))
            .count();
        assert!(
            shared * 2 >= b2.chunk_entries().len(),
            "expected chunk sharing, got {shared}/{}",
            b2.chunk_entries().len()
        );
    }

    #[test]
    fn load_rejects_wrong_kind() {
        let store = InMemoryChunkStore::new();
        let addr = store.put(Chunk::new(ChunkKind::Blob, &b"not a meta node"[..]));
        assert!(matches!(
            VBlob::load(&store, &addr),
            Err(StorageError::WrongChunkKind { .. })
        ));
    }

    #[test]
    fn load_rejects_corrupt_meta() {
        let store = InMemoryChunkStore::new();
        let addr = store.put(Chunk::new(ChunkKind::Meta, vec![1, 2, 3]));
        assert!(matches!(
            VBlob::load(&store, &addr),
            Err(StorageError::CorruptChunk(_))
        ));
    }
}
