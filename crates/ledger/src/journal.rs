//! The journal: an append-only sequence of block hashes with an
//! incrementally maintained Merkle tree.
//!
//! QLDB calls its hash-chained block sequence a *journal*; Spitz's ledger
//! keeps the same outer structure. The Merkle tree over block hashes is
//! maintained level by level so that appending a block and producing an
//! inclusion proof are both `O(log n)` — important because the write-path
//! benchmarks append hundreds of thousands of blocks.
//!
//! The tree uses the "promote the odd node" rule: a level with an odd number
//! of nodes passes its last node up unchanged. This keeps appends cheap and
//! is verified by the proofs produced here (it is a different tree shape
//! from `spitz_crypto::MerkleTree`, which implements the RFC 6962 split).

use spitz_crypto::{node_hash, Hash};
use spitz_index::codec;

/// Inclusion proof for a block hash within the journal tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalProof {
    /// Index of the proven block.
    pub index: u64,
    /// Number of blocks in the journal when the proof was generated.
    pub size: u64,
    /// Sibling hashes from the leaf level upwards. `None` marks levels where
    /// the node was promoted without a sibling.
    pub siblings: Vec<Option<(bool, Hash)>>,
}

impl JournalProof {
    /// Bytes a canonical wire encoding of this proof would occupy:
    /// index ‖ size ‖ sibling count ‖ per-sibling tag (+ side byte and
    /// hash when present).
    pub fn encoded_len(&self) -> usize {
        8 + 8
            + 4
            + self
                .siblings
                .iter()
                .map(|s| if s.is_some() { 1 + 1 + 32 } else { 1 })
                .sum::<usize>()
    }

    /// Append the canonical wire encoding (exactly
    /// [`JournalProof::encoded_len`] bytes): index ‖ size ‖ sibling count,
    /// then per sibling a presence tag (0/1) followed — when present — by a
    /// side byte and the sibling hash.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u64(out, self.index);
        codec::put_u64(out, self.size);
        codec::put_u32(out, self.siblings.len() as u32);
        for sibling in &self.siblings {
            match sibling {
                Some((is_left, hash)) => {
                    out.push(1);
                    out.push(u8::from(*is_left));
                    codec::put_hash(out, hash);
                }
                None => out.push(0),
            }
        }
    }

    /// The canonical wire encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decode a proof previously written by [`JournalProof::encode_into`].
    /// Returns `None` on truncated or malformed input; the declared sibling
    /// count is bounded by the remaining bytes before any allocation.
    pub fn decode(r: &mut codec::Reader<'_>) -> Option<JournalProof> {
        let index = r.u64()?;
        let size = r.u64()?;
        let count = r.u32()? as usize;
        // Every sibling costs at least its 1-byte presence tag.
        if count > r.remaining() {
            return None;
        }
        let mut siblings = Vec::with_capacity(count);
        for _ in 0..count {
            match r.u8()? {
                0 => siblings.push(None),
                1 => {
                    let is_left = match r.u8()? {
                        0 => false,
                        1 => true,
                        _ => return None,
                    };
                    siblings.push(Some((is_left, r.hash()?)));
                }
                _ => return None,
            }
        }
        Some(JournalProof {
            index,
            size,
            siblings,
        })
    }

    /// Recompute the root implied by this proof for the given block hash.
    pub fn expected_root(&self, block_hash: Hash) -> Hash {
        let mut current = block_hash;
        // `None` siblings are levels where the node is promoted unchanged, so
        // they are skipped by `flatten`.
        for (sibling_is_left, sibling_hash) in self.siblings.iter().flatten() {
            current = if *sibling_is_left {
                node_hash(sibling_hash, &current)
            } else {
                node_hash(&current, sibling_hash)
            };
        }
        current
    }

    /// Verify the proof against a trusted journal root.
    pub fn verify(&self, root: Hash, block_hash: Hash) -> bool {
        self.index < self.size && self.expected_root(block_hash) == root
    }
}

/// Append-only journal of block hashes with cached Merkle levels.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// `levels[0]` is the list of block hashes; `levels[k]` the Merkle level
    /// above, built with the promote-odd rule.
    levels: Vec<Vec<Hash>>,
}

impl Journal {
    /// Create an empty journal.
    pub fn new() -> Self {
        Journal { levels: Vec::new() }
    }

    /// Build the journal over `block_hashes` in one bottom-up pass: each
    /// level pairs up the level below under the same promote-odd rule, so
    /// every interior node is hashed once. The result equals appending the
    /// hashes one by one, which re-hashes a root-to-leaf path per block.
    pub fn from_leaves(block_hashes: Vec<Hash>) -> Self {
        let mut levels = Vec::new();
        let mut level = block_hashes;
        while level.len() > 1 {
            let above = level
                .chunks(2)
                .map(|pair| match pair {
                    [left, right] => node_hash(left, right),
                    [single] => *single,
                    _ => unreachable!("chunks(2) yields one or two hashes"),
                })
                .collect();
            levels.push(std::mem::replace(&mut level, above));
        }
        if !level.is_empty() {
            levels.push(level);
        }
        Journal { levels }
    }

    /// Number of blocks recorded.
    pub fn len(&self) -> usize {
        self.levels.first().map(|l| l.len()).unwrap_or(0)
    }

    /// True when no blocks have been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The block hash at `index`.
    pub fn block_hash(&self, index: u64) -> Option<Hash> {
        self.levels.first()?.get(index as usize).copied()
    }

    /// The current Merkle root over all block hashes. [`Hash::ZERO`] for an
    /// empty journal.
    pub fn root(&self) -> Hash {
        self.levels
            .last()
            .and_then(|level| level.first())
            .copied()
            .unwrap_or(Hash::ZERO)
    }

    /// Append a block hash, updating the affected Merkle path.
    pub fn append(&mut self, block_hash: Hash) -> u64 {
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(block_hash);
        let index = self.levels[0].len() - 1;
        self.recompute_path(index);
        index as u64
    }

    /// Recompute the internal nodes above leaf `index` (and extend levels as
    /// the tree grows).
    fn recompute_path(&mut self, leaf_index: usize) {
        let mut index = leaf_index;
        let mut level = 0;
        loop {
            let current_len = self.levels[level].len();
            if current_len <= 1 {
                // This level is the root; drop any stale levels above it.
                self.levels.truncate(level + 1);
                break;
            }
            let parent_index = index / 2;
            let left = self.levels[level][parent_index * 2];
            let parent = if parent_index * 2 + 1 < current_len {
                node_hash(&left, &self.levels[level][parent_index * 2 + 1])
            } else {
                left
            };
            if self.levels.len() == level + 1 {
                self.levels.push(Vec::new());
            }
            let above = &mut self.levels[level + 1];
            if parent_index < above.len() {
                above[parent_index] = parent;
            } else {
                above.push(parent);
            }
            // The parent level must have exactly ceil(current_len / 2) nodes;
            // trim any leftover node from a previous, larger spine.
            let expected = current_len.div_ceil(2);
            above.truncate(expected.max(parent_index + 1));
            index = parent_index;
            level += 1;
        }
    }

    /// Inclusion proof for the block at `index`.
    pub fn prove(&self, index: u64) -> Option<JournalProof> {
        let size = self.len() as u64;
        if index >= size {
            return None;
        }
        let mut siblings = Vec::new();
        let mut i = index as usize;
        for level in 0..self.levels.len().saturating_sub(1) {
            let nodes = &self.levels[level];
            let sibling_index = i ^ 1;
            if sibling_index < nodes.len() {
                let sibling_is_left = sibling_index < i;
                siblings.push(Some((sibling_is_left, nodes[sibling_index])));
            } else {
                siblings.push(None);
            }
            i /= 2;
        }
        Some(JournalProof {
            index,
            size,
            siblings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spitz_crypto::sha256;

    fn hashes(n: u64) -> Vec<Hash> {
        (0..n).map(|i| sha256(&i.to_be_bytes())).collect()
    }

    #[test]
    fn empty_journal() {
        let journal = Journal::new();
        assert!(journal.is_empty());
        assert_eq!(journal.root(), Hash::ZERO);
        assert!(journal.prove(0).is_none());
        assert!(journal.block_hash(0).is_none());
    }

    #[test]
    fn single_block_root_is_block_hash() {
        let mut journal = Journal::new();
        let h = sha256(b"block-0");
        journal.append(h);
        assert_eq!(journal.root(), h);
        let proof = journal.prove(0).unwrap();
        assert!(proof.verify(journal.root(), h));
    }

    #[test]
    fn proofs_verify_for_every_block_at_every_size() {
        let blocks = hashes(40);
        let mut journal = Journal::new();
        for (n, block) in blocks.iter().enumerate() {
            journal.append(*block);
            let root = journal.root();
            for (i, expected) in blocks.iter().enumerate().take(n + 1) {
                let proof = journal.prove(i as u64).unwrap();
                assert!(proof.verify(root, *expected), "size {} index {i}", n + 1);
                assert!(!proof.verify(root, sha256(b"forged block")));
            }
        }
    }

    #[test]
    fn incremental_root_matches_batch_rebuild() {
        // Rebuild from scratch at every size and compare against the
        // incrementally maintained root.
        let blocks = hashes(33);
        let mut journal = Journal::new();
        for (n, block) in blocks.iter().enumerate() {
            journal.append(*block);
            let mut fresh = Journal::new();
            for b in &blocks[..=n] {
                fresh.append(*b);
            }
            assert_eq!(journal.root(), fresh.root(), "size {}", n + 1);
        }
    }

    #[test]
    fn bottom_up_build_matches_appends_at_every_size() {
        let blocks = hashes(300);
        let mut appended = Journal::new();
        for n in 0..=blocks.len() {
            if n > 0 {
                appended.append(blocks[n - 1]);
            }
            let built = Journal::from_leaves(blocks[..n].to_vec());
            assert_eq!(built.len(), n);
            assert_eq!(built.root(), appended.root(), "size {n}");
            for i in 0..=n as u64 {
                assert_eq!(built.block_hash(i), appended.block_hash(i), "size {n}");
                assert_eq!(built.prove(i), appended.prove(i), "size {n} index {i}");
            }
        }
    }

    #[test]
    fn root_changes_with_every_append() {
        let mut journal = Journal::new();
        let mut previous = Hash::ZERO;
        for h in hashes(20) {
            journal.append(h);
            assert_ne!(journal.root(), previous);
            previous = journal.root();
        }
        assert_eq!(journal.len(), 20);
    }

    #[test]
    fn out_of_range_proofs_are_rejected() {
        let mut journal = Journal::new();
        journal.append(sha256(b"a"));
        assert!(journal.prove(1).is_none());
        assert!(journal.prove(100).is_none());
    }
}
