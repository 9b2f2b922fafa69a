//! On-disk record format of the durable chunk store.
//!
//! A segment file is a short header followed by a sequence of records:
//!
//! ```text
//! segment  := magic(8) version(u32 BE) segment_id(u64 BE) record*
//! record   := payload_len(u32 BE)   -- length of the record payload only
//!             kind(u8)              -- ChunkKind tag, or ROOT_RECORD_TAG
//!             address(32)           -- chunk: SHA-256(kind || payload)
//!                                   -- root:  the published root hash
//!             payload(payload_len)  -- chunk: the chunk bytes
//!                                   -- root:  the UTF-8 root name
//!             crc(u32 BE)           -- CRC-32 over everything above
//! ```
//!
//! Two record kinds share the frame: **chunk records** carry content-addressed
//! chunk payloads, and **root records** publish a named root pointer directly
//! into the log ("root `name` now points at `address`"). Embedding root
//! publication in the log is what lets a commit become durable with a single
//! segment append instead of a manifest rewrite: the data records precede
//! their root record in the same append-only file, so a root record that
//! survives crash recovery proves every record before it survived too
//! (data-before-pointer by construction).
//!
//! The CRC covers the length prefix, kind tag, address and payload, so any
//! single-bit flip anywhere in a record is detected. The address is stored
//! (rather than recomputed) so that the open-time scan can rebuild the
//! address → location index without hashing every payload; `audit()` is the
//! pass that re-hashes.

use spitz_crypto::hash::HASH_LEN;
use spitz_crypto::Hash;

use crate::chunk::{Chunk, ChunkKind};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"SPITZSEG";

/// Current segment format version.
pub const SEGMENT_VERSION: u32 = 1;

/// Bytes of the segment header (magic + version + segment id).
pub const SEGMENT_HEADER_LEN: u64 = 8 + 4 + 8;

/// Fixed per-record overhead: length prefix, kind tag, address and CRC.
pub const RECORD_OVERHEAD: usize = 4 + 1 + HASH_LEN + 4;

/// Kind tag of a root-publication record (`b'R'`), disjoint from every
/// [`ChunkKind`] tag.
pub const ROOT_RECORD_TAG: u8 = b'R';

/// Slicing-by-8 lookup tables for CRC-32/IEEE (reflected polynomial
/// `0xEDB88320`), built at compile time. `CRC_TABLES[0]` is the classic
/// bytewise table; `CRC_TABLES[k][b]` is the CRC state contribution of
/// byte `b` followed by `k` zero bytes, so eight table lookups advance the
/// CRC over eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, the polynomial used by gzip/zip) over `data`.
///
/// Implemented locally (the workspace has no registry access, so no
/// `crc32fast` dependency) as slicing-by-8 over lookup tables built at
/// compile time: eight bytes per step, then a bytewise tail. It runs on
/// every append, cold read and open scan.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Serialize the segment header for segment `id`.
pub fn encode_segment_header(id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.extend_from_slice(&SEGMENT_VERSION.to_be_bytes());
    out.extend_from_slice(&id.to_be_bytes());
    out
}

/// Parse and validate a segment header; returns the segment id.
pub fn decode_segment_header(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < SEGMENT_HEADER_LEN as usize || bytes[..8] != SEGMENT_MAGIC {
        return None;
    }
    let version = u32::from_be_bytes(bytes[8..12].try_into().ok()?);
    if version != SEGMENT_VERSION {
        return None;
    }
    Some(u64::from_be_bytes(bytes[12..20].try_into().ok()?))
}

/// Assemble a record frame from its tag, address and payload, appending the
/// trailing CRC.
fn encode_frame(tag: u8, address: &Hash, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.push(tag);
    out.extend_from_slice(address.as_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

/// Serialize one chunk record (including its trailing CRC).
pub fn encode_record(address: &Hash, chunk: &Chunk) -> Vec<u8> {
    encode_frame(chunk.kind().tag(), address, chunk.data())
}

/// Serialize one root-publication record: "root `name` now points at
/// `hash`".
pub fn encode_root_record(name: &str, hash: &Hash) -> Vec<u8> {
    encode_frame(ROOT_RECORD_TAG, hash, name.as_bytes())
}

/// Encoded length of the root record [`encode_root_record`] produces for
/// `name` (used by crash tests to compute truncation points).
pub fn root_record_len(name: &str) -> usize {
    RECORD_OVERHEAD + name.len()
}

/// Why decoding a record failed.
#[derive(Debug, PartialEq, Eq)]
pub enum RecordError {
    /// Fewer bytes remain than the record claims to span — a torn write if
    /// it happens at the tail of the last segment, corruption otherwise.
    Truncated,
    /// The CRC did not match the record bytes.
    BadCrc,
    /// The kind tag is neither a known [`ChunkKind`] nor
    /// [`ROOT_RECORD_TAG`].
    BadKind(u8),
    /// A root record's name payload is not valid UTF-8.
    BadRootName,
}

/// What a decoded record carries, borrowed from the segment bytes.
#[derive(Debug, PartialEq, Eq)]
pub enum RecordBody<'a> {
    /// A content-addressed chunk of this kind.
    Chunk {
        /// The stored chunk's kind.
        kind: ChunkKind,
        /// The chunk bytes.
        payload: &'a [u8],
    },
    /// A root publication: the record's address field is the new value of
    /// the named root pointer.
    Root {
        /// Name of the published root pointer.
        name: &'a str,
    },
}

/// A record decoded from a segment file. It borrows its payload rather
/// than copying it: the open-time scan only needs where each chunk lives,
/// and a reader copies the payload into a [`Chunk`] itself.
#[derive(Debug, PartialEq, Eq)]
pub struct DecodedRecord<'a> {
    /// The address stored in the frame: the chunk's content address, or the
    /// published root hash.
    pub address: Hash,
    /// The decoded record body.
    pub body: RecordBody<'a>,
    /// Total encoded length of the record, so the caller can advance its
    /// cursor.
    pub len: usize,
}

/// Decode and check the record starting at `bytes[0]`: its length, CRC,
/// kind tag and, for a root record, the UTF-8 of its name.
pub fn decode_record(bytes: &[u8]) -> Result<DecodedRecord<'_>, RecordError> {
    if bytes.len() < RECORD_OVERHEAD {
        return Err(RecordError::Truncated);
    }
    let payload_len = u32::from_be_bytes(bytes[..4].try_into().unwrap()) as usize;
    let total = RECORD_OVERHEAD + payload_len;
    if bytes.len() < total {
        return Err(RecordError::Truncated);
    }
    let stored_crc = u32::from_be_bytes(bytes[total - 4..total].try_into().unwrap());
    if crc32(&bytes[..total - 4]) != stored_crc {
        return Err(RecordError::BadCrc);
    }
    let tag = bytes[4];
    let mut address = [0u8; HASH_LEN];
    address.copy_from_slice(&bytes[5..5 + HASH_LEN]);
    let payload = &bytes[5 + HASH_LEN..total - 4];
    let body = if tag == ROOT_RECORD_TAG {
        RecordBody::Root {
            name: std::str::from_utf8(payload).map_err(|_| RecordError::BadRootName)?,
        }
    } else {
        RecordBody::Chunk {
            kind: ChunkKind::from_tag(tag).ok_or(RecordError::BadKind(tag))?,
            payload,
        }
    };
    Ok(DecodedRecord {
        address: Hash::from_bytes(address),
        body,
        len: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook bit-at-a-time CRC-32/IEEE, as an oracle for the
    /// table-driven one.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_slicing_by_8_equals_the_bytewise_reference() {
        // A seeded xorshift buffer, so every length and alignment sees
        // arbitrary bytes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buffer: Vec<u8> = (0..8 + 257)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        for start in 0..8 {
            for len in 0..=257 {
                let data = &buffer[start..start + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn record_roundtrip() {
        let chunk = Chunk::new(ChunkKind::Blob, b"payload bytes".to_vec());
        let addr = chunk.address();
        let encoded = encode_record(&addr, &chunk);
        assert_eq!(encoded.len(), RECORD_OVERHEAD + chunk.len());
        let decoded = decode_record(&encoded).unwrap();
        assert_eq!(decoded.len, encoded.len());
        assert_eq!(decoded.address, addr);
        assert_eq!(
            decoded.body,
            RecordBody::Chunk {
                kind: ChunkKind::Blob,
                payload: chunk.data()
            }
        );
    }

    #[test]
    fn root_record_roundtrip() {
        let hash = spitz_crypto::sha256(b"head block");
        let encoded = encode_root_record("spitz/ledger/head", &hash);
        assert_eq!(encoded.len(), root_record_len("spitz/ledger/head"));
        let decoded = decode_record(&encoded).unwrap();
        assert_eq!(decoded.len, encoded.len());
        assert_eq!(decoded.address, hash);
        assert_eq!(
            decoded.body,
            RecordBody::Root {
                name: "spitz/ledger/head"
            }
        );
    }

    #[test]
    fn root_tag_is_disjoint_from_every_chunk_kind() {
        for kind in [
            ChunkKind::Blob,
            ChunkKind::Meta,
            ChunkKind::IndexNode,
            ChunkKind::Commit,
            ChunkKind::Block,
            ChunkKind::Cell,
        ] {
            assert_ne!(kind.tag(), ROOT_RECORD_TAG);
        }
        assert_eq!(ChunkKind::from_tag(ROOT_RECORD_TAG), None);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let chunk = Chunk::new(ChunkKind::Meta, b"abcdef".to_vec());
        let encoded = encode_record(&chunk.address(), &chunk);
        for byte in 0..encoded.len() {
            for bit in 0..8 {
                let mut bad = encoded.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_record(&bad).is_err(),
                    "flip of byte {byte} bit {bit} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn truncated_records_report_truncation() {
        let chunk = Chunk::new(ChunkKind::Blob, vec![7u8; 64]);
        let encoded = encode_record(&chunk.address(), &chunk);
        for cut in [0, 3, RECORD_OVERHEAD - 1, encoded.len() - 1] {
            assert_eq!(
                decode_record(&encoded[..cut]).unwrap_err(),
                RecordError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn segment_header_roundtrip() {
        let header = encode_segment_header(42);
        assert_eq!(header.len() as u64, SEGMENT_HEADER_LEN);
        assert_eq!(decode_segment_header(&header), Some(42));
        let mut bad = header.clone();
        bad[0] ^= 1;
        assert_eq!(decode_segment_header(&bad), None);
    }
}
