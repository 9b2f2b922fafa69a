//! Universal keys: the ledger keys of the typed tables' cells.
//!
//! "Built on top of ForkBase is a virtual cell store, as opposed to row or
//! column store in traditional databases. The system maps each cell to a
//! universal key consisting of the column id, primary key, timestamp, and
//! the hash of its value." (Section 5) Here each cell is one ledger entry
//! under its encoded universal key, so the SIRI index is the cell store.
//!
//! The encoding of a [`UniversalKey`] is order preserving on
//! `(column id, primary key, timestamp)`, so a B+-tree or SIRI range scan
//! over one column's primary keys is a contiguous key range, and all
//! versions of one cell are adjacent and ordered by time.

use spitz_crypto::{sha256, Hash};

use crate::error::DbError;
use crate::Result;

/// The universal key identifying one cell version.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UniversalKey {
    /// Identifier of the column the cell belongs to.
    pub column_id: u32,
    /// Primary key of the row.
    pub primary_key: Vec<u8>,
    /// Commit timestamp of the transaction that wrote this cell version.
    pub timestamp: u64,
    /// Hash of the cell value, binding key and content together.
    pub value_hash: Hash,
}

impl UniversalKey {
    /// Build a universal key for a value being written now.
    pub fn new(
        column_id: u32,
        primary_key: impl Into<Vec<u8>>,
        timestamp: u64,
        value: &[u8],
    ) -> Self {
        UniversalKey {
            column_id,
            primary_key: primary_key.into(),
            timestamp,
            value_hash: sha256(value),
        }
    }

    /// Order-preserving binary encoding:
    /// `column_id || len(primary_key) || primary_key || timestamp || value_hash`.
    ///
    /// The primary key is length-prefixed *after* the fact only for decoding;
    /// for ordering, the raw primary key bytes are placed before the
    /// timestamp so that keys sort by `(column, primary key, time)`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.primary_key.len() + 1 + 8 + 32 + 2);
        out.extend_from_slice(&self.column_id.to_be_bytes());
        out.extend_from_slice(&self.primary_key);
        // 0x00 terminator keeps "a" < "ab" ordering consistent with plain
        // byte comparison of the primary keys themselves (keys must not
        // contain 0x00; the schema layer enforces printable primary keys).
        out.push(0x00);
        out.extend_from_slice(&self.timestamp.to_be_bytes());
        out.extend_from_slice(self.value_hash.as_bytes());
        out
    }

    /// Decode a key produced by [`UniversalKey::encode`].
    pub fn decode(data: &[u8]) -> Result<UniversalKey> {
        let bad = || DbError::BadRequest("malformed universal key".into());
        if data.len() < 4 + 1 + 8 + 32 {
            return Err(bad());
        }
        let column_id = u32::from_be_bytes(data[0..4].try_into().map_err(|_| bad())?);
        let rest = &data[4..];
        let terminator = rest.len() - 8 - 32 - 1;
        if rest[terminator] != 0x00 {
            return Err(bad());
        }
        let primary_key = rest[..terminator].to_vec();
        let timestamp = u64::from_be_bytes(
            rest[terminator + 1..terminator + 9]
                .try_into()
                .map_err(|_| bad())?,
        );
        let mut hash = [0u8; 32];
        hash.copy_from_slice(&rest[terminator + 9..]);
        Ok(UniversalKey {
            column_id,
            primary_key,
            timestamp,
            value_hash: Hash::from_bytes(hash),
        })
    }

    /// The encoded prefix shared by every version of every cell of a column —
    /// used to range-scan a whole column.
    pub fn column_prefix(column_id: u32) -> Vec<u8> {
        column_id.to_be_bytes().to_vec()
    }

    /// The encoded prefix shared by every version of one cell.
    pub fn cell_prefix(column_id: u32, primary_key: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + primary_key.len() + 1);
        out.extend_from_slice(&column_id.to_be_bytes());
        out.extend_from_slice(primary_key);
        out.push(0x00);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universal_key_roundtrip() {
        let key = UniversalKey::new(7, b"order-001".to_vec(), 42, b"some value");
        let decoded = UniversalKey::decode(&key.encode()).unwrap();
        assert_eq!(decoded, key);
        assert!(UniversalKey::decode(b"short").is_err());
    }

    #[test]
    fn encoding_orders_by_column_then_key_then_time() {
        let k = |c: u32, pk: &str, ts: u64| {
            UniversalKey::new(c, pk.as_bytes().to_vec(), ts, b"v").encode()
        };
        assert!(k(1, "a", 5) < k(2, "a", 1));
        assert!(k(1, "a", 1) < k(1, "b", 1));
        assert!(k(1, "a", 1) < k(1, "a", 2));
        assert!(k(1, "a", 9) < k(1, "ab", 0));
    }

    #[test]
    fn prefixes_cover_their_cells() {
        let key = UniversalKey::new(3, b"pk".to_vec(), 10, b"v");
        let encoded = key.encode();
        assert!(encoded.starts_with(&UniversalKey::column_prefix(3)));
        assert!(encoded.starts_with(&UniversalKey::cell_prefix(3, b"pk")));
        assert!(!encoded.starts_with(&UniversalKey::cell_prefix(3, b"other")));
    }
}
