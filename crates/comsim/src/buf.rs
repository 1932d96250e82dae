//! Shared, immutable byte buffers for zero-copy payload plumbing.
//!
//! A checkpoint travels primary FTIM → marshal → network → backup store →
//! restore image, and a queued message travels sender → manager → retry
//! buffer → push. With `Vec<u8>` payloads every hop that holds a reference
//! pays a full copy; [`Bytes`] makes those hops reference-count bumps
//! instead. The buffer is immutable after construction (checkpointed
//! variables and queue bodies are never patched in place), so sharing is
//! safe and cheap: `clone()` is an `Arc` increment, [`Bytes::slice`] is a
//! view adjustment.
//!
//! On the wire a `Bytes` encodes through [`crate::marshal`] exactly like a
//! `Vec<u8>` (`u32` length prefix + raw bytes), so switching a message
//! field between the two is wire-compatible in both directions.

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::fmt;
use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

use serde::de::{Error as DeError, Visitor};
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// A cheaply clonable, immutable, sliceable byte buffer (`Arc<[u8]>` plus a
/// window).
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    offset: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer (no allocation is shared, but none is needed).
    pub fn new() -> Self {
        Bytes { data: Arc::from([] as [u8; 0]), offset: 0, len: 0 }
    }

    /// Copies `slice` into a fresh shared buffer.
    pub fn copy_from_slice(slice: &[u8]) -> Self {
        Bytes { data: Arc::from(slice), offset: 0, len: slice.len() }
    }

    /// Length of the visible window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-window sharing the same allocation — no bytes move.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let (start, end) = self.resolve_range(&range);
        assert!(start <= end && end <= self.len, "slice {start}..{end} out of 0..{}", self.len);
        Bytes { data: self.data.clone(), offset: self.offset + start, len: end - start }
    }

    /// Checked variant of [`Bytes::slice`]: `None` instead of a panic
    /// when the range leaves `0..len` — for callers that deny clippy's
    /// panic lints and must turn bad bounds into ordinary errors.
    pub fn try_slice(&self, range: impl RangeBounds<usize>) -> Option<Self> {
        let (start, end) = self.resolve_range(&range);
        if start > end || end > self.len {
            return None;
        }
        Some(Bytes { data: self.data.clone(), offset: self.offset + start, len: end - start })
    }

    fn resolve_range(&self, range: &impl RangeBounds<usize>) -> (usize, usize) {
        let start = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n.saturating_add(1),
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&n) => n.saturating_add(1),
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => self.len,
        };
        (start, end)
    }

    /// The visible window as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        // The window invariant (`offset + len <= data.len()`) holds by
        // construction; the checked form keeps this panic-free even if
        // a future constructor breaks it.
        self.data.get(self.offset..self.offset + self.len).unwrap_or(&[])
    }

    /// Copies the window out into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes { data: Arc::from(v), offset: 0, len }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(v: [u8; N]) -> Self {
        Bytes::copy_from_slice(&v)
    }
}

impl From<&Vec<u8>> for Bytes {
    fn from(v: &Vec<u8>) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len)
    }
}

impl Serialize for Bytes {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self.as_slice())
    }
}

struct BytesVisitor;

impl<'de> Visitor<'de> for BytesVisitor {
    type Value = Bytes;

    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("a byte buffer")
    }

    fn visit_bytes<E: DeError>(self, v: &[u8]) -> Result<Bytes, E> {
        Ok(Bytes::copy_from_slice(v))
    }

    fn visit_byte_buf<E: DeError>(self, v: Vec<u8>) -> Result<Bytes, E> {
        Ok(Bytes::from(v))
    }
}

impl<'de> Deserialize<'de> for Bytes {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Bytes, D::Error> {
        deserializer.deserialize_byte_buf(BytesVisitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn clone_shares_the_allocation() {
        let a = Bytes::from(vec![1u8, 2, 3, 4]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.data, &b.data));
        assert_eq!(a, b);
    }

    #[test]
    fn slice_is_a_window_not_a_copy() {
        let a = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let mid = a.slice(2..5);
        assert!(Arc::ptr_eq(&a.data, &mid.data));
        assert_eq!(&mid[..], &[2, 3, 4]);
        let tail = mid.slice(1..);
        assert_eq!(&tail[..], &[3, 4]);
        assert_eq!(a.slice(..).len(), 6);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_bounds_slice_panics() {
        Bytes::from(vec![1u8]).slice(0..2);
    }

    #[test]
    fn equality_is_by_content() {
        let a = Bytes::from(vec![9u8, 9]);
        let b = Bytes::copy_from_slice(&[9, 9]);
        assert_eq!(a, b);
        assert_eq!(a, vec![9u8, 9]);
        assert_ne!(a, Bytes::from(vec![9u8]));
    }

    #[test]
    fn wire_compatible_with_vec_u8() {
        let payload = vec![7u8, 0, 255, 3];
        let as_vec = crate::marshal::to_bytes(&payload).unwrap();
        let as_bytes = crate::marshal::to_bytes(&Bytes::from(payload.clone())).unwrap();
        assert_eq!(as_vec, as_bytes, "Bytes and Vec<u8> must encode identically");
        let back: Bytes = crate::marshal::from_bytes(&as_vec).unwrap();
        assert_eq!(back, payload);
        let back_vec: Vec<u8> = crate::marshal::from_bytes(&as_bytes).unwrap();
        assert_eq!(back_vec, payload);
    }

    #[test]
    fn round_trips_inside_structures() {
        use std::collections::BTreeMap;
        let mut map: BTreeMap<String, Bytes> = BTreeMap::new();
        map.insert("a".into(), Bytes::from(vec![1u8, 2]));
        map.insert("b".into(), Bytes::new());
        let encoded = crate::marshal::to_bytes(&map).unwrap();
        let back: BTreeMap<String, Bytes> = crate::marshal::from_bytes(&encoded).unwrap();
        assert_eq!(back, map);
    }

    #[test]
    fn send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Bytes>();
    }
}
