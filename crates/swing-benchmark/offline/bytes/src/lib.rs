//! Offline stand-in for `bytes`: the `BytesMut` / `Bytes` / `BufMut`
//! subset the Swing wire codec uses. Bulk payloads never live here —
//! they travel as first-party `swing_core::SharedBytes` — so this is
//! only the small scratch buffer headers are encoded into, and a plain
//! `Vec<u8>` does that job. Integers are written big-endian, like the
//! real crate's `put_*`.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A growable scratch buffer.
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    /// An empty buffer with room for `capacity` bytes.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut(Vec::with_capacity(capacity))
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Bytes the buffer can hold without reallocating.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Forget the contents, keeping the allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Make room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }

    /// Shorten to `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.0.truncate(len);
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }

    /// Convert into an immutable, cheaply clonable [`Bytes`].
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes(Arc::from(self.0))
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// An immutable, reference-counted byte buffer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Bytes(Arc::from(Vec::new()))
    }

    /// Copy a slice into a new buffer.
    #[must_use]
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes(Arc::from(src))
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
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
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Arc::from(v))
    }
}

/// Big-endian append operations, as on the real crate's `BufMut`.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }
    /// Append a big-endian `u16`.
    fn put_u16(&mut self, n: u16) {
        self.put_slice(&n.to_be_bytes());
    }
    /// Append a big-endian `u32`.
    fn put_u32(&mut self, n: u32) {
        self.put_slice(&n.to_be_bytes());
    }
    /// Append a big-endian `u64`.
    fn put_u64(&mut self, n: u64) {
        self.put_slice(&n.to_be_bytes());
    }
    /// Append a big-endian `i32`.
    fn put_i32(&mut self, n: i32) {
        self.put_slice(&n.to_be_bytes());
    }
    /// Append a big-endian `i64`.
    fn put_i64(&mut self, n: i64) {
        self.put_slice(&n.to_be_bytes());
    }
    /// Append a big-endian IEEE-754 `f32`.
    fn put_f32(&mut self, n: f32) {
        self.put_slice(&n.to_be_bytes());
    }
    /// Append a big-endian IEEE-754 `f64`.
    fn put_f64(&mut self, n: f64) {
        self.put_slice(&n.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}
