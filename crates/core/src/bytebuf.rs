//! In-tree byte buffer and cursor for the wire protocol.
//!
//! [`ByteBuf`] is an append-only little-endian encoder over a `Vec<u8>`;
//! [`ByteReader`] is the matching bounds-checked decoder over a byte
//! slice. Together they replace the external `bytes` crate for the
//! framing in [`crate::wire`], keeping the workspace free of external
//! dependencies. Every read is fallible — a truncated frame yields an
//! `Err`, never a panic — which the wire fuzz properties rely on.

use std::ops::Deref;

/// A growable byte buffer with little-endian put methods.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ByteBuf {
    data: Vec<u8>,
}

impl ByteBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        ByteBuf::default()
    }

    /// Creates an empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteBuf {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Empties the buffer and keeps its allocation, so one buffer can
    /// encode frame after frame.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Makes room for `additional` more bytes. An encoder that knows
    /// the size of what it is about to write calls this first, so the
    /// buffer is sized by that and not by doubling past it.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn put_slice(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Overwrites 4 already-written bytes at `offset` with a
    /// little-endian `u32` — patches a length prefix reserved before the
    /// body was encoded, so framing needs no second buffer.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `offset + 4` bytes have been written.
    pub fn set_u32_le(&mut self, offset: usize, v: u32) {
        self.data[offset..offset + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }
}

impl Deref for ByteBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for ByteBuf {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// A bounds-checked cursor over a byte slice with little-endian get
/// methods. Every accessor returns `Err` on underflow.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    data: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Wraps a slice for reading.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    /// Consumes and returns the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.data.len() < n {
            return Err(format!(
                "truncated frame: wanted {n} bytes, {} remain",
                self.data.len()
            ));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32_le(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64_le(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut buf = ByteBuf::with_capacity(32);
        buf.put_u8(7);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(u64::MAX - 1);
        buf.put_slice(b"abc");
        assert_eq!(buf.len(), 1 + 4 + 8 + 3);

        let mut r = ByteReader::new(&buf);
        assert_eq!(r.take(1).unwrap(), [7]);
        assert_eq!(r.get_u32_le().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le().unwrap(), u64::MAX - 1);
        assert_eq!(r.take(3).unwrap(), b"abc");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reads_fail_cleanly_on_underflow() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.get_u32_le().is_err());
        // A failed read consumes nothing.
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.take(1).unwrap(), [1]);
        assert_eq!(r.take(1).unwrap(), [2]);
        assert!(r.take(1).is_err());
    }

    #[test]
    fn set_patches_in_place() {
        let mut buf = ByteBuf::new();
        buf.put_u32_le(0); // reserved length prefix
        buf.put_slice(b"body");
        buf.set_u32_le(0, buf.len() as u32 - 4);
        assert_eq!(buf.as_slice(), &[4, 0, 0, 0, b'b', b'o', b'd', b'y']);
    }

    #[test]
    fn endianness_is_little() {
        let mut buf = ByteBuf::new();
        buf.put_u32_le(1);
        assert_eq!(buf.as_slice(), &[1, 0, 0, 0]);
    }
}
