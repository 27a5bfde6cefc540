//! Offline stand-in for `bytes`, covering the subset the wire codecs use:
//! [`BytesMut`] as a growable byte buffer, [`BufMut`] big-endian writers and
//! [`Buf`] big-endian readers over `&[u8]` (which advance the slice, exactly
//! like the real crate). Byte order is big-endian network order throughout,
//! matching the real `bytes` API the codecs were written against.
//!
//! Standing rule: every [`Buf`] / [`BufMut`] method here exists under the
//! same name and signature in real `bytes` (as does
//! `Vec<u8>: From<BytesMut>`, which the codecs use to hand a filled buffer
//! on), so swapping the shim for the crate is a manifest edit.

#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};

/// A growable byte buffer backed by `Vec<u8>`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BytesMut {
    inner: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut { inner: Vec::new() }
    }

    /// Creates an empty buffer with at least `cap` bytes of capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { inner: Vec::with_capacity(cap) }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.inner.clone()
    }

    /// Consumes the buffer, yielding its bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.inner
    }

    /// Appends a byte slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.inner
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Vec<u8> {
        b.inner
    }
}

/// Big-endian append operations.
pub trait BufMut {
    /// Appends a raw byte slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends `count` copies of `val`.
    fn put_bytes(&mut self, val: u8, count: usize) {
        for _ in 0..count {
            self.put_slice(&[val]);
        }
    }

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.inner.extend_from_slice(src);
    }

    fn put_bytes(&mut self, val: u8, count: usize) {
        self.inner.resize(self.inner.len() + count, val);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    fn put_bytes(&mut self, val: u8, count: usize) {
        self.resize(self.len() + count, val);
    }
}

/// Big-endian consuming reads from the front of a buffer. Nothing here
/// allocates: the fixed-width getters read into stack arrays.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Consumes the next `dst.len()` bytes into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `dst.len()` bytes remain (like the real
    /// `bytes` crate).
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Consumes one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Consumes a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Consumes a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Consumes a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let n = dst.len();
        assert!(self.len() >= n, "buffer underflow: need {n}, have {}", self.len());
        let (head, tail) = self.split_at(n);
        dst.copy_from_slice(head);
        *self = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u16(0xBEEF);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_slice(&[1, 2, 3]);
        buf.put_bytes(0, 4);
        assert_eq!(buf.len(), 2 + 4 + 3 + 4);

        let bytes = buf.to_vec();
        let mut slice = bytes.as_slice();
        assert_eq!(slice.get_u16(), 0xBEEF);
        assert_eq!(slice.get_u32(), 0xDEAD_BEEF);
        let mut three = [0xFFu8; 3];
        slice.copy_to_slice(&mut three);
        assert_eq!(three, [1, 2, 3]);
        let mut four = [0xFFu8; 4];
        slice.copy_to_slice(&mut four);
        assert_eq!(four, [0, 0, 0, 0]);
        assert_eq!(slice.remaining(), 0);
    }

    #[test]
    fn reads_are_big_endian_and_advance() {
        let data = [0x12u8, 0x34, 0x56, 0x78];
        let mut slice = &data[..];
        assert_eq!(slice.get_u16(), 0x1234);
        assert_eq!(slice, &[0x56, 0x78]);
        assert_eq!(slice.get_u16(), 0x5678);
        assert!(slice.is_empty());
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut slice: &[u8] = &[1];
        let _ = slice.get_u16();
    }
}
