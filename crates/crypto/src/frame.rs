//! Length-prefixed, versioned socket frames.
//!
//! The socket transport (`nectar-net`) moves the protocol's signed
//! messages between OS processes as a byte stream; this module gives that
//! stream its framing. A frame is a fixed 12-byte header followed by an
//! opaque payload:
//!
//! ```text
//! version  : u8      (FRAME_VERSION; anything else is rejected)
//! kind     : u8      (0 = hello, 1 = data, 2 = round-end)
//! from     : u16     (sender node id)
//! round    : u32     (protocol round; 0 for hello)
//! length   : u32     (payload bytes; 0 for hello / round-end)
//! payload  : length bytes (a codec-encoded protocol message, data only)
//! ```
//!
//! Three properties matter more than compactness:
//!
//! * **Truncation safety.** A one-shot [`Decode`] on a cut-off buffer is
//!   an `UnexpectedEnd` error; the streaming [`FrameBuffer`] simply waits
//!   for more bytes. Neither ever panics (`tests/parser_fuzz.rs` cuts a
//!   valid frame at every byte boundary to pin this).
//! * **No over-read.** The length field is validated against
//!   [`MAX_FRAME_PAYLOAD`] *before* any payload is buffered or allocated,
//!   so a hostile length prefix cannot make the receiver reserve or wait
//!   for gigabytes.
//! * **Versioning.** The first byte of every frame is the codec version;
//!   a mismatch is an immediate decode error, not a misparse.

use bytes::{Buf, BufMut, BytesMut};

use crate::codec::{need, CodecError, Decode, Encode};

/// Frame codec version (first byte of every frame on the wire).
pub const FRAME_VERSION: u8 = 1;

/// Fixed header size: version, kind, from, round, payload length.
pub const FRAME_HEADER_BYTES: usize = 1 + 1 + 2 + 4 + 4;

/// Upper bound on a frame payload (16 MiB). Protocol messages are far
/// smaller; anything above this is a corrupt or hostile length prefix.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 24;

const KIND_HELLO: u8 = 0;
const KIND_DATA: u8 = 1;
const KIND_ROUND_END: u8 = 2;

/// One transport frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection handshake: announces the dialing node's identity.
    Hello {
        /// Sender node id.
        from: u16,
    },
    /// A protocol message for `round`, payload encoded with the message's
    /// own [`Encode`] impl.
    Data {
        /// Sender node id.
        from: u16,
        /// Protocol round the payload belongs to (1-based).
        round: u32,
        /// Codec-encoded protocol message.
        payload: Vec<u8>,
    },
    /// Round barrier marker: the sender has emitted everything it will
    /// send for `round`.
    RoundEnd {
        /// Sender node id.
        from: u16,
        /// The round being closed.
        round: u32,
    },
}

impl Frame {
    /// The sending node's id (every frame carries one).
    pub fn sender(&self) -> u16 {
        match self {
            Frame::Hello { from } | Frame::Data { from, .. } | Frame::RoundEnd { from, .. } => {
                *from
            }
        }
    }

    fn parts(&self) -> (u8, u16, u32, &[u8]) {
        match self {
            Frame::Hello { from } => (KIND_HELLO, *from, 0, &[]),
            Frame::Data { from, round, payload } => (KIND_DATA, *from, *round, payload),
            Frame::RoundEnd { from, round } => (KIND_ROUND_END, *from, *round, &[]),
        }
    }

    /// The wire bytes of `Frame::Data { from, round, payload:
    /// msg.to_wire_bytes() }`, with `msg` encoded straight behind the
    /// header: one buffer per frame, no payload vector in between. The
    /// length field is what `msg` actually wrote.
    pub fn data_wire_bytes<M: Encode>(from: u16, round: u32, msg: &M) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(FRAME_HEADER_BYTES + msg.encoded_len());
        put_header(&mut buf, KIND_DATA, from, round, 0);
        msg.encode(&mut buf);
        let len = (buf.len() - FRAME_HEADER_BYTES) as u32;
        buf[FRAME_HEADER_BYTES - 4..FRAME_HEADER_BYTES].copy_from_slice(&len.to_be_bytes());
        buf.into()
    }

    /// The frame a validated header and its payload bytes amount to.
    fn assemble(kind: u8, from: u16, round: u32, payload: &[u8]) -> Frame {
        match kind {
            KIND_HELLO => Frame::Hello { from },
            KIND_ROUND_END => Frame::RoundEnd { from, round },
            _ => Frame::Data { from, round, payload: payload.to_vec() },
        }
    }
}

fn put_header(buf: &mut BytesMut, kind: u8, from: u16, round: u32, len: u32) {
    buf.put_u8(FRAME_VERSION);
    buf.put_u8(kind);
    buf.put_u16(from);
    buf.put_u32(round);
    buf.put_u32(len);
}

/// Validated header fields: kind, from, round, payload length.
fn parse_header(mut head: &[u8]) -> Result<(u8, u16, u32, usize), CodecError> {
    let version = head.get_u8();
    if version != FRAME_VERSION {
        return Err(CodecError::LengthOutOfBounds {
            decoding: "frame version",
            len: version as usize,
        });
    }
    let kind = head.get_u8();
    let from = head.get_u16();
    let round = head.get_u32();
    let len = head.get_u32() as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(CodecError::LengthOutOfBounds { decoding: "frame payload length", len });
    }
    match kind {
        KIND_DATA => {}
        KIND_HELLO | KIND_ROUND_END if len != 0 => {
            return Err(CodecError::LengthOutOfBounds { decoding: "frame control payload", len });
        }
        KIND_HELLO | KIND_ROUND_END => {}
        other => {
            return Err(CodecError::LengthOutOfBounds {
                decoding: "frame kind",
                len: other as usize,
            });
        }
    }
    Ok((kind, from, round, len))
}

impl Encode for Frame {
    fn encode(&self, buf: &mut BytesMut) {
        let (kind, from, round, payload) = self.parts();
        put_header(buf, kind, from, round, payload.len() as u32);
        buf.put_slice(payload);
    }

    fn encoded_len(&self) -> usize {
        FRAME_HEADER_BYTES + self.parts().3.len()
    }
}

impl Decode for Frame {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let (kind, from, round, len) =
            parse_header(need(buf, FRAME_HEADER_BYTES, "frame header")?)?;
        Ok(Frame::assemble(kind, from, round, need(buf, len, "frame payload")?))
    }
}

/// Incremental frame reassembly over an arbitrary chunking of the byte
/// stream — the receive side of a socket connection.
///
/// Feed raw bytes with [`extend`](Self::extend); drain complete frames
/// with [`next_frame`](Self::next_frame). An incomplete frame is
/// `Ok(None)` (wait for more bytes), a malformed one is an error — the
/// distinction the one-shot [`Decode`] cannot make.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends raw bytes read off the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// The next complete frame, `Ok(None)` if more bytes are needed. The
    /// header is parsed once and the payload leaves the buffer once.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on a malformed header (bad version,
    /// unknown kind, out-of-bounds length) — detected from the header
    /// alone, before any payload arrives.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, CodecError> {
        let avail = &self.buf[self.start..];
        if avail.len() < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let (kind, from, round, len) = parse_header(&avail[..FRAME_HEADER_BYTES])?;
        let total = FRAME_HEADER_BYTES + len;
        if avail.len() < total {
            return Ok(None);
        }
        let frame = Frame::assemble(kind, from, round, &avail[FRAME_HEADER_BYTES..total]);
        self.start += total;
        if self.start == self.buf.len() {
            // Everything consumed: nothing to move.
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 && self.start * 2 > self.buf.len() {
            // Reclaim consumed prefix once it dominates the allocation.
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { from: 7 },
            Frame::Data { from: 3, round: 2, payload: vec![9, 8, 7, 6, 5] },
            Frame::Data { from: 0, round: 1, payload: vec![] },
            Frame::RoundEnd { from: 65535, round: 4_000_000_000 },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for frame in sample_frames() {
            let bytes = frame.to_wire_bytes();
            assert_eq!(bytes.len(), frame.encoded_len());
            let mut slice = bytes.as_slice();
            assert_eq!(Frame::decode(&mut slice).unwrap(), frame);
            assert!(slice.is_empty(), "decode must consume exactly one frame");
        }
    }

    #[test]
    fn a_message_encoded_behind_its_header_is_the_data_frame_of_its_bytes() {
        let ks = crate::keys::KeyStore::generate(4, 7);
        let digest = crate::sha256::sha256(b"payload");
        let empty = crate::chain::SignatureChain::new();
        let chain = empty.extend(&ks.signer(0), &digest).extend(&ks.signer(3), &digest);
        for msg in [&empty, &chain] {
            let frame = Frame::Data { from: 9, round: 5, payload: msg.to_wire_bytes() };
            assert_eq!(Frame::data_wire_bytes(9, 5, msg), frame.to_wire_bytes());
        }
    }

    #[test]
    fn decode_leaves_trailing_bytes_alone() {
        let frame = Frame::Data { from: 1, round: 1, payload: vec![1, 2, 3] };
        let mut bytes = frame.to_wire_bytes();
        bytes.extend_from_slice(&[0xAA, 0xBB]);
        let mut slice = bytes.as_slice();
        assert_eq!(Frame::decode(&mut slice).unwrap(), frame);
        assert_eq!(slice, &[0xAA, 0xBB]);
    }

    #[test]
    fn truncation_errors_on_one_shot_decode() {
        let bytes = Frame::Data { from: 2, round: 3, payload: vec![1; 16] }.to_wire_bytes();
        for cut in 0..bytes.len() {
            let mut slice = &bytes[..cut];
            assert!(Frame::decode(&mut slice).is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn streaming_waits_for_truncated_frames() {
        let bytes = Frame::Data { from: 2, round: 3, payload: vec![1; 16] }.to_wire_bytes();
        for cut in 0..bytes.len() {
            let mut fb = FrameBuffer::new();
            fb.extend(&bytes[..cut]);
            assert_eq!(fb.next_frame().unwrap(), None, "cut at {cut} must wait");
        }
    }

    #[test]
    fn streaming_reassembles_byte_at_a_time() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.to_wire_bytes());
        }
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for &b in &stream {
            fb.extend(&[b]);
            while let Some(f) = fb.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = Frame::Hello { from: 1 }.to_wire_bytes();
        bytes[0] = FRAME_VERSION + 1;
        let mut slice = bytes.as_slice();
        assert!(Frame::decode(&mut slice).is_err());
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        assert!(fb.next_frame().is_err());
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut bytes = Frame::Hello { from: 1 }.to_wire_bytes();
        bytes[1] = 9;
        let mut slice = bytes.as_slice();
        assert!(Frame::decode(&mut slice).is_err());
    }

    #[test]
    fn oversized_length_is_rejected_from_the_header_alone() {
        let mut bytes = Frame::Data { from: 1, round: 1, payload: vec![] }.to_wire_bytes();
        let huge = (MAX_FRAME_PAYLOAD as u32 + 1).to_be_bytes();
        bytes[8..12].copy_from_slice(&huge);
        // The streaming buffer holds only the 12 header bytes, yet must
        // reject the claimed length without waiting for (or allocating)
        // the payload.
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        assert!(fb.next_frame().is_err());
        let mut slice = bytes.as_slice();
        assert!(Frame::decode(&mut slice).is_err());
    }

    #[test]
    fn control_frames_with_payload_are_rejected() {
        let mut bytes = Frame::RoundEnd { from: 1, round: 2 }.to_wire_bytes();
        bytes[8..12].copy_from_slice(&4u32.to_be_bytes());
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        let mut slice = bytes.as_slice();
        assert!(Frame::decode(&mut slice).is_err());
    }

    #[test]
    fn sender_is_reported_for_every_kind() {
        assert_eq!(Frame::Hello { from: 4 }.sender(), 4);
        assert_eq!(Frame::Data { from: 5, round: 1, payload: vec![] }.sender(), 5);
        assert_eq!(Frame::RoundEnd { from: 6, round: 1 }.sender(), 6);
    }
}
