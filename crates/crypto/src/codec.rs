//! Binary wire codec for the cryptographic objects.
//!
//! The byte-accounting constants of [`crate::wire`] describe these exact
//! encodings: everything a NECTAR message carries can be serialized with
//! [`encode`](Encode::encode) and parsed back with
//! [`decode`](Decode::decode). Signatures occupy the full
//! [`SIGNATURE_WIRE_BYTES`] (the 32-byte
//! HMAC tag padded to ECDSA's 64 bytes, see `docs/ARCHITECTURE.md` §2, "The
//! crypto layer"), so measured sizes equal encoded sizes byte-for-byte.

use crate::chain::SignatureChain;
use crate::keys::{Signature, SignerId};
use crate::proof::NeighborhoodProof;
use crate::wire::SIGNATURE_WIRE_BYTES;

/// Errors produced while decoding wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    UnexpectedEnd {
        /// What was being decoded.
        decoding: &'static str,
    },
    /// A length prefix exceeded sane protocol bounds.
    LengthOutOfBounds {
        /// What was being decoded.
        decoding: &'static str,
        /// The offending length.
        len: usize,
    },
    /// Signature padding bytes were not zero (tampered or corrupt frame).
    BadPadding,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEnd { decoding } => {
                write!(f, "unexpected end of buffer while decoding {decoding}")
            }
            CodecError::LengthOutOfBounds { decoding, len } => {
                write!(f, "length {len} out of bounds while decoding {decoding}")
            }
            CodecError::BadPadding => f.write_str("non-zero signature padding"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Maximum elements a decoded collection may claim (protocol messages never
/// exceed the square of the largest supported system size).
pub const MAX_COLLECTION_LEN: usize = u16::MAX as usize;

/// Serialize a value into a byte buffer.
pub trait Encode {
    /// Appends this value's wire form to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Exact number of bytes [`encode`](Self::encode) appends.
    fn encoded_len(&self) -> usize;

    /// Convenience: encodes into a fresh buffer and hands that buffer
    /// back (no copy of what was just written).
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf
    }
}

/// Parse a value from a byte buffer.
pub trait Decode: Sized {
    /// Consumes this value's wire form from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the buffer is truncated or malformed.
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError>;
}

pub(crate) fn need<'a>(
    buf: &mut &'a [u8],
    n: usize,
    what: &'static str,
) -> Result<&'a [u8], CodecError> {
    if buf.len() < n {
        return Err(CodecError::UnexpectedEnd { decoding: what });
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// [`need`] for a fixed-width head, handed back by value for
/// `from_be_bytes`.
pub(crate) fn need_array<const N: usize>(
    buf: &mut &[u8],
    what: &'static str,
) -> Result<[u8; N], CodecError> {
    Ok(need(buf, N, what)?.try_into().expect("need returns exactly N bytes"))
}

impl Encode for Signature {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.signer().to_be_bytes());
        buf.extend_from_slice(self.tag());
        // Pad the 32-byte HMAC tag up to the ECDSA wire width.
        buf.resize(buf.len() + SIGNATURE_WIRE_BYTES - 32, 0);
    }

    fn encoded_len(&self) -> usize {
        crate::wire::signature_entry_bytes()
    }
}

impl Decode for Signature {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let signer: SignerId = u16::from_be_bytes(need_array(buf, "signature signer")?);
        let tag = need_array(buf, "signature tag")?;
        let padding = need(buf, SIGNATURE_WIRE_BYTES - 32, "signature padding")?;
        if padding.iter().any(|&b| b != 0) {
            return Err(CodecError::BadPadding);
        }
        Ok(Signature::from_parts(signer, tag))
    }
}

impl Encode for NeighborhoodProof {
    fn encode(&self, buf: &mut Vec<u8>) {
        let (a, b) = self.endpoints();
        buf.extend_from_slice(&a.to_be_bytes());
        buf.extend_from_slice(&b.to_be_bytes());
        self.sig_a().encode(buf);
        self.sig_b().encode(buf);
    }

    fn encoded_len(&self) -> usize {
        // Note: this frame carries the signer ids inside each signature as
        // well, so it is slightly larger than the *minimal* proof frame the
        // accounting constant describes; accounting uses the constant.
        4 + 2 * crate::wire::signature_entry_bytes()
    }
}

impl Decode for NeighborhoodProof {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let [a0, a1, b0, b1] = need_array(buf, "proof endpoints")?;
        let (a, b) = (u16::from_be_bytes([a0, a1]), u16::from_be_bytes([b0, b1]));
        let sig_a = Signature::decode(buf)?;
        let sig_b = Signature::decode(buf)?;
        Ok(NeighborhoodProof::from_parts(a, b, sig_a, sig_b))
    }
}

impl Encode for SignatureChain {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u16).to_be_bytes());
        for link in self.links() {
            link.encode(buf);
        }
    }

    fn encoded_len(&self) -> usize {
        2 + self.len() * crate::wire::signature_entry_bytes()
    }
}

impl Decode for SignatureChain {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u16::from_be_bytes(need_array(buf, "chain length")?) as usize;
        if len > MAX_COLLECTION_LEN {
            return Err(CodecError::LengthOutOfBounds { decoding: "chain", len });
        }
        // Reserve for what the buffer can hold, not for what the prefix claims.
        let mut links =
            Vec::with_capacity(len.min(buf.len() / crate::wire::signature_entry_bytes()));
        for _ in 0..len {
            links.push(Signature::decode(buf)?);
        }
        Ok(SignatureChain::from_links(links))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyStore;
    use crate::sha256::sha256;

    fn store() -> KeyStore {
        KeyStore::generate(8, 21)
    }

    #[test]
    fn signature_round_trip() {
        let ks = store();
        let sig = ks.signer(3).sign(b"msg");
        let bytes = sig.to_wire_bytes();
        assert_eq!(bytes.len(), sig.encoded_len());
        let mut slice = bytes.as_slice();
        let decoded = Signature::decode(&mut slice).unwrap();
        assert_eq!(decoded, sig);
        assert!(slice.is_empty());
        // Decoded signatures still verify.
        assert!(ks.verifier().verify(b"msg", &decoded));
    }

    #[test]
    fn signature_rejects_nonzero_padding() {
        let ks = store();
        let mut bytes = ks.signer(0).sign(b"m").to_wire_bytes();
        *bytes.last_mut().unwrap() = 1;
        let mut slice = bytes.as_slice();
        assert_eq!(Signature::decode(&mut slice), Err(CodecError::BadPadding));
    }

    #[test]
    fn proof_round_trip_and_verification() {
        let ks = store();
        let proof = NeighborhoodProof::new(&ks.signer(2), &ks.signer(5));
        let bytes = proof.to_wire_bytes();
        assert_eq!(bytes.len(), proof.encoded_len());
        let mut slice = bytes.as_slice();
        let decoded = NeighborhoodProof::decode(&mut slice).unwrap();
        assert_eq!(decoded, proof);
        assert!(decoded.verify(&ks.verifier()));
    }

    #[test]
    fn chain_round_trip_preserves_verification() {
        let ks = store();
        let digest = sha256(b"payload");
        let chain = SignatureChain::new()
            .extend(&ks.signer(0), &digest)
            .extend(&ks.signer(1), &digest)
            .extend(&ks.signer(2), &digest);
        let bytes = chain.to_wire_bytes();
        assert_eq!(bytes.len(), chain.encoded_len());
        let mut slice = bytes.as_slice();
        let decoded = SignatureChain::decode(&mut slice).unwrap();
        assert_eq!(decoded, chain);
        assert!(decoded.verify(&ks.verifier(), &digest));
    }

    #[test]
    fn truncated_buffers_error_cleanly() {
        let ks = store();
        let proof = NeighborhoodProof::new(&ks.signer(0), &ks.signer(1));
        let bytes = proof.to_wire_bytes();
        for cut in [0, 1, 3, 5, 40, bytes.len() - 1] {
            let mut slice = &bytes[..cut];
            assert!(NeighborhoodProof::decode(&mut slice).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn signature_wire_form_is_big_endian_and_zero_padded() {
        let sig = Signature::from_parts(0x1234, [7; 32]);
        let bytes = sig.to_wire_bytes();
        let mut expected = vec![0x12, 0x34];
        expected.extend([7; 32]);
        expected.extend([0; SIGNATURE_WIRE_BYTES - 32]);
        assert_eq!(bytes, expected);
        let mut slice = bytes.as_slice();
        assert_eq!(Signature::decode(&mut slice), Ok(sig));
        assert!(slice.is_empty());
        // A cut names the field it fell in, never reads past the end.
        for (cut, field) in [
            (0, "signature signer"),
            (1, "signature signer"),
            (2, "signature tag"),
            (33, "signature tag"),
            (34, "signature padding"),
            (bytes.len() - 1, "signature padding"),
        ] {
            assert_eq!(
                Signature::decode(&mut &bytes[..cut]),
                Err(CodecError::UnexpectedEnd { decoding: field }),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn empty_chain_encodes_to_two_bytes() {
        let chain = SignatureChain::new();
        assert_eq!(chain.to_wire_bytes(), vec![0, 0]);
        let mut slice: &[u8] = &[0, 0];
        assert_eq!(SignatureChain::decode(&mut slice).unwrap(), chain);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::keys::KeyStore;
    use crate::sha256::sha256;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn arbitrary_chain_round_trips(
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..32),
            signers in proptest::collection::vec(0u16..8, 0..6),
        ) {
            let ks = KeyStore::generate(8, 2);
            let digest = sha256(&payload);
            let mut chain = SignatureChain::new();
            for &s in &signers {
                chain = chain.extend(&ks.signer(s), &digest);
            }
            let bytes = chain.to_wire_bytes();
            prop_assert_eq!(bytes.len(), chain.encoded_len());
            let mut slice = bytes.as_slice();
            prop_assert_eq!(SignatureChain::decode(&mut slice).unwrap(), chain);
            prop_assert!(slice.is_empty());
        }

        #[test]
        fn random_bytes_never_panic_the_decoder(
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..256),
        ) {
            let mut s1 = bytes.as_slice();
            let _ = Signature::decode(&mut s1);
            let mut s2 = bytes.as_slice();
            let _ = NeighborhoodProof::decode(&mut s2);
            let mut s3 = bytes.as_slice();
            let _ = SignatureChain::decode(&mut s3);
        }
    }
}
