//! Binary wire codec for [`NectarMsg`]: the serialization a production
//! deployment would put on the TCP stream, matching the byte accounting of
//! [`crate::message`] up to a fixed per-edge framing constant.
//!
//! Frame layout:
//!
//! ```text
//! header   : u16 version | u16 zero | u32 edge count        (8 bytes)
//! per edge : proof frame | chain frame                       (crypto codec)
//! ```

use nectar_crypto::codec::{CodecError, Decode, Encode, MAX_COLLECTION_LEN};
use nectar_crypto::{NeighborhoodProof, SignatureChain};

use crate::message::{NectarMsg, RelayedEdge, MSG_HEADER_BYTES};

/// Codec version tag (bumped on incompatible frame changes). Version 2
/// kept the layout of 1 and changed what a chain link signs (the previous
/// link's tag), so a fleet mixing the two refuses the first frame instead
/// of rejecting every relayed edge as a bad chain.
pub const CODEC_VERSION: u16 = 2;

impl Encode for RelayedEdge {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.proof.encode(buf);
        self.chain.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.proof.encoded_len() + self.chain.encoded_len()
    }
}

impl Decode for RelayedEdge {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let proof = NeighborhoodProof::decode(buf)?;
        let chain = SignatureChain::decode(buf)?;
        // A decoded edge starts a fresh sharing group: interning is an
        // in-process optimization, never a wire-visible property.
        Ok(RelayedEdge::new(proof, chain))
    }
}

impl Encode for NectarMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&CODEC_VERSION.to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes());
        buf.extend_from_slice(&(self.edges.len() as u32).to_be_bytes());
        for edge in &self.edges {
            edge.encode(buf);
        }
    }

    fn encoded_len(&self) -> usize {
        MSG_HEADER_BYTES + self.edges.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl Decode for NectarMsg {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let (&[v0, v1, r0, r1, c0, c1, c2, c3], tail) = buf
            .split_first_chunk::<MSG_HEADER_BYTES>()
            .ok_or(CodecError::UnexpectedEnd { decoding: "NectarMsg header" })?;
        *buf = tail;
        let version = u16::from_be_bytes([v0, v1]);
        if version != CODEC_VERSION {
            return Err(CodecError::LengthOutOfBounds {
                decoding: "NectarMsg version",
                len: version as usize,
            });
        }
        let reserved = u16::from_be_bytes([r0, r1]);
        if reserved != 0 {
            return Err(CodecError::LengthOutOfBounds {
                decoding: "wire format tag",
                len: reserved as usize,
            });
        }
        let count = u32::from_be_bytes([c0, c1, c2, c3]) as usize;
        if count > MAX_COLLECTION_LEN {
            return Err(CodecError::LengthOutOfBounds { decoding: "NectarMsg edges", len: count });
        }
        let mut edges = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            edges.push(RelayedEdge::decode(buf)?);
        }
        Ok(NectarMsg { edges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_crypto::KeyStore;
    use nectar_net::WireSized;

    fn sample_msg() -> (KeyStore, NectarMsg) {
        let ks = KeyStore::generate(8, 5);
        let edges = [(0u16, 1u16), (1, 2), (2, 3)]
            .into_iter()
            .map(|(a, b)| {
                let proof = NeighborhoodProof::new(&ks.signer(a), &ks.signer(b));
                let digest = proof.digest();
                let chain = SignatureChain::new()
                    .extend(&ks.signer(a), &digest)
                    .extend(&ks.signer(4), &digest);
                RelayedEdge::new(proof, chain)
            })
            .collect();
        (ks, NectarMsg { edges })
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (ks, msg) = sample_msg();
        let bytes = msg.to_wire_bytes();
        let mut slice = bytes.as_slice();
        let decoded = NectarMsg::decode(&mut slice).expect("decodes");
        assert!(slice.is_empty());
        assert_eq!(decoded, msg);
        // Decoded material still verifies cryptographically.
        for edge in &decoded.edges {
            assert!(edge.proof.verify(&ks.verifier()));
            assert!(edge.chain.verify(&ks.verifier(), &edge.proof.digest()));
        }
    }

    #[test]
    fn encoded_len_matches_actual_bytes() {
        let (_, msg) = sample_msg();
        assert_eq!(msg.to_wire_bytes().len(), msg.encoded_len());
    }

    #[test]
    fn per_edge_accounting_matches_the_codec_exactly() {
        // The WireSized accounting used by the metrics equals the real
        // serialized size, minus only the per-signature
        // signer-id duplication the minimal accounting omits inside proofs.
        let (_, msg) = sample_msg();
        let accounted = msg.wire_bytes();
        let encoded = msg.encoded_len();
        // Each edge frame carries 2 extra signer ids inside the proof
        // (2 bytes each) plus the chain's 2-byte length prefix.
        assert_eq!(encoded, accounted + msg.edges.len() * 6);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let (_, msg) = sample_msg();
        let mut bytes = msg.to_wire_bytes();
        bytes[0] = 0xff;
        let mut slice = bytes.as_slice();
        assert!(NectarMsg::decode(&mut slice).is_err());
    }

    #[test]
    fn a_version_1_header_is_refused() {
        let (_, msg) = sample_msg();
        let mut bytes = msg.to_wire_bytes();
        assert_eq!(bytes[..2], CODEC_VERSION.to_be_bytes());
        bytes[..2].copy_from_slice(&1u16.to_be_bytes());
        assert_eq!(
            NectarMsg::decode(&mut bytes.as_slice()),
            Err(CodecError::LengthOutOfBounds { decoding: "NectarMsg version", len: 1 })
        );
    }

    #[test]
    fn unknown_format_tag_is_rejected() {
        let (_, msg) = sample_msg();
        // The header's second field is reserved: 1 named the retired
        // batched-chain accounting, anything else was never assigned.
        for tag in [1, 9] {
            let mut bytes = msg.to_wire_bytes();
            bytes[3] = tag;
            assert!(matches!(
                NectarMsg::decode(&mut bytes.as_slice()),
                Err(CodecError::LengthOutOfBounds { decoding: "wire format tag", .. })
            ));
        }
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let (_, msg) = sample_msg();
        let bytes = msg.to_wire_bytes();
        for cut in [0, 4, MSG_HEADER_BYTES, MSG_HEADER_BYTES + 10, bytes.len() - 1] {
            let mut slice = &bytes[..cut];
            assert!(NectarMsg::decode(&mut slice).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn empty_message_round_trips() {
        let msg = NectarMsg { edges: Vec::new() };
        let bytes = msg.to_wire_bytes();
        assert_eq!(bytes, [0, 2, 0, 0, 0, 0, 0, 0], "big-endian version, reserved, count");
        assert_eq!(
            NectarMsg::decode(&mut &bytes[..MSG_HEADER_BYTES - 1]),
            Err(CodecError::UnexpectedEnd { decoding: "NectarMsg header" })
        );
        let mut slice = bytes.as_slice();
        assert_eq!(NectarMsg::decode(&mut slice).unwrap(), msg);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use nectar_crypto::KeyStore;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn arbitrary_messages_round_trip(
            edge_spec in proptest::collection::vec((0u16..6, 0u16..6, 0usize..4), 0..6),
        ) {
            let ks = KeyStore::generate(8, 3);
            let edges: Vec<RelayedEdge> = edge_spec
                .into_iter()
                .filter(|(a, b, _)| a != b)
                .map(|(a, b, hops)| {
                    let proof = NeighborhoodProof::new(&ks.signer(a), &ks.signer(b));
                    let digest = proof.digest();
                    let mut chain = SignatureChain::new();
                    for h in 0..hops {
                        chain = chain.extend(&ks.signer(h as u16), &digest);
                    }
                    RelayedEdge::new(proof, chain)
                })
                .collect();
            let msg = NectarMsg { edges };
            let bytes = msg.to_wire_bytes();
            let mut slice = bytes.as_slice();
            prop_assert_eq!(NectarMsg::decode(&mut slice).unwrap(), msg);
            prop_assert!(slice.is_empty());
        }

        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..400)) {
            let mut slice = bytes.as_slice();
            let _ = NectarMsg::decode(&mut slice);
        }
    }
}
