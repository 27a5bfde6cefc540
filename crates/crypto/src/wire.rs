//! Wire-size accounting constants.
//!
//! The evaluation reports "data sent per node" in kilobytes (Figs. 3–7).
//! Every message in this reproduction is charged its serialized size using
//! the byte widths below, chosen to match the paper's prototype: ECDSA
//! signatures are 64 bytes, node identifiers fit in 2 bytes for systems of
//! up to 100 nodes, and digests are SHA-256 sized.

use crate::chain::SignatureChain;
use crate::proof::NeighborhoodProof;

/// Serialized size of one signature on the wire (ECDSA-sized, as in the
/// paper's prototype; our simulated tags are padded up to this width).
pub const SIGNATURE_WIRE_BYTES: usize = 64;

/// Serialized size of a node identifier.
pub const NODE_ID_WIRE_BYTES: usize = 2;

/// Wire size of one signature together with its signer identity.
pub const fn signature_entry_bytes() -> usize {
    NODE_ID_WIRE_BYTES + SIGNATURE_WIRE_BYTES
}

/// Wire size of a neighborhood proof: two endpoint ids + two signatures.
pub const fn neighborhood_proof_bytes() -> usize {
    2 * NODE_ID_WIRE_BYTES + 2 * SIGNATURE_WIRE_BYTES
}

/// Wire size of a signature chain (its links, each id + signature).
pub fn chain_bytes(chain: &SignatureChain) -> usize {
    chain.len() * signature_entry_bytes()
}

/// Wire size of a relayed edge: the proof plus its chain.
pub fn relayed_proof_bytes(proof: &NeighborhoodProof, chain: &SignatureChain) -> usize {
    let _ = proof; // proofs have a fixed wire size
    neighborhood_proof_bytes() + chain_bytes(chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyStore;
    use crate::sha256::sha256;

    #[test]
    fn sizes_match_paper_prototype() {
        assert_eq!(SIGNATURE_WIRE_BYTES, 64);
        assert_eq!(signature_entry_bytes(), 66);
        assert_eq!(neighborhood_proof_bytes(), 132);
    }

    #[test]
    fn chain_size_grows_linearly() {
        let ks = KeyStore::generate(4, 1);
        let digest = sha256(b"p");
        let mut chain = SignatureChain::new();
        assert_eq!(chain_bytes(&chain), 0);
        for hop in 0..3 {
            chain = chain.extend(&ks.signer(hop), &digest);
            assert_eq!(chain_bytes(&chain), (hop as usize + 1) * signature_entry_bytes());
        }
        let proof = NeighborhoodProof::new(&ks.signer(0), &ks.signer(1));
        assert_eq!(relayed_proof_bytes(&proof, &chain), 132 + 3 * 66);
    }
}
