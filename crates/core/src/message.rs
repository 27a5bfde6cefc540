//! NECTAR's wire messages.
//!
//! During the edge-propagation phase every node transmits *relayed edges*:
//! a neighborhood proof wrapped in a signature chain
//! `σ_k(σ_x(…σ_u(proof_{u,v})))` whose length must equal the round in which
//! the message travels (Alg. 1 ll. 5–15). A node batches everything due to
//! one neighbor in one [`NectarMsg`] per round.

use std::sync::Arc;

use nectar_crypto::wire;
use nectar_crypto::{NeighborhoodProof, SignatureChain};
use nectar_net::WireSized;

/// One discovered edge in transit: the proof plus its relay chain.
///
/// Both payloads sit behind shared ownership: a node fanning one edge out
/// to its whole neighborhood copies two pointers per copy, not a signature
/// buffer, and a proof relayed along k paths is one allocation and one
/// digest process-wide on the in-memory runtimes (the proof keeps its
/// digest once computed). The wire codec still serializes full
/// contents, so the interning is invisible at the codec boundary — a
/// deserialized edge simply starts a fresh sharing group. `Arc` (not `Rc`)
/// because messages cross engine worker threads. Equality and `Debug` see
/// through the pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayedEdge {
    /// The both-endpoint-signed edge declaration.
    pub proof: Arc<NeighborhoodProof>,
    /// The signature chain accumulated along the relay path; its length is
    /// the paper's `lengthSign(msg)`.
    pub chain: Arc<SignatureChain>,
}

impl RelayedEdge {
    /// Wraps freshly built payloads in the shared-ownership envelope the
    /// relay fan-out copies by pointer.
    pub fn new(proof: NeighborhoodProof, chain: SignatureChain) -> Self {
        RelayedEdge { proof: Arc::new(proof), chain: Arc::new(chain) }
    }
}

/// A round's batch of relayed edges from one node to one neighbor. Every
/// relayed edge carries its own chain of `R` signatures at round `R`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NectarMsg {
    /// Edges relayed in this message.
    pub edges: Vec<RelayedEdge>,
}

/// Fixed per-message framing overhead (sender id + round + count).
pub const MSG_HEADER_BYTES: usize = 8;

impl WireSized for NectarMsg {
    fn wire_bytes(&self) -> usize {
        let edges: usize =
            self.edges.iter().map(|e| wire::relayed_proof_bytes(&e.proof, &e.chain)).sum();
        MSG_HEADER_BYTES + edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_crypto::KeyStore;

    fn relayed(ks: &KeyStore, a: u16, b: u16, hops: &[u16]) -> RelayedEdge {
        let proof = NeighborhoodProof::new(&ks.signer(a), &ks.signer(b));
        let digest = proof.digest();
        let mut chain = SignatureChain::new();
        for &h in hops {
            chain = chain.extend(&ks.signer(h), &digest);
        }
        RelayedEdge::new(proof, chain)
    }

    #[test]
    fn per_edge_format_charges_each_chain() {
        let ks = KeyStore::generate(6, 1);
        let msg =
            NectarMsg { edges: vec![relayed(&ks, 0, 1, &[0, 2]), relayed(&ks, 1, 2, &[1, 2])] };
        let per_edge = wire::neighborhood_proof_bytes() + 2 * wire::signature_entry_bytes();
        assert_eq!(msg.wire_bytes(), MSG_HEADER_BYTES + 2 * per_edge);
    }

    #[test]
    fn empty_message_is_header_only() {
        let msg = NectarMsg { edges: Vec::new() };
        assert_eq!(msg.wire_bytes(), MSG_HEADER_BYTES);
    }
}
