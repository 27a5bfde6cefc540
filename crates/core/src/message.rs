//! NECTAR's wire messages.
//!
//! During the edge-propagation phase every node transmits *relayed edges*:
//! a neighborhood proof wrapped in a signature chain
//! `σ_k(σ_x(…σ_u(proof_{u,v})))` whose length must equal the round in which
//! the message travels (Alg. 1 ll. 5–15). A node builds one round batch —
//! every edge it accepted, already under its own signature — and sends it
//! once: each neighbor's [`NectarMsg`] is a view of that one shared batch
//! minus the relays that came from that neighbor.

use std::fmt;
use std::sync::Arc;

use nectar_crypto::wire;
use nectar_crypto::{NeighborhoodProof, SignatureChain, SignerId};
use nectar_net::{NodeId, Outgoing, WireSized};

/// One discovered edge in transit: the proof plus its relay chain.
///
/// The proof sits behind shared ownership: a proof relayed along k paths is
/// one allocation and one digest process-wide on the in-memory runtimes
/// (the proof keeps its digest once computed). The chain is held inline:
/// the relaying node signs it once, into its round batch, and every
/// neighbor's message points into that batch, so a chain needs no sharing
/// of its own. The wire codec serializes full contents, so the sharing is
/// invisible at the codec boundary. `Arc` (not `Rc`) because messages cross
/// engine worker threads. Equality and `Debug` see through the pointer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayedEdge {
    /// The both-endpoint-signed edge declaration.
    pub proof: Arc<NeighborhoodProof>,
    /// The signature chain accumulated along the relay path; its length is
    /// the paper's `lengthSign(msg)`.
    pub chain: SignatureChain,
}

impl RelayedEdge {
    /// Wraps a freshly built proof in the shared envelope relays point to.
    pub fn new(proof: NeighborhoodProof, chain: SignatureChain) -> Self {
        RelayedEdge { proof: Arc::new(proof), chain }
    }

    /// In a node's round batch, the neighbor the node accepted this edge
    /// from, which does not get it back: the signer before the node's own,
    /// i.e. the outermost signer of the chain it received, which
    /// validation checks is the delivering neighbor. `None` for the node's
    /// own announcements, which it alone has signed.
    pub(crate) fn came_from(&self) -> Option<SignerId> {
        let links = self.chain.links();
        links.len().checked_sub(2).map(|i| links[i].signer())
    }

    /// This edge's share of a message's accounted size.
    fn wire_bytes(&self) -> usize {
        wire::relayed_proof_bytes(&self.proof, &self.chain)
    }
}

/// Sends a node's round batch — its relays, signed, in queue order — to
/// `neighbors` (ascending): one message per neighbor that is left any edge,
/// in destination order, each a view of the one shared batch minus the
/// relays that came from its recipient. The views' lengths and accounted
/// bytes are the batch's totals minus what came from their recipient,
/// counted in one pass; making them allocates twice, whatever the batch
/// and the neighborhood hold.
pub(crate) fn fan_out(batch: Vec<RelayedEdge>, neighbors: &[NodeId]) -> Vec<Outgoing<NectarMsg>> {
    debug_assert!(neighbors.windows(2).all(|w| w[0] < w[1]), "neighbors ascend");
    let (len, bytes) = counted(&batch);
    let batch = Arc::new(batch);
    let mut out: Vec<Outgoing<NectarMsg>> = neighbors
        .iter()
        .map(|&to| {
            // Node ids are signer ids: below `MAX_NODES` = 2^16.
            let skip = Some(to as SignerId);
            let edges = BatchView { batch: Arc::clone(&batch), skip, len, bytes };
            Outgoing::new(to, NectarMsg { edges })
        })
        .collect();
    for edge in batch.iter() {
        let came_from = edge.came_from().map(NodeId::from);
        if let Some(slot) = came_from.and_then(|from| neighbors.binary_search(&from).ok()) {
            let view = &mut out[slot].msg.edges;
            view.len -= 1;
            view.bytes -= edge.wire_bytes();
        }
    }
    out.retain(|o| !o.msg.edges.is_empty());
    out
}

/// The length and the accounted bytes of `edges`. A batch holds fewer
/// than 2^32 edges: each one owns heap memory.
fn counted(edges: &[RelayedEdge]) -> (u32, usize) {
    (edges.len() as u32, edges.iter().map(RelayedEdge::wire_bytes).sum())
}

/// The edges of one [`NectarMsg`]: a sender's round batch minus the relays
/// that came from the recipient. The length and the accounted bytes are
/// counted when the view is made, from the batch alone, so both read in
/// O(1) and are the same for every engine and worker count. A view is as
/// large as the vector a message used to own.
#[derive(Clone)]
pub struct BatchView {
    batch: Arc<Vec<RelayedEdge>>,
    /// The recipient, whose own relays are left out; `None` (a message
    /// built from a list of edges) leaves out nothing.
    skip: Option<SignerId>,
    len: u32,
    /// Σ [`wire::relayed_proof_bytes`] over the edges the view yields.
    bytes: usize,
}

// Engines hold every in-flight message of a round in one vector, so a
// message stays the size of the edge vector it replaced.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<NectarMsg>() <= 24);

impl BatchView {
    /// Number of edges in the message.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the message carries no edge.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The edges, in the order the sender queued them.
    pub fn iter(&self) -> BatchIter<'_> {
        BatchIter { edges: self.batch.iter(), skip: self.skip }
    }

    /// The edges, each with its place in the sender's batch, which
    /// [`at`](Self::at) reads back.
    pub(crate) fn indexed(&self) -> impl Iterator<Item = (usize, &RelayedEdge)> {
        let skip = self.skip;
        self.batch
            .iter()
            .enumerate()
            .filter(move |(_, edge)| skip.is_none() || edge.came_from() != skip)
    }

    /// The edge at `place` in the sender's batch.
    pub(crate) fn at(&self, place: usize) -> &RelayedEdge {
        &self.batch[place]
    }
}

impl<'a> IntoIterator for &'a BatchView {
    type Item = &'a RelayedEdge;
    type IntoIter = BatchIter<'a>;

    fn into_iter(self) -> BatchIter<'a> {
        self.iter()
    }
}

impl PartialEq for BatchView {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for BatchView {}

impl fmt::Debug for BatchView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a [`BatchView`]'s edges.
#[derive(Debug, Clone)]
pub struct BatchIter<'a> {
    edges: std::slice::Iter<'a, RelayedEdge>,
    skip: Option<SignerId>,
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = &'a RelayedEdge;

    fn next(&mut self) -> Option<&'a RelayedEdge> {
        match self.skip {
            None => self.edges.next(),
            Some(skip) => self.edges.find(|edge| edge.came_from() != Some(skip)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (low, high) = self.edges.size_hint();
        (if self.skip.is_none() { low } else { 0 }, high)
    }
}

/// A round's relayed edges from one node to one neighbor. Every relayed
/// edge carries its own chain of `R` signatures at round `R`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NectarMsg {
    /// Edges relayed in this message.
    pub edges: BatchView,
}

impl NectarMsg {
    /// A message carrying exactly `edges`, in order.
    pub fn new(edges: Vec<RelayedEdge>) -> Self {
        let (len, bytes) = counted(&edges);
        NectarMsg { edges: BatchView { batch: Arc::new(edges), skip: None, len, bytes } }
    }
}

impl FromIterator<RelayedEdge> for NectarMsg {
    fn from_iter<I: IntoIterator<Item = RelayedEdge>>(edges: I) -> Self {
        NectarMsg::new(edges.into_iter().collect())
    }
}

/// Fixed per-message framing overhead (sender id + round + count).
pub const MSG_HEADER_BYTES: usize = 8;

impl WireSized for NectarMsg {
    fn wire_bytes(&self) -> usize {
        MSG_HEADER_BYTES + self.edges.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_crypto::codec::{Decode, Encode};
    use nectar_crypto::KeyStore;
    use proptest::prelude::*;

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
        let msg = NectarMsg::new(vec![relayed(&ks, 0, 1, &[0, 2]), relayed(&ks, 1, 2, &[1, 2])]);
        let per_edge = wire::neighborhood_proof_bytes() + 2 * wire::signature_entry_bytes();
        assert_eq!(msg.wire_bytes(), MSG_HEADER_BYTES + 2 * per_edge);
    }

    #[test]
    fn empty_message_is_header_only() {
        let msg = NectarMsg::new(Vec::new());
        assert_eq!(msg.wire_bytes(), MSG_HEADER_BYTES);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every neighbor's view of a fanned-out batch is what a message of
        /// its own would be: the per-neighbor filter loop the views replace
        /// is the reference. Relays come from neighbors, from non-neighbors
        /// (ids 8 and 9 are never neighbors; 10 and 11 stand for an own
        /// announcement), and the neighbor list may be empty.
        #[test]
        fn each_view_is_the_batch_minus_its_recipients_relays(
            relays in proptest::collection::vec((0u16..8, 1u16..8, 0u16..=6, 0u16..10), 0..=12),
            neighbors in proptest::collection::btree_set(0usize..8, 0..8),
        ) {
            // Node 11 relays each edge under a received chain of 0–6 links
            // whose outermost signer is the neighbor it came from; an empty
            // one is an own announcement.
            let ks = KeyStore::generate(12, 2);
            let mut batch = Vec::new();
            let mut came_from = Vec::new();
            for &(a, step, received, from) in &relays {
                let mut path: Vec<u16> = (10 - received..10).collect();
                if let Some(last) = path.last_mut() {
                    *last = from;
                }
                path.push(11);
                batch.push(relayed(&ks, a, (a + step) % 8, &path));
                came_from.push((received > 0).then_some(from as NodeId));
            }
            let neighbors: Vec<NodeId> = neighbors.into_iter().collect();

            // The reference: one list per neighbor, filtered relay by relay.
            let expected: Vec<(NodeId, Vec<RelayedEdge>)> = neighbors
                .iter()
                .map(|&nbr| {
                    let mut edges = Vec::new();
                    for (edge, &from) in batch.iter().zip(&came_from) {
                        if from != Some(nbr) {
                            edges.push(edge.clone());
                        }
                    }
                    (nbr, edges)
                })
                .filter(|(_, edges)| !edges.is_empty())
                .collect();

            let out = fan_out(batch, &neighbors);
            prop_assert_eq!(out.len(), expected.len(), "one message per neighbor with edges");
            for (o, (nbr, edges)) in out.iter().zip(&expected) {
                prop_assert_eq!(o.to, *nbr);
                let viewed: Vec<&RelayedEdge> = o.msg.edges.iter().collect();
                prop_assert_eq!(viewed, edges.iter().collect::<Vec<_>>(), "to {}", nbr);
                prop_assert_eq!(o.msg.edges.len(), edges.len());
                let bytes: usize =
                    edges.iter().map(|e| wire::relayed_proof_bytes(&e.proof, &e.chain)).sum();
                prop_assert_eq!(o.msg.wire_bytes(), MSG_HEADER_BYTES + bytes, "to {}", nbr);
                let wire = o.msg.to_wire_bytes();
                prop_assert_eq!(o.msg.encoded_len(), wire.len());
                let mut rest = wire.as_slice();
                prop_assert_eq!(NectarMsg::decode(&mut rest), Ok(o.msg.clone()));
                prop_assert!(rest.is_empty());
            }
        }
    }
}
