//! The NECTAR protocol node (Algorithm 1).
//!
//! Lifecycle, following the paper exactly:
//!
//! 1. **Initialization** (ll. 1–4): the node's adjacency knowledge `G_i`
//!    starts with its own neighborhood proofs.
//! 2. **Edge propagation** (ll. 5–15): `n − 1` synchronous rounds. Round 1
//!    announces the node's signed neighborhood; subsequent rounds relay,
//!    with one more chain signature, every edge newly learned in the
//!    previous round, to all neighbors except the one it came from. The
//!    node signs an edge (σ_i(msg)) when it accepts it, into the next
//!    round's batch, and sends that one batch to every neighbor. A chain
//!    accepted at round `R` must be valid, carry exactly `R` signatures
//!    (stale-replay defence), start at an endpoint of the claimed edge, end
//!    at the delivering neighbor, and edges already known are neither stored
//!    nor re-forwarded (flooding suppression, l. 14).
//! 3. **Decision** (ll. 16–23): with `r` the number of reachable nodes in
//!    `G_i` and `k` its vertex connectivity, decide NOT_PARTITIONABLE iff
//!    `k > t ∧ r = n`, PARTITIONABLE otherwise, with `confirmed = (r ≠ n)`.
//!
//! `G_i` is held as a hash set of packed endpoint keys and nothing else: a
//! copy of a known edge costs one probe, and the set is sorted only when
//! something reads it as an edge list — the scenario runner's decision
//! loop once per distinct view, not per node.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

use nectar_crypto::{
    NeighborhoodProof, Signature, SignatureBatch, SignatureChain, Signer, Verifier,
};
use nectar_graph::{connectivity, traversal, ConnectivityOracle, Fingerprint, Graph};
use nectar_net::{NodeId, Outgoing, Process};

use crate::config::{Decision, NectarConfig};
use crate::message::{self, NectarMsg, RelayedEdge};

/// Reasons a relayed edge can be rejected, counted for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RejectReason {
    /// Chain length differs from the current round (Alg. 1 l. 14).
    WrongChainLength,
    /// The outermost signature is not from the delivering neighbor.
    OutermostNotSender,
    /// The innermost signature is not from an endpoint of the claimed edge.
    InnermostNotEndpoint,
    /// A signer appears twice in the chain.
    DuplicateSigner,
    /// The neighborhood proof does not verify.
    BadProof,
    /// A chain signature does not verify.
    BadChain,
}

/// Packs a proof's endpoints `(a, b)` into one view key. `u32` order on
/// keys is the tuple order on endpoint pairs.
fn edge_key((a, b): (u16, u16)) -> u32 {
    (a as u32) << 16 | b as u32
}

/// The endpoints [`edge_key`] packed.
fn endpoints_of(key: u32) -> (u16, u16) {
    ((key >> 16) as u16, key as u16)
}

/// The view's hasher: one multiply by the 64-bit golden ratio and one
/// xorshift, so every key bit reaches both the high bits the set's control
/// bytes read and the low bits that pick its bucket. Only edges whose
/// proofs verified (and a Byzantine node's own doctored state) enter the
/// set, so no peer can fill it with colliding keys.
#[derive(Debug, Default, Clone, Copy)]
struct EdgeKeyHasher(u64);

impl Hasher for EdgeKeyHasher {
    fn write_u32(&mut self, key: u32) {
        let x = u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the view hashes u32 keys only");
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A correct NECTAR participant.
#[derive(Debug)]
pub struct NectarNode {
    config: NectarConfig,
    signer: Signer,
    verifier: Verifier,
    neighbors: Vec<NodeId>,
    /// `G_i`: the endpoints of every edge discovered so far, one
    /// [`edge_key`] each. Flooding suppression (l. 14) drops a copy of a
    /// known edge on one probe of this set, before any signature check.
    /// The set has no order; whoever reads the view as a list gets it
    /// sorted on that read.
    discovered: HashSet<u32, BuildHasherDefault<EdgeKeyHasher>>,
    /// Rolling digest of [`discovered_graph`](Self::discovered_graph),
    /// toggled on every view mutation so the decision phase reads view
    /// identity in O(1) instead of walking O(m_view) edge keys.
    view_fingerprint: Fingerprint,
    /// The next round's batch (`to_be_sent_R`): every edge accepted this
    /// round, already under this node's signature. The signature before
    /// this node's names the neighbor the edge came from, which does not
    /// get it back.
    pending: Vec<RelayedEdge>,
    /// Rejected-message diagnostics.
    rejections: BTreeMap<RejectReason, u64>,
}

impl NectarNode {
    /// Creates a correct node from its neighborhood proofs (one per
    /// neighbor, as provided at set-up per §II). A proof may come shared:
    /// the scenario runner hands both endpoints of an edge the same `Arc`,
    /// so the proof is signed and hashed once for the pair.
    ///
    /// # Panics
    ///
    /// Panics if a proof does not involve this node or duplicates a
    /// neighbor, or if the signer identity differs from `id`.
    pub fn new(
        id: NodeId,
        config: NectarConfig,
        signer: Signer,
        verifier: Verifier,
        neighbor_proofs: BTreeMap<NodeId, impl Into<Arc<NeighborhoodProof>>>,
    ) -> Self {
        assert_eq!(signer.id() as usize, id, "signer identity must match node id");
        let n = config.n;
        // Room for every edge among the node and its `d` neighbors (at most
        // `n`): a clique fleet's whole view, and a start on a larger one.
        let d = neighbor_proofs.len();
        let mut node = NectarNode {
            config,
            signer,
            verifier,
            neighbors: neighbor_proofs.keys().copied().collect(),
            discovered: HashSet::with_capacity_and_hasher(
                (d * (d + 1) / 2).min(n),
                Default::default(),
            ),
            view_fingerprint: Fingerprint::empty(n),
            pending: Vec::new(),
            rejections: BTreeMap::new(),
        };
        for (nbr, proof) in neighbor_proofs {
            let proof = proof.into();
            let (a, b) = proof.endpoints();
            assert!(
                (a as usize == id && b as usize == nbr) || (b as usize == id && a as usize == nbr),
                "proof endpoints ({a},{b}) must join node {id} and neighbor {nbr}"
            );
            node.set_view_edge((a, b), true);
            node.queue_announcement(proof);
        }
        node
    }

    /// Queues a round-1 announcement: the proof under this node's signature
    /// alone, sent to every neighbor (Alg. 1 ll. 6–8).
    fn queue_announcement(&mut self, proof: Arc<NeighborhoodProof>) {
        let chain = SignatureChain::new().extend(&self.signer, &proof.digest());
        self.pending.push(RelayedEdge { proof, chain });
    }

    /// Adds (`present`) or removes the edge `endpoints` from the view. On a
    /// change it folds the edge into the rolling digest iff
    /// [`discovered_graph`](Self::discovered_graph) keeps it
    /// (in-range, non-loop), preserving the invariant
    /// `self.view_fingerprint == Fingerprint::of(&self.discovered_graph())`
    /// across every view mutation (a property test pins it).
    fn set_view_edge(&mut self, endpoints: (u16, u16), present: bool) {
        let key = edge_key(endpoints);
        let changed =
            if present { self.discovered.insert(key) } else { self.discovered.remove(&key) };
        let (u, v) = (endpoints.0 as usize, endpoints.1 as usize);
        if changed && u < self.config.n && v < self.config.n && u != v {
            self.view_fingerprint.toggle_edge(u, v);
        }
    }

    /// The view's keys in ascending order.
    fn sorted_keys(&self) -> Vec<u32> {
        let mut keys: Vec<u32> = self.discovered.iter().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Adds an extra proof to announce in round 1 *as if* it were a real
    /// edge. Correct nodes never need this; it is the entry point for the
    /// Byzantine fictitious-edge behaviour (§IV, "pairs of Byzantine nodes
    /// that declare fictitious edges").
    pub fn announce_extra_proof(&mut self, proof: NeighborhoodProof) {
        self.set_view_edge(proof.endpoints(), true);
        self.queue_announcement(Arc::new(proof));
    }

    /// Removes the edge to `neighbor` from the view (and its pending
    /// announcement), while keeping the channel usable. Entry point for the Byzantine
    /// edge-hiding behaviour.
    pub fn hide_edge_to(&mut self, neighbor: NodeId) {
        let id = self.signer.id();
        let nbr = neighbor as u16;
        let key = (id.min(nbr), id.max(nbr));
        self.set_view_edge(key, false);
        self.pending.retain(|edge| edge.proof.endpoints() != key);
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.signer.id() as NodeId
    }

    /// The protocol configuration.
    pub fn config(&self) -> &NectarConfig {
        &self.config
    }

    /// Neighbors (ascending order).
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Number of distinct edges currently known.
    pub fn known_edge_count(&self) -> usize {
        self.discovered.len()
    }

    /// The discovered graph `G_i` as a [`Graph`] over the `n` system nodes.
    /// Endpoints outside `0..n` (only possible in forged proofs that failed
    /// verification anyway) are ignored.
    pub fn discovered_graph(&self) -> Graph {
        Graph::from_edges(self.config.n, self.view_edges())
            .expect("bounded endpoints, no self-loops")
    }

    /// The edges [`discovered_graph`](Self::discovered_graph) keeps —
    /// in-range, non-loop — in canonical (ascending) order: the view as an
    /// edge list, for consumers that can decide without building the
    /// `n`-sized graph. The keys are sorted on the first `next`, not here:
    /// an oracle cache hit takes this iterator and never advances it.
    pub(crate) fn view_edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.config.n;
        std::iter::once(())
            .flat_map(move |()| self.sorted_keys())
            .map(endpoints_of)
            .map(|(u, v)| (u as usize, v as usize))
            .filter(move |&(u, v)| u < n && v < n && u != v)
    }

    /// Per-reason counters of rejected relayed edges.
    pub fn rejections(&self) -> &BTreeMap<RejectReason, u64> {
        &self.rejections
    }

    /// The decision phase (Alg. 1 ll. 16–23). Callable once the propagation
    /// rounds have run; pure, so callers may invoke it repeatedly.
    ///
    /// This is the *reference* path: it computes the exact vertex
    /// connectivity of `G_i`. Production callers that re-run the decision
    /// phase repeatedly should prefer [`decide_with`](Self::decide_with),
    /// which answers the same `κ > t` question through the
    /// [`ConnectivityOracle`]'s bounded fast path.
    pub fn decide(&self) -> Decision {
        let g = self.discovered_graph();
        let reachable = traversal::reachable_count(&g, self.node_id());
        let kappa = connectivity::vertex_connectivity(&g);
        Decision::from_view(self.config.n, self.config.t, reachable, kappa)
    }

    /// The decision phase answered through a [`ConnectivityOracle`].
    ///
    /// Corollary 1 only needs the decision bit `κ(G_i) ≤ t`, so the oracle
    /// can stop each max-flow after `t + 1` disjoint paths and reuse cached
    /// verdicts when `G_i` did not change since the last call (or matches
    /// another node's identical view, per Lemma 2). The verdict and
    /// `confirmed` flag are identical to [`decide`](Self::decide); the
    /// reported [`Decision::connectivity`] is the oracle's witness bound
    /// rather than the exact `κ` — the bound sits on the same side of `t`
    /// as the exact value by construction, so the shared rule in
    /// [`Decision::from_view`] yields the same verdict.
    ///
    /// Both inputs are read off the view's edge list in O(m_view): the
    /// oracle is asked under the rolling
    /// [`view_fingerprint`](Self::view_fingerprint) and builds
    /// [`discovered_graph`](Self::discovered_graph) only if bounded flows
    /// must run on it, and `reachable` is the size of this node's
    /// component of the list — so a node whose view is a small island in a
    /// large fleet never touches an `n`-sized structure.
    pub fn decide_with(&self, oracle: &mut ConnectivityOracle) -> Decision {
        self.decide_in_view(oracle, &traversal::edge_component_sizes(self.view_edges()))
    }

    /// The body of [`decide_with`](Self::decide_with), given the component
    /// sizes of this node's view ([`traversal::edge_component_sizes`] of
    /// [`view_edges`](Self::view_edges)) — so the scenario runner derives
    /// them once per distinct view instead of once per node.
    pub(crate) fn decide_in_view(
        &self,
        oracle: &mut ConnectivityOracle,
        component_size: &BTreeMap<NodeId, usize>,
    ) -> Decision {
        let t = self.config.t;
        let answer = oracle
            .answer_edges(self.view_fingerprint, self.view_edges(), t, || self.discovered_graph());
        let reachable = component_size.get(&self.node_id()).copied().unwrap_or(1);
        Decision::from_view(self.config.n, t, reachable, answer.kappa.report())
    }

    /// Canonical key of the discovered edge set, ascending (for decision
    /// caching across nodes with identical views).
    pub fn discovered_edge_key(&self) -> Vec<(u16, u16)> {
        self.sorted_keys().into_iter().map(endpoints_of).collect()
    }

    /// The rolling digest of [`discovered_graph`](Self::discovered_graph),
    /// maintained incrementally in O(1) per view mutation and always equal
    /// to `Fingerprint::of(&self.discovered_graph())`. The decision phase
    /// groups identical views (Lemma 2) by this digest without walking any
    /// edge key.
    pub fn view_fingerprint(&self) -> Fingerprint {
        self.view_fingerprint
    }

    fn reject(&mut self, reason: RejectReason) {
        *self.rejections.entry(reason).or_insert(0) += 1;
    }

    /// The structural rules of Alg. 1 l. 14, in order, returning the
    /// reason if `edge` breaks one: its chain's length is the round, its
    /// outermost signer the delivering neighbor, its innermost an endpoint,
    /// and (if configured) its signers distinct. No signature is checked.
    fn check_shape(
        &self,
        round: usize,
        from: NodeId,
        edge: &RelayedEdge,
    ) -> Result<(), RejectReason> {
        let chain = &edge.chain;
        if self.config.check_chain_length && chain.len() != round {
            return Err(RejectReason::WrongChainLength);
        }
        if chain.outermost_signer() != Some(from as u16) {
            return Err(RejectReason::OutermostNotSender);
        }
        let (u, v) = edge.proof.endpoints();
        match chain.innermost_signer() {
            Some(inner) if inner == u || inner == v => {}
            _ => return Err(RejectReason::InnermostNotEndpoint),
        }
        if self.config.require_distinct_signers && !chain.signers_distinct() {
            return Err(RejectReason::DuplicateSigner);
        }
        Ok(())
    }

    /// Queues in `batch` the signature work on an edge of the right shape
    /// (§II): the proof's two signatures, the chain's links over the proof's
    /// digest, and this node's signature over the last link, made before
    /// the checks are known — a rejected edge's is dropped. A proof that
    /// fails structurally queues nothing and is a [`RejectReason::BadProof`].
    fn queue_checks(
        &self,
        edge: &RelayedEdge,
        batch: &mut SignatureBatch,
    ) -> Result<Checks, RejectReason> {
        let proof = edge.proof.queue_verify(&self.verifier, batch).ok_or(RejectReason::BadProof)?;
        // A decoded copy hashes its proof here; a shared one reads its cache.
        let digest = edge.proof.digest();
        let chain = edge.chain.queue_verify(&self.verifier, &digest, batch);
        let signature = edge.chain.queue_extend(&self.signer, &digest, batch);
        Ok(Checks { proof, chain, signature })
    }
}

/// An edge's jobs in a [`SignatureBatch`], from
/// [`NectarNode::queue_checks`].
#[derive(Debug)]
struct Checks {
    proof: Range<usize>,
    chain: Range<usize>,
    signature: usize,
}

impl Checks {
    /// The edge's verdict once the batch has run, by the first failing
    /// check in the order one-at-a-time validation used (proof, then
    /// chain), or this node's signature over the last link.
    fn verdict(&self, batch: &SignatureBatch) -> Result<Signature, RejectReason> {
        if !batch.verified(self.proof.clone()) {
            Err(RejectReason::BadProof)
        } else if !batch.verified(self.chain.clone()) {
            Err(RejectReason::BadChain)
        } else {
            Ok(batch.signature(self.signature))
        }
    }
}

/// What [`NectarNode::receive`] keeps between its passes over a message:
/// the batch, and per edge not known when the message came, its place in
/// the sender's batch and its jobs or the structural reason it fails. One
/// per thread, emptied for each message, so the buffers are allocated once
/// per thread rather than once per message or per node.
#[derive(Default)]
struct ReceiveScratch {
    batch: SignatureBatch,
    candidates: Vec<(usize, Result<Checks, RejectReason>)>,
}

thread_local! {
    static SCRATCH: RefCell<ReceiveScratch> = RefCell::default();
}

impl Process for NectarNode {
    type Msg = NectarMsg;

    fn id(&self) -> NodeId {
        self.node_id()
    }

    fn send(&mut self, _round: usize) -> Vec<Outgoing<NectarMsg>> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        // The batch is signed already; every neighbor's message is a view
        // of it, one refcount each, whatever the batch holds.
        message::fan_out(std::mem::take(&mut self.pending), &self.neighbors)
    }

    /// Three passes over the message. (1) In message order, skip edges
    /// already known (flooding suppression, l. 14, before any signature
    /// work) and check the rest's shape; (2) run one batch with the
    /// signature work of every edge of the right shape; (3) in message
    /// order again, each candidate read back by its place in the sender's
    /// batch, re-probe the view — a second copy of an edge accepted a
    /// moment ago is now known, and dropped as it would have been one edge
    /// at a time — and reject by the first failing check or accept with
    /// the signature from the batch.
    fn receive(&mut self, round: usize, from: NodeId, msg: NectarMsg) {
        SCRATCH.with_borrow_mut(|scratch| {
            let ReceiveScratch { batch, candidates } = scratch;
            batch.clear();
            candidates.clear();
            for (place, edge) in msg.edges.indexed() {
                if self.discovered.contains(&edge_key(edge.proof.endpoints())) {
                    continue;
                }
                let checks = self
                    .check_shape(round, from, edge)
                    .and_then(|()| self.queue_checks(edge, batch));
                candidates.push((place, checks));
            }
            if candidates.is_empty() {
                return;
            }
            batch.run();
            for (place, checks) in candidates.iter() {
                let edge = msg.edges.at(*place);
                let endpoints = edge.proof.endpoints();
                if self.discovered.contains(&edge_key(endpoints)) {
                    continue;
                }
                let verdict = match checks {
                    Err(reason) => Err(*reason),
                    Ok(checks) => checks.verdict(batch),
                };
                match verdict {
                    Err(reason) => self.reject(reason),
                    Ok(signature) => {
                        // Signed now (σ_i(msg)), sent next round: the same
                        // tag and the same round as signing at send time.
                        self.set_view_edge(endpoints, true);
                        let chain = edge.chain.extended_by(signature);
                        self.pending.push(RelayedEdge { proof: Arc::clone(&edge.proof), chain });
                    }
                }
            }
        });
    }

    fn quiescent(&self) -> bool {
        // Alg. 1 is purely reactive: `to_be_sent` only refills on receive,
        // so an empty relay queue means silence until the next delivery.
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Verdict;
    use nectar_crypto::KeyStore;

    /// Builds proofs for every edge of `g` and returns correct nodes for all
    /// of them.
    fn build_nodes(g: &Graph, t: usize) -> Vec<NectarNode> {
        let n = g.node_count();
        let ks = KeyStore::generate(n, 7);
        (0..n)
            .map(|i| {
                let proofs: BTreeMap<NodeId, NeighborhoodProof> = g
                    .neighbors(i)
                    .map(|j| {
                        (j, NeighborhoodProof::new(&ks.signer(i as u16), &ks.signer(j as u16)))
                    })
                    .collect();
                NectarNode::new(
                    i,
                    NectarConfig::new(n, t),
                    ks.signer(i as u16),
                    ks.verifier(),
                    proofs,
                )
            })
            .collect()
    }

    fn run(g: &Graph, t: usize) -> Vec<NectarNode> {
        let nodes = build_nodes(g, t);
        let rounds = g.node_count() - 1;
        let mut net = nectar_net::SyncNetwork::new(nodes, g.clone());
        net.run_rounds(rounds);
        let (nodes, _) = net.into_parts();
        nodes
    }

    #[test]
    fn all_correct_nodes_discover_the_full_graph() {
        let g = nectar_graph::gen::cycle(6);
        for node in run(&g, 1) {
            assert_eq!(node.known_edge_count(), 6);
            assert_eq!(node.discovered_graph(), g);
        }
    }

    #[test]
    fn ring_with_t1_is_not_partitionable() {
        // κ(C_6) = 2 > t = 1, all reachable: NOT_PARTITIONABLE (case 1,
        // κ = 2t).
        let g = nectar_graph::gen::cycle(6);
        for node in run(&g, 1) {
            let d = node.decide();
            assert_eq!(d.verdict, Verdict::NotPartitionable);
            assert!(!d.confirmed);
            assert_eq!(d.reachable, 6);
            assert_eq!(d.connectivity, 2);
        }
    }

    #[test]
    fn star_with_t1_is_partitionable() {
        // κ(star) = 1 ≤ t: PARTITIONABLE, not confirmed (everyone
        // reachable).
        let g = nectar_graph::gen::star(6);
        for node in run(&g, 1) {
            let d = node.decide();
            assert_eq!(d.verdict, Verdict::Partitionable);
            assert!(!d.confirmed);
        }
    }

    #[test]
    fn partitioned_graph_is_confirmed() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
        for node in run(&g, 1) {
            let d = node.decide();
            assert_eq!(d.verdict, Verdict::Partitionable);
            assert!(d.confirmed);
            assert_eq!(d.reachable, 3);
        }
    }

    #[test]
    fn no_duplicate_forwarding() {
        // Each edge is relayed at most once per node: on the complete graph
        // K_4 every node sends round-1 announcements (3 edges × 3 dests) and
        // each received edge is forwarded at most once afterwards.
        let g = nectar_graph::gen::complete(4);
        let nodes = build_nodes(&g, 1);
        let mut net = nectar_net::SyncNetwork::new(nodes, g.clone());
        net.run_rounds(3);
        // Total distinct edges = 6. A node learns 3 initially and 3 from
        // round 1; each of those 3 is forwarded once to 2 neighbors in round
        // 2. Nothing remains for round 3.
        let round3 = net.metrics().bytes_per_round().get(2).copied().unwrap_or(0);
        assert_eq!(round3, 0, "round 3 must be silent");
        let (nodes, _) = net.into_parts();
        for node in nodes {
            assert_eq!(node.known_edge_count(), 6);
        }
    }

    #[test]
    fn late_chain_is_rejected() {
        let g = nectar_graph::gen::path(3);
        let ks = KeyStore::generate(3, 7);
        let mut nodes = build_nodes(&g, 1);
        // Hand-deliver node 0's announcement of edge (0,1) to node 1 at
        // round 2 with a length-1 chain: must be rejected for length.
        let proof = NeighborhoodProof::new(&ks.signer(0), &ks.signer(1));
        let chain = SignatureChain::new().extend(&ks.signer(0), &proof.digest());
        // Use an edge unknown to node 2: (0,1) is not adjacent to node 2's
        // initial knowledge.
        let msg = NectarMsg::new(vec![RelayedEdge::new(proof, chain)]);
        nodes[2].receive(2, 1, msg);
        assert_eq!(nodes[2].rejections()[&RejectReason::WrongChainLength], 1);
        assert_eq!(nodes[2].known_edge_count(), 1);
    }

    #[test]
    fn outermost_must_be_sender() {
        let g = nectar_graph::gen::path(3);
        let ks = KeyStore::generate(3, 7);
        let mut nodes = build_nodes(&g, 1);
        let proof = NeighborhoodProof::new(&ks.signer(0), &ks.signer(1));
        let chain = SignatureChain::new().extend(&ks.signer(0), &proof.digest());
        // Node 2 receives from node 1 a chain whose outermost signer is 0.
        let msg = NectarMsg::new(vec![RelayedEdge::new(proof, chain)]);
        nodes[2].receive(1, 1, msg);
        assert_eq!(nodes[2].rejections()[&RejectReason::OutermostNotSender], 1);
    }

    #[test]
    fn innermost_must_be_an_endpoint() {
        let g = nectar_graph::gen::path(3);
        let ks = KeyStore::generate(3, 7);
        let mut nodes = build_nodes(&g, 1);
        // Node 1 announces edge (0,2) that it is not part of.
        let proof = NeighborhoodProof::new(&ks.signer(0), &ks.signer(2));
        let chain = SignatureChain::new().extend(&ks.signer(1), &proof.digest());
        let msg = NectarMsg::new(vec![RelayedEdge::new(proof, chain)]);
        nodes[2].receive(1, 1, msg);
        assert_eq!(nodes[2].rejections()[&RejectReason::InnermostNotEndpoint], 1);
    }

    #[test]
    fn forged_proof_is_rejected() {
        let g = nectar_graph::gen::path(3);
        let ks = KeyStore::generate(3, 7);
        let mut nodes = build_nodes(&g, 1);
        // Node 1 forges a proof for edge (1, 2)... with both signatures its
        // own. Wait — (1,2) is a real edge; use a forged (0,2) claim signed
        // only by 1's key under 0's and 2's identities.
        let stmt = NeighborhoodProof::statement(0, 2);
        let bogus_sig = ks.signer(1).sign(&stmt);
        let forged = NeighborhoodProof::from_parts(
            0,
            2,
            nectar_crypto::Signature::from_parts(0, *bogus_sig.tag()),
            nectar_crypto::Signature::from_parts(2, *bogus_sig.tag()),
        );
        let chain = SignatureChain::new().extend(&ks.signer(2), &forged.digest());
        let msg = NectarMsg::new(vec![RelayedEdge::new(forged, chain)]);
        nodes[1].receive(1, 2, msg);
        assert_eq!(nodes[1].rejections()[&RejectReason::BadProof], 1);
    }

    #[test]
    fn duplicate_signers_are_rejected() {
        let g = nectar_graph::gen::path(4);
        let ks = KeyStore::generate(4, 7);
        let mut nodes = build_nodes(&g, 1);
        let proof = NeighborhoodProof::new(&ks.signer(2), &ks.signer(3));
        let digest = proof.digest();
        let chain =
            SignatureChain::new().extend(&ks.signer(2), &digest).extend(&ks.signer(2), &digest);
        let msg = NectarMsg::new(vec![RelayedEdge::new(proof, chain)]);
        nodes[1].receive(2, 2, msg);
        assert_eq!(nodes[1].rejections()[&RejectReason::DuplicateSigner], 1);
    }

    #[test]
    fn a_good_proof_rejected_under_a_bad_chain_is_accepted_under_a_good_one() {
        // A rejection leaves no trace but its counter: the edge stays
        // unknown, so the same proof is accepted when it comes back under a
        // chain that verifies, and relayed once.
        let g = nectar_graph::gen::path(5);
        let ks = KeyStore::generate(5, 7);
        let mut nodes = build_nodes(&g, 1);
        let node = &mut nodes[3];
        node.send(1); // drain the round-1 announcements
        let proof = NeighborhoodProof::new(&ks.signer(0), &ks.signer(1));
        let digest = proof.digest();
        let chain =
            SignatureChain::new().extend(&ks.signer(1), &digest).extend(&ks.signer(2), &digest);
        let mut links = chain.links().to_vec();
        let mut tag = *links[0].tag();
        tag[0] ^= 1;
        links[0] = nectar_crypto::Signature::from_parts(1, tag);
        let deliver = |node: &mut NectarNode, chain: SignatureChain| {
            let msg = NectarMsg::new(vec![RelayedEdge::new(proof.clone(), chain)]);
            node.receive(2, 2, msg);
        };
        let view = node.view_fingerprint();

        deliver(node, SignatureChain::from_links(links));
        assert_eq!(node.rejections()[&RejectReason::BadChain], 1);
        assert_eq!(node.rejections().len(), 1);
        assert_eq!((node.known_edge_count(), node.view_fingerprint()), (2, view));
        assert!(node.quiescent(), "a rejected edge is not queued for relay");

        deliver(node, chain.clone());
        assert_eq!(node.rejections()[&RejectReason::BadChain], 1, "no new rejection");
        assert_eq!(node.known_edge_count(), 3);
        // Relayed next round, to the neighbor it did not come from, under a
        // chain one link longer that verifies.
        let out = node.send(3);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, 4);
        let edges: Vec<&RelayedEdge> = out[0].msg.edges.iter().collect();
        let [edge] = edges.as_slice() else { panic!("exactly the accepted edge") };
        assert_eq!(*edge.proof, proof);
        assert_eq!(edge.chain.len(), 3);
        assert_eq!(edge.chain.outermost_signer(), Some(3));
        assert!(edge.chain.verify(&ks.verifier(), &digest));
        assert_eq!(edge.chain, chain.extend(&ks.signer(3), &digest));
    }

    /// One message that mixes every way an edge can fare, delivered at
    /// round 3 by neighbor 2 of node 3 on a path of 8: two copies of an edge
    /// (valid then invalid, and invalid then valid), a bad proof, a bad
    /// chain link, a wrong chain length, an unknown signer in a chain and in
    /// a proof, a duplicate signer, a wrong outermost signer. The golden
    /// values were recorded when `receive` checked one edge at a time; the
    /// rejection map, the relay queue and the view must stay what they were.
    #[test]
    fn a_mixed_message_is_judged_as_one_edge_at_a_time() {
        let g = nectar_graph::gen::path(8);
        let ks = KeyStore::generate(8, 7);
        let mut nodes = build_nodes(&g, 1);
        let node = &mut nodes[3];
        node.send(1); // drain the round-1 announcements
        let proof = |a: u16, b: u16| NeighborhoodProof::new(&ks.signer(a), &ks.signer(b));
        let chain_over = |proof: &NeighborhoodProof, signers: &[u16]| {
            let digest = proof.digest();
            signers.iter().fold(SignatureChain::new(), |c, &s| c.extend(&ks.signer(s), &digest))
        };
        let flip = |sig: &Signature| {
            let mut tag = *sig.tag();
            tag[7] ^= 0x10;
            Signature::from_parts(sig.signer(), tag)
        };
        let edge = |p: NeighborhoodProof, signers: &[u16]| {
            let chain = chain_over(&p, signers);
            RelayedEdge::new(p, chain)
        };
        let bad_link = |p: NeighborhoodProof, signers: &[u16], at: usize| {
            let mut links = chain_over(&p, signers).links().to_vec();
            links[at] = flip(&links[at]);
            RelayedEdge::new(p, SignatureChain::from_links(links))
        };
        // A chain whose middle link claims an identity outside the registry;
        // the link after it signs that link's tag honestly.
        let unknown_middle = |p: NeighborhoodProof, first: u16| {
            let digest = p.digest();
            let inner = SignatureChain::new().extend(&ks.signer(first), &digest);
            let stranger = Signature::from_parts(99, [0x5a; 32]);
            let mut links = inner.links().to_vec();
            links.push(stranger.clone());
            links.push(ks.signer(2).sign(stranger.tag()));
            RelayedEdge::new(p, SignatureChain::from_links(links))
        };
        let forged_b = {
            let p = proof(0, 6);
            NeighborhoodProof::from_parts(0, 6, p.sig_a().clone(), flip(p.sig_b()))
        };
        let unknown_b = {
            let stmt = NeighborhoodProof::statement(1, 99);
            NeighborhoodProof::from_parts(
                1,
                99,
                ks.signer(1).sign(&stmt),
                Signature::from_parts(99, [0x33; 32]),
            )
        };
        let edges = vec![
            edge(proof(0, 1), &[0, 5, 2]),
            bad_link(proof(0, 1), &[0, 5, 2], 0),
            bad_link(proof(1, 5), &[1, 6, 2], 1),
            edge(proof(1, 5), &[5, 0, 2]),
            edge(forged_b, &[0, 7, 2]),
            bad_link(proof(4, 5), &[4, 1, 2], 2),
            edge(proof(5, 6), &[5, 2]),
            unknown_middle(proof(6, 7), 6),
            edge(unknown_b, &[1, 0, 2]),
            edge(proof(0, 7), &[7, 6, 2]),
            edge(proof(5, 7), &[5, 5, 2]),
            edge(proof(1, 6), &[1, 4, 2]),
            edge(proof(0, 5), &[0, 1, 4]),
            edge(proof(6, 7), &[7, 0, 2]),
        ];
        node.receive(3, 2, NectarMsg::new(edges));

        use RejectReason::*;
        let rejections: Vec<(RejectReason, u64)> =
            node.rejections().iter().map(|(&r, &c)| (r, c)).collect();
        assert_eq!(
            rejections,
            [
                (WrongChainLength, 1),
                (OutermostNotSender, 1),
                (DuplicateSigner, 1),
                (BadProof, 2),
                (BadChain, 3)
            ]
        );
        let hex = |tag: &[u8; 32]| tag.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let pending: Vec<String> = node
            .pending
            .iter()
            .map(|e| {
                let signers: Vec<u16> = e.chain.signers().collect();
                let last = e.chain.links().last().expect("signed");
                format!("{:?} {signers:?} {}", e.proof.endpoints(), hex(last.tag()))
            })
            .collect();
        assert_eq!(
            pending,
            [
                "(0, 1) [0, 5, 2, 3] d470f2e91af77d1216ca113de19f41b13b96be25e102cdce566fd0331ffe9dc2",
                "(1, 5) [5, 0, 2, 3] c36e6b6b56cd2e43be6185c0c4e7b4f69ce2cac76dc99dc82a6a3132590e753f",
                "(0, 7) [7, 6, 2, 3] 265517c7a098293c0d19da916e7f9ff157e5ec3ffaeb835a7a46e2d4f02db962",
                "(1, 6) [1, 4, 2, 3] 934a8ba37830237ba969946189c180f87492082790c71f5dadccd360829bb1b7",
                "(6, 7) [7, 0, 2, 3] b0a5b4bd683805eca99d0bd7442e83f6ee279a5f78a0598ca828dd6bad6ed52b",
            ]
        );
        for e in &node.pending {
            assert!(e.chain.verify(&ks.verifier(), &e.proof.digest()));
        }
        assert_eq!(
            node.discovered_edge_key(),
            [(0, 1), (0, 7), (1, 5), (1, 6), (2, 3), (3, 4), (6, 7)]
        );
    }

    #[test]
    fn hidden_edge_is_not_announced() {
        let g = nectar_graph::gen::cycle(5);
        let mut nodes = build_nodes(&g, 1);
        nodes[0].hide_edge_to(1);
        let mut net = nectar_net::SyncNetwork::new(nodes, g.clone());
        net.run_rounds(4);
        // Node 1 still announces (0,1) itself — the proof is held by both
        // endpoints — so everyone still learns the edge.
        let (nodes, _) = net.into_parts();
        for node in &nodes[1..] {
            assert_eq!(node.known_edge_count(), 5);
        }
        // But if both endpoints hide it, the edge disappears from view:
        let g2 = nectar_graph::gen::cycle(5);
        let mut nodes2 = build_nodes(&g2, 1);
        nodes2[0].hide_edge_to(1);
        nodes2[1].hide_edge_to(0);
        let mut net2 = nectar_net::SyncNetwork::new(nodes2, g2);
        net2.run_rounds(4);
        let (nodes2, _) = net2.into_parts();
        assert_eq!(nodes2[3].known_edge_count(), 4);
    }

    #[test]
    fn decision_is_pure_and_repeatable() {
        let g = nectar_graph::gen::cycle(4);
        let nodes = run(&g, 1);
        let d1 = nodes[0].decide();
        let d2 = nodes[0].decide();
        assert_eq!(d1, d2);
    }

    #[test]
    fn oracle_decision_agrees_with_the_reference_path() {
        // Verdict, confirmed flag and reachable count must match decide()
        // exactly; only the connectivity report may differ (bound vs exact).
        for (g, t) in [
            (nectar_graph::gen::cycle(6), 1),
            (nectar_graph::gen::star(6), 1),
            (nectar_graph::gen::harary(4, 8).unwrap(), 2),
            (Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap(), 1),
        ] {
            let mut oracle = ConnectivityOracle::new();
            for node in run(&g, t) {
                let exact = node.decide();
                let fast = node.decide_with(&mut oracle);
                assert_eq!(fast.verdict, exact.verdict, "graph {g:?}");
                assert_eq!(fast.confirmed, exact.confirmed);
                assert_eq!(fast.reachable, exact.reachable);
                // The oracle's bound brackets the verdict threshold like κ.
                assert_eq!(fast.connectivity > t, exact.connectivity > t);
            }
        }
    }

    #[test]
    fn identical_views_share_one_oracle_verdict() {
        // All 6 correct nodes of a clean run converge to the same G_i
        // (Lemma 2): with a shared oracle, 5 of the 6 decisions are cache
        // hits and only the first runs any flow.
        let g = nectar_graph::gen::cycle(6);
        let nodes = run(&g, 1);
        let mut oracle = ConnectivityOracle::new();
        for node in &nodes {
            node.decide_with(&mut oracle);
        }
        assert_eq!(oracle.stats().queries, 6);
        assert_eq!(oracle.stats().cache_hits, 5);
    }
}

#[cfg(test)]
mod config_knob_tests {
    use super::*;
    use crate::config::Verdict;
    use crate::runner::Scenario;
    use nectar_graph::gen;

    #[test]
    fn disabling_the_length_check_admits_stale_chains() {
        // The unsafe ablation knob: with check_chain_length = false, a
        // stale (length 1) chain delivered at round 2 is accepted.
        let _g = gen::path(3);
        let ks = nectar_crypto::KeyStore::generate(3, 7);
        let mut cfg = NectarConfig::new(3, 1);
        cfg.check_chain_length = false;
        let proofs: BTreeMap<NodeId, NeighborhoodProof> =
            [(1usize, NeighborhoodProof::new(&ks.signer(2), &ks.signer(1)))].into_iter().collect();
        let mut node = NectarNode::new(2, cfg, ks.signer(2), ks.verifier(), proofs);
        let proof = NeighborhoodProof::new(&ks.signer(0), &ks.signer(1));
        let chain = SignatureChain::new().extend(&ks.signer(1), &proof.digest());
        let msg = NectarMsg::new(vec![RelayedEdge::new(proof, chain)]);
        node.receive(2, 1, msg);
        assert_eq!(node.known_edge_count(), 2, "stale chain accepted without the check");
        assert!(node.rejections().is_empty());
    }

    #[test]
    fn fewer_rounds_than_diameter_can_break_the_view_but_not_agreement_on_connected_graphs() {
        // A ring of 8 (diameter 4) run for only 2 rounds: views are
        // incomplete and decisions become conservative (PARTITIONABLE), but
        // symmetric topologies still agree. This is why the paper insists
        // on R = n − 1 for unknown topologies.
        let g = gen::cycle(8);
        let out =
            Scenario::new(g, 1).with_config(NectarConfig::new(8, 1).with_rounds(2)).sim().run();
        assert!(out.agreement());
        assert_eq!(out.unanimous_verdict(), Some(Verdict::Partitionable));
        assert!(out.decisions().values().all(|d| d.reachable < 8));
    }
}

#[cfg(test)]
mod relay_handoff_tests {
    use super::*;
    use crate::byzantine::ByzantineBehavior;
    use crate::runner::Scenario;
    use nectar_crypto::KeyStore;
    use nectar_graph::gen;

    /// Drives `scenario` round by round and checks every edge a correct node
    /// sends: its chain must be the chain the node accepted the edge under
    /// (the empty chain for its own announcements), extended from scratch
    /// with [`SignatureChain::extend`] over the proof's own digest.
    /// Returns how many relays of each received-chain length were checked.
    fn check_relays(scenario: &Scenario) -> BTreeMap<usize, usize> {
        let n = scenario.topology().node_count();
        let keys = KeyStore::generate(n, scenario.key_seed());
        let mut participants = scenario.build_participants();
        let mut accepted_under: BTreeMap<(NodeId, (u16, u16)), SignatureChain> = BTreeMap::new();
        let mut checked = BTreeMap::new();
        for round in 1..=scenario.config().effective_rounds() {
            let mut in_flight = Vec::new();
            for p in participants.iter_mut() {
                let (from, correct) = (p.id(), p.is_correct());
                for out in p.send(round) {
                    for edge in &out.msg.edges {
                        if correct {
                            let key = edge.proof.endpoints();
                            let received =
                                accepted_under.get(&(from, key)).cloned().unwrap_or_default();
                            let from_scratch =
                                received.extend(&keys.signer(from as u16), &edge.proof.digest());
                            assert_eq!(edge.chain, from_scratch, "node {from}, round {round}");
                            *checked.entry(received.len()).or_insert(0) += 1;
                        }
                        in_flight.push((from, out.to, edge.clone()));
                    }
                }
            }
            // One edge per message, so an acceptance can be told from the
            // view growing; `receive` handles a batch edge by edge anyway.
            for (from, to, edge) in in_flight {
                let known = participants[to].nectar().known_edge_count();
                let (key, chain) = (edge.proof.endpoints(), edge.chain.clone());
                participants[to].receive(round, from, NectarMsg::new(vec![edge]));
                if participants[to].nectar().known_edge_count() > known {
                    accepted_under.insert((to, key), chain);
                }
            }
        }
        checked
    }

    #[test]
    fn every_relayed_chain_is_the_received_chain_extended_from_scratch() {
        // Cycle: long chains (up to n/2 hops). Harary: many paths per edge.
        // Two-faced: correct nodes fed asymmetric, partly withheld traffic.
        let two_faced = ByzantineBehavior::TwoFaced { silent_toward: [1, 2, 3].into() };
        let cases = [
            (Scenario::new(gen::cycle(9), 1).with_key_seed(3), 4),
            (Scenario::new(gen::harary(4, 14).unwrap(), 2).with_key_seed(4), 2),
            (
                Scenario::new(gen::harary(4, 12).unwrap(), 2)
                    .with_key_seed(5)
                    .with_byzantine(0, two_faced),
                2,
            ),
        ];
        for (scenario, longest_received) in cases {
            let checked = check_relays(&scenario);
            assert!(checked[&0] > 0, "own announcements were checked");
            assert!(
                checked.keys().any(|&len| len >= longest_received),
                "relays of chains {longest_received}+ links long were checked: {checked:?}"
            );
        }
    }
}

#[cfg(test)]
mod view_set_tests {
    //! The view is a hash set with no order of its own; these pin that it
    //! reads back exactly as an ordered set of endpoint pairs would.

    use super::*;
    use nectar_crypto::{KeyStore, Signature};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    const N: usize = 8;

    /// A relay of the edge `(a, b)` that `from` delivers under a chain
    /// starting at endpoint `a`, and the round whose length check it passes.
    fn relay(ks: &KeyStore, a: u16, b: u16, from: u16) -> (usize, RelayedEdge) {
        let proof = NeighborhoodProof::new(&ks.signer(a), &ks.signer(b));
        let digest = proof.digest();
        let mut chain = SignatureChain::new().extend(&ks.signer(a), &digest);
        if from != a {
            chain = chain.extend(&ks.signer(from), &digest);
        }
        (chain.len(), RelayedEdge::new(proof, chain))
    }

    /// A proof for `(a, b)` whose signatures are all zeros: it verifies for
    /// no key, and its endpoints may lie outside `0..N`.
    fn forged(a: u16, b: u16) -> NeighborhoodProof {
        let (lo, hi) = (a.min(b), a.max(b));
        NeighborhoodProof::from_parts(
            lo,
            hi,
            Signature::from_parts(lo, [0; 32]),
            Signature::from_parts(hi, [0; 32]),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every step of a random sequence of view mutations — extra
        /// announcements (forged ones with endpoints ≥ n and self-loops
        /// included), accepted relays, relays rejected for a bad chain or a
        /// forged proof, and hidden edges — node 0's view reads back as a
        /// `BTreeSet` model: the same keys in ascending order, the same
        /// in-range edge list, the same count, and a rolling fingerprint
        /// equal to the digest of the discovered graph.
        #[test]
        fn view_set_matches_a_btree_model(
            ops in proptest::collection::vec((0u8..5, 0u16..12, 0u16..12), 0..40),
        ) {
            let ks = KeyStore::generate(N, 7);
            let proofs: BTreeMap<NodeId, NeighborhoodProof> = [1u16, 2]
                .into_iter()
                .map(|j| (j as NodeId, NeighborhoodProof::new(&ks.signer(0), &ks.signer(j))))
                .collect();
            let mut node =
                NectarNode::new(0, NectarConfig::new(N, 1), ks.signer(0), ks.verifier(), proofs);
            let mut model: BTreeSet<(u16, u16)> = [(0, 1), (0, 2)].into();
            for (step, &(kind, a, b)) in ops.iter().enumerate() {
                let from = 1 + (a + b) % 2;
                let (x, y) = (a % N as u16, b % N as u16);
                match kind {
                    0 => {
                        let proof = if a != b && (a as usize) < N && (b as usize) < N {
                            NeighborhoodProof::new(&ks.signer(a), &ks.signer(b))
                        } else {
                            forged(a, b)
                        };
                        model.insert(proof.endpoints());
                        node.announce_extra_proof(proof);
                    }
                    1 | 2 if x != y => {
                        let (round, mut edge) = relay(&ks, x, y, from);
                        if kind == 2 {
                            let mut links = edge.chain.links().to_vec();
                            let mut tag = *links[0].tag();
                            tag[0] ^= 1;
                            links[0] = Signature::from_parts(x, tag);
                            edge.chain = SignatureChain::from_links(links);
                        } else {
                            model.insert((x.min(y), x.max(y)));
                        }
                        node.receive(round, from as NodeId, NectarMsg::new(vec![edge]));
                    }
                    3 => {
                        model.remove(&(0, a));
                        node.hide_edge_to(a as NodeId);
                    }
                    4 if a != b => {
                        let proof = forged(a, b);
                        let chain = SignatureChain::new()
                            .extend(&ks.signer(from), &proof.digest());
                        let edge = RelayedEdge::new(proof, chain);
                        node.receive(1, from as NodeId, NectarMsg::new(vec![edge]));
                    }
                    _ => {}
                }
                let keys: Vec<(u16, u16)> = model.iter().copied().collect();
                let edges: Vec<(usize, usize)> = keys
                    .iter()
                    .map(|&(u, v)| (u as usize, v as usize))
                    .filter(|&(u, v)| u < N && v < N && u != v)
                    .collect();
                prop_assert_eq!(node.discovered_edge_key(), keys, "step {}", step);
                prop_assert_eq!(node.view_edges().collect::<Vec<_>>(), edges, "step {}", step);
                prop_assert_eq!(node.known_edge_count(), model.len(), "step {}", step);
                prop_assert_eq!(
                    node.view_fingerprint(),
                    Fingerprint::of(&node.discovered_graph()),
                    "step {}",
                    step
                );
            }
        }
    }
}
