//! The unsigned partition detector — a constructive take on the paper's
//! §VII conjecture that detection "can be accomplished without signatures
//! in synchronous networks, albeit at a significant cost".
//!
//! Runs NECTAR's skeleton — flood your neighborhood, reconstruct the graph,
//! decide on reachability and vertex connectivity — but replaces signature
//! chains with Dolev path-vector delivery. The trade-offs, which are the
//! point of this extension (see the crate docs):
//!
//! * **No proofs of neighborhood.** An edge is only *accepted* once the
//!   announcements of **both** endpoints were reliably delivered: a
//!   Byzantine node can claim an edge to a correct node, but the correct
//!   endpoint never corroborates it. The converse cost: a Byzantine node
//!   that stays silent makes even its *real* edges unacceptable, so the
//!   reconstructed graph may shrink toward the correct-correct subgraph and
//!   the detector degrades gracefully to conservative PARTITIONABLE
//!   verdicts.
//! * **Connectivity floor.** Reliable delivery needs `t + 1` disjoint paths
//!   to exist, i.e. `κ(G) ≥ t + 1` for full views (Dolev's bound, vs.
//!   NECTAR's "any graph" operation) — with lower connectivity the verdict
//!   is again conservative, never unsafe.
//! * **No Agreement.** Correct nodes may decide differently. A node that
//!   crashes mid-run, or plays two-faced, leaves some correct nodes with
//!   `t + 1` disjoint routes for a claim and others with fewer, so their
//!   accepted graphs differ even at `κ(G) = t + 1`. The smallest case is
//!   C4 with one crash (`agreement_is_not_guaranteed_without_signatures`);
//!   NECTAR, whose chains need one route, agrees there. Safety still held
//!   on every graph `tests/model_check.rs` runs.
//! * **Cost.** Messages multiply with the number of simple paths — the
//!   `unsigned_cost` bench quantifies the blow-up that the paper's
//!   conclusion anticipates.

use std::collections::BTreeSet;

use nectar_graph::{traversal, ConnectivityOracle, Graph, OracleStats};
use nectar_net::{NodeId, Outgoing, Process};
use nectar_protocol::Decision;

use crate::dissemination::{ClaimId, PathMsg, PathStore};

/// Parameters of the unsigned detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsignedConfig {
    /// Total number of processes.
    pub n: usize,
    /// Byzantine budget.
    pub t: usize,
    /// Hard cap on stored/relayed paths per claim, bounding the `O(n!)`
    /// blow-up. Delivery may be delayed (never falsified) if the cap bites.
    pub max_paths_per_claim: usize,
}

impl UnsignedConfig {
    /// Defaults: paths capped at 64 per claim.
    pub fn new(n: usize, t: usize) -> Self {
        UnsignedConfig { n, t, max_paths_per_claim: 64 }
    }

    /// Propagation rounds (same worst case as NECTAR: `n − 1`).
    pub fn rounds(&self) -> usize {
        self.n.saturating_sub(1)
    }
}

/// A correct participant of the unsigned protocol.
#[derive(Debug)]
pub struct UnsignedNode {
    id: NodeId,
    config: UnsignedConfig,
    neighbors: Vec<NodeId>,
    store: PathStore,
    /// Claims queued for relay next round: `(msg-to-extend, exclude)`.
    outbox: Vec<(PathMsg, BTreeSet<NodeId>)>,
    /// Relay dedup: paths this node has already forwarded.
    relayed: BTreeSet<(ClaimId, Vec<NodeId>)>,
    /// Bounded/cached `κ ≤ t` decisions: re-deciding on an unchanged
    /// accepted graph (the steady state once dissemination quiesces) is a
    /// cache hit instead of a connectivity recomputation.
    oracle: ConnectivityOracle,
}

impl UnsignedNode {
    /// Creates the node; `neighbors` is its local knowledge Γ(i).
    pub fn new(id: NodeId, config: UnsignedConfig, neighbors: Vec<NodeId>) -> Self {
        let mut node = UnsignedNode {
            id,
            config,
            neighbors: neighbors.clone(),
            store: PathStore::new(),
            outbox: Vec::new(),
            relayed: BTreeSet::new(),
            oracle: ConnectivityOracle::new(),
        };
        // Round 1 announces each own edge as a claim with path [self].
        for &nbr in &neighbors {
            let claim = ClaimId::new(id, id as u16, nbr as u16);
            node.store.insert(claim, vec![id]);
            node.outbox.push((PathMsg { claim, path: vec![id] }, BTreeSet::new()));
        }
        node
    }

    /// The node id.
    pub fn node_id(&self) -> NodeId {
        self.id
    }

    /// Accepted edges: both endpoints' announcements delivered (an edge
    /// incident to this node is corroborated by its own local knowledge).
    pub fn accepted_graph(&self) -> Graph {
        let mut g = Graph::empty(self.config.n);
        let n = self.config.n;
        let t = self.config.t;
        let candidates: BTreeSet<(u16, u16)> = self.store.claims().map(|c| c.edge).collect();
        for (a, b) in candidates {
            let (a_us, b_us) = (a as NodeId, b as NodeId);
            if a_us >= n || b_us >= n || a_us == b_us {
                continue;
            }
            // Edges incident to this node are judged by local ground truth
            // alone (Γ(i) is known, §II) — a delivered claim cannot
            // overrule it. The own-edge loop below adds the real ones.
            if a_us == self.id || b_us == self.id {
                continue;
            }
            let claim_a = ClaimId::new(a_us, a, b);
            let claim_b = ClaimId::new(b_us, a, b);
            if self.store.deliverable(claim_a, self.id, t)
                && self.store.deliverable(claim_b, self.id, t)
            {
                g.add_edge(a_us, b_us).expect("bounded, non-loop edges");
            }
        }
        // Own edges are locally known.
        for &nbr in &self.neighbors {
            g.add_edge(self.id, nbr).expect("bounded, non-loop edges");
        }
        g
    }

    /// The decision phase, identical to NECTAR's (Alg. 1 ll. 16–23) over
    /// the accepted graph, answered through the node's connectivity oracle
    /// (`κ ≤ t` decided with bounded flows; repeated decisions on an
    /// unchanged accepted graph hit the verdict cache).
    pub fn decide(&mut self) -> Decision {
        let g = self.accepted_graph();
        let reachable = traversal::reachable_count(&g, self.id);
        let answer = self.oracle.answer(&g, self.config.t);
        Decision::from_view(self.config.n, self.config.t, reachable, answer.kappa.report())
    }

    /// Connectivity-oracle counters accumulated by this node's decisions.
    pub fn oracle_stats(&self) -> &OracleStats {
        self.oracle.stats()
    }

    /// Total stored paths (cost diagnostics).
    pub fn stored_paths(&self) -> usize {
        self.store.total_paths()
    }
}

impl Process for UnsignedNode {
    type Msg = PathMsg;

    fn id(&self) -> NodeId {
        self.id
    }

    fn send(&mut self, _round: usize) -> Vec<Outgoing<PathMsg>> {
        let outbox = std::mem::take(&mut self.outbox);
        let mut out = Vec::new();
        for (msg, exclude) in outbox {
            for &nbr in &self.neighbors {
                if exclude.contains(&nbr) || msg.path.contains(&nbr) {
                    continue;
                }
                out.push(Outgoing::new(nbr, msg.clone()));
            }
        }
        out
    }

    fn receive(&mut self, _round: usize, from: NodeId, msg: PathMsg) {
        if !msg.plausible_for(self.id, from) {
            return;
        }
        if self.store.path_count(&msg.claim) >= self.config.max_paths_per_claim {
            return;
        }
        if !self.store.insert(msg.claim, msg.path.clone()) {
            return;
        }
        // Relay with ourselves appended, once per distinct path.
        let extended = msg.extended_by(self.id);
        let key = (extended.claim, extended.path.clone());
        if self.relayed.insert(key) {
            self.outbox.push((extended, [from].into_iter().collect()));
        }
    }

    fn quiescent(&self) -> bool {
        // Path-vector dissemination is purely reactive too: the relay
        // outbox only refills on receive, so the event-driven runtime can
        // skip this node until the next delivery.
        self.outbox.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_net::{Mute, Muted, SyncNetwork};
    use nectar_protocol::Verdict;

    fn run(g: &Graph, t: usize) -> Vec<UnsignedNode> {
        let n = g.node_count();
        let cfg = UnsignedConfig::new(n, t);
        let nodes: Vec<UnsignedNode> =
            (0..n).map(|i| UnsignedNode::new(i, cfg, g.neighborhood(i))).collect();
        let mut net = SyncNetwork::new(nodes, g.clone());
        net.run_rounds(cfg.rounds());
        net.into_parts().0
    }

    /// A fleet of correct nodes beside a Byzantine node 0: the protocol
    /// behind a mute, plus the forged messages it adds to round 1.
    enum Fleet {
        Correct(UnsignedNode),
        Byzantine(Muted<UnsignedNode>, Vec<Outgoing<PathMsg>>),
    }

    impl Process for Fleet {
        type Msg = PathMsg;
        fn id(&self) -> NodeId {
            match self {
                Fleet::Correct(x) => x.id(),
                Fleet::Byzantine(x, _) => x.id(),
            }
        }
        fn send(&mut self, round: usize) -> Vec<Outgoing<PathMsg>> {
            match self {
                Fleet::Correct(x) => x.send(round),
                Fleet::Byzantine(x, forged) => {
                    let mut out = x.send(round);
                    out.append(forged);
                    out
                }
            }
        }
        fn receive(&mut self, round: usize, from: NodeId, msg: PathMsg) {
            match self {
                Fleet::Correct(x) => x.receive(round, from, msg),
                Fleet::Byzantine(x, _) => x.receive(round, from, msg),
            }
        }
    }

    /// Runs `g` for `n − 1` rounds with node 0 muted by `mute` and adding
    /// `forged` to its first batch; returns the correct nodes.
    fn run_with_byzantine_zero(
        g: &Graph,
        t: usize,
        mute: Mute,
        forged: Vec<Outgoing<PathMsg>>,
    ) -> Vec<UnsignedNode> {
        let n = g.node_count();
        let cfg = UnsignedConfig::new(n, t);
        let node = |i| UnsignedNode::new(i, cfg, g.neighborhood(i));
        let mut nodes: Vec<Fleet> = (0..n).map(|i| Fleet::Correct(node(i))).collect();
        nodes[0] = Fleet::Byzantine(Muted::new(node(0), mute), forged);
        let mut net = SyncNetwork::new(nodes, g.clone());
        net.run_rounds(cfg.rounds());
        let (nodes, _) = net.into_parts();
        nodes
            .into_iter()
            .filter_map(|p| match p {
                Fleet::Correct(h) => Some(h),
                Fleet::Byzantine(..) => None,
            })
            .collect()
    }

    #[test]
    fn honest_ring_reconstructs_and_decides_like_nectar() {
        // C_6 has κ = 2 = t + 1 with t = 1: enough disjoint paths for
        // delivery everywhere.
        let g = nectar_graph::gen::cycle(6);
        for mut node in run(&g, 1) {
            assert_eq!(node.accepted_graph(), g, "node {}", node.node_id());
            let d = node.decide();
            assert_eq!(d.verdict, Verdict::NotPartitionable);
            assert_eq!(d.connectivity, 2);
        }
    }

    #[test]
    fn honest_harary_reaches_full_views() {
        let g = nectar_graph::gen::harary(4, 10).unwrap();
        for mut node in run(&g, 2) {
            assert_eq!(node.accepted_graph(), g);
            assert_eq!(node.decide().verdict, Verdict::NotPartitionable);
        }
    }

    #[test]
    fn event_driven_runtime_matches_sync_for_the_unsigned_detector() {
        // The quiescence hint must not starve path-vector relaying: views,
        // decisions and traffic are bit-identical across runtimes.
        let g = nectar_graph::gen::harary(4, 9).unwrap();
        let n = g.node_count();
        let cfg = UnsignedConfig::new(n, 1);
        let build = || -> Vec<UnsignedNode> {
            (0..n).map(|i| UnsignedNode::new(i, cfg, g.neighborhood(i))).collect()
        };
        let mut sync_net = SyncNetwork::new(build(), g.clone());
        sync_net.run_rounds(cfg.rounds());
        let (mut sync_nodes, sync_metrics) = sync_net.into_parts();
        let (mut event_nodes, event_metrics) =
            nectar_net::run_event_driven(build(), &g, cfg.rounds());
        assert_eq!(sync_metrics, event_metrics);
        for (a, b) in sync_nodes.iter_mut().zip(&mut event_nodes) {
            assert_eq!(a.accepted_graph(), b.accepted_graph());
            assert_eq!(a.decide(), b.decide());
            assert_eq!(a.stored_paths(), b.stored_paths());
        }
    }

    #[test]
    fn oracle_decision_matches_exact_recomputation() {
        use nectar_graph::connectivity;
        for (g, t) in [
            (nectar_graph::gen::cycle(6), 1usize),
            (nectar_graph::gen::harary(4, 10).unwrap(), 2),
            (nectar_graph::gen::path(5), 1),
        ] {
            for mut node in run(&g, t) {
                let d = node.decide();
                let view = node.accepted_graph();
                let kappa = connectivity::vertex_connectivity(&view);
                let reachable = nectar_graph::traversal::reachable_count(&view, node.node_id());
                let expected = if kappa > t && reachable == g.node_count() {
                    Verdict::NotPartitionable
                } else {
                    Verdict::Partitionable
                };
                assert_eq!(d.verdict, expected, "node {}", node.node_id());
                // Re-deciding an unchanged view is answered from cache.
                let before = node.oracle_stats().cache_hits;
                assert_eq!(node.decide(), d);
                assert_eq!(node.oracle_stats().cache_hits, before + 1);
            }
        }
    }

    #[test]
    fn below_the_connectivity_floor_the_verdict_is_conservative() {
        // A path graph has κ = 1: with t = 1 there are not 2 disjoint
        // routes, so distant edges are never delivered — the decision
        // degrades to PARTITIONABLE (κ = 1 ≤ t would force that anyway).
        let g = nectar_graph::gen::path(5);
        for mut node in run(&g, 1) {
            assert_eq!(node.decide().verdict, Verdict::Partitionable);
        }
    }

    #[test]
    fn byzantine_fake_edge_claim_is_never_accepted() {
        // Node 0 is Byzantine and floods a fake claim "(0, 3)" — an edge
        // that does not exist. Correct nodes accept an edge only when both
        // endpoints corroborate; node 3 never does.
        let g = nectar_graph::gen::cycle(6);
        let fake = PathMsg { claim: ClaimId::new(0, 0, 3), path: vec![0] };
        let forged = g.neighborhood(0).into_iter().map(|nbr| Outgoing::new(nbr, fake.clone()));
        let correct = run_with_byzantine_zero(&g, 1, Mute::Never, forged.collect());
        for h in correct {
            assert!(
                !h.accepted_graph().has_edge(0, 3),
                "node {} accepted the fabricated edge",
                h.node_id()
            );
        }
    }

    #[test]
    fn agreement_is_not_guaranteed_without_signatures() {
        // The smallest disagreement on the graphs the model check's unsigned
        // sweep runs: C4 (κ = 2 = t + 1) with node 0 crashing from round 2.
        // Node 1 hears node 0's round-1 claims over the two disjoint routes
        // via 2 and 3 and holds the whole graph. But once node 0 stops
        // relaying, node 3's claims reach node 2 only along 3-1-2, and node
        // 2's reach node 3 only along 2-1-3: each keeps just its own two
        // edges and decides PARTITIONABLE. A signed chain would need no
        // second route (NECTAR agrees here: `CrashAfter { round: 2 }` is in
        // the model check's own sweep).
        let g = Graph::from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
        let correct = run_with_byzantine_zero(&g, 1, Mute::From { round: 2 }, Vec::new());
        let views: Vec<(NodeId, usize, Verdict)> = correct
            .into_iter()
            .map(|mut h| (h.node_id(), h.accepted_graph().edge_count(), h.decide().verdict))
            .collect();
        assert_eq!(
            views,
            [
                (1, 4, Verdict::NotPartitionable),
                (2, 2, Verdict::Partitionable),
                (3, 2, Verdict::Partitionable)
            ]
        );
    }

    #[test]
    fn path_explosion_is_bounded_by_the_cap() {
        let g = nectar_graph::gen::complete(7);
        let n = g.node_count();
        let mut cfg = UnsignedConfig::new(n, 2);
        cfg.max_paths_per_claim = 8;
        let nodes: Vec<UnsignedNode> =
            (0..n).map(|i| UnsignedNode::new(i, cfg, g.neighborhood(i))).collect();
        let mut net = SyncNetwork::new(nodes, g.clone());
        net.run_rounds(cfg.rounds());
        let (nodes, _) = net.into_parts();
        for node in &nodes {
            // 21 edges × 2 claims × cap 8 bounds the store.
            assert!(node.stored_paths() <= 21 * 2 * 8);
        }
        // Despite the cap, the dense graph still delivers everything.
        for node in &nodes {
            assert_eq!(node.accepted_graph(), g);
        }
    }

    #[test]
    fn unsigned_is_far_costlier_than_nectar() {
        // The conclusion's "significant cost", at equal (graph, t).
        let g = nectar_graph::gen::harary(4, 10).unwrap();
        let n = g.node_count();
        let cfg = UnsignedConfig::new(n, 2);
        let nodes: Vec<UnsignedNode> =
            (0..n).map(|i| UnsignedNode::new(i, cfg, g.neighborhood(i))).collect();
        let mut net = SyncNetwork::new(nodes, g.clone());
        net.run_rounds(cfg.rounds());
        let unsigned_msgs: u64 = net.metrics().msgs_sent().iter().sum();
        let nectar_metrics =
            nectar_protocol::Scenario::new(g, 2).sim().metrics_only().run().into_metrics();
        let nectar_msgs: u64 = nectar_metrics.msgs_sent().iter().sum();
        assert!(
            unsigned_msgs > 3 * nectar_msgs,
            "unsigned ({unsigned_msgs} msgs) should dwarf NECTAR ({nectar_msgs} msgs)"
        );
    }
}
