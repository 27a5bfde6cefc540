//! Byzantine reliable broadcast on partially connected networks:
//! Bracha's echo protocol over Dolev path-vector transport.
//!
//! The paper's related work (§VI-B) describes exactly this composition —
//! "this reliable communication protocol combined with Bracha's reliable
//! broadcast algorithm provides a reliable broadcast protocol for partially
//! connected networks" (Dolev 1981 + Bracha 1987, optimized by Bonomi,
//! Decouchant, Farina, Rahli and Tixeuil, ICDCS 2021). This module
//! implements the textbook composition:
//!
//! * every protocol message (`SEND`, `ECHO`, `READY`) travels as a
//!   path-vector claim and is *RC-delivered* via the `t + 1`
//!   disjoint-received-paths rule of [`PathStore`];
//! * Bracha's quorums run on RC-delivered claims: echo on the dealer's
//!   `SEND`, ready on `> (n + t)/2` echoes (or `t + 1` readys), deliver on
//!   `2t + 1` readys.
//!
//! Assumptions, per the cited results: `n > 3t` (Bracha) and vertex
//! connectivity `κ > 2t` (Dolev) for liveness; safety (no two correct nodes
//! deliver different values, no delivery of a value the dealer never sent
//! when the dealer is correct) holds regardless.

use std::collections::{BTreeMap, BTreeSet};

use nectar_net::{NodeId, Outgoing, Process};

use crate::dissemination::{Claim, PathMsg, PathStore};

/// Bracha message phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The dealer's initial proposal.
    Send,
    /// A witness echo of the proposal.
    Echo,
    /// A commitment to deliver.
    Ready,
}

/// A broadcast claim: who says what, in which phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BcastClaim {
    /// Protocol phase of this claim.
    pub phase: Phase,
    /// The node making the claim (dealer for `SEND`, witness otherwise).
    pub origin: NodeId,
    /// The proposed value (a digest in a real deployment).
    pub value: u64,
}

impl Claim for BcastClaim {
    fn origin(&self) -> NodeId {
        self.origin
    }
}

/// Protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrachaConfig {
    /// Total number of processes (`n > 3t`).
    pub n: usize,
    /// Byzantine budget.
    pub t: usize,
    /// The designated dealer.
    pub dealer: NodeId,
    /// Path-explosion cap per claim (see [`crate::detector::UnsignedConfig`]).
    pub max_paths_per_claim: usize,
}

impl BrachaConfig {
    /// Defaults with a 32-path cap.
    pub fn new(n: usize, t: usize, dealer: NodeId) -> Self {
        BrachaConfig { n, t, dealer, max_paths_per_claim: 32 }
    }

    /// Echo quorum: strictly more than `(n + t) / 2` distinct witnesses.
    pub fn echo_quorum(&self) -> usize {
        (self.n + self.t) / 2 + 1
    }

    /// Ready amplification threshold (`t + 1`) — at least one correct
    /// witness behind it.
    pub fn ready_amplify(&self) -> usize {
        self.t + 1
    }

    /// Delivery threshold (`2t + 1`) — a correct majority among them.
    pub fn deliver_quorum(&self) -> usize {
        2 * self.t + 1
    }

    /// Worst-case round budget: three RC phases of `n − 1` rounds each.
    pub fn rounds(&self) -> usize {
        3 * self.n.saturating_sub(1)
    }
}

/// A correct participant of Bracha-over-Dolev reliable broadcast.
#[derive(Debug)]
pub struct BrachaNode {
    id: NodeId,
    config: BrachaConfig,
    neighbors: Vec<NodeId>,
    store: PathStore<BcastClaim>,
    /// Claims this node originated (it trusts them without RC delivery).
    own_claims: BTreeSet<BcastClaim>,
    outbox: Vec<(PathMsg<BcastClaim>, BTreeSet<NodeId>)>,
    relayed: BTreeSet<(BcastClaim, Vec<NodeId>)>,
    echoed: BTreeSet<u64>,
    readied: BTreeSet<u64>,
    delivered: Option<u64>,
    /// The dealer's payload, if this node is the dealer.
    proposal: Option<u64>,
}

impl BrachaNode {
    /// Creates a non-dealer participant.
    pub fn new(id: NodeId, config: BrachaConfig, neighbors: Vec<NodeId>) -> Self {
        BrachaNode {
            id,
            config,
            neighbors,
            store: PathStore::new(),
            own_claims: BTreeSet::new(),
            outbox: Vec::new(),
            relayed: BTreeSet::new(),
            echoed: BTreeSet::new(),
            readied: BTreeSet::new(),
            delivered: None,
            proposal: None,
        }
    }

    /// Creates the dealer, proposing `value`.
    ///
    /// # Panics
    ///
    /// Panics if `id` differs from `config.dealer`.
    pub fn dealer(id: NodeId, config: BrachaConfig, neighbors: Vec<NodeId>, value: u64) -> Self {
        assert_eq!(id, config.dealer, "only the configured dealer may propose");
        let mut node = Self::new(id, config, neighbors);
        node.proposal = Some(value);
        node
    }

    /// The value this node has delivered, if any.
    pub fn delivered_value(&self) -> Option<u64> {
        self.delivered
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.id
    }

    /// Originates a claim: trusted locally, flooded to the neighbors.
    fn originate(&mut self, claim: BcastClaim) {
        if !self.own_claims.insert(claim) {
            return;
        }
        self.outbox.push((PathMsg { claim, path: vec![self.id] }, BTreeSet::new()));
    }

    /// Whether a claim counts for quorums: RC-delivered, or our own.
    fn counts(&mut self, claim: BcastClaim) -> bool {
        self.own_claims.contains(&claim)
            || self.store.deliverable(claim, self.id, self.config.n, self.config.t)
    }

    /// Runs the Bracha state machine over everything currently deliverable.
    fn advance(&mut self) {
        // Candidate (origin, value) pairs seen so far, grouped by phase.
        let candidates: Vec<BcastClaim> = self.store.claims().copied().collect();
        let mut echo_counts: BTreeMap<u64, BTreeSet<NodeId>> = BTreeMap::new();
        let mut ready_counts: BTreeMap<u64, BTreeSet<NodeId>> = BTreeMap::new();
        let mut sends: BTreeSet<u64> = BTreeSet::new();
        for claim in candidates {
            if !self.counts(claim) {
                continue;
            }
            match claim.phase {
                Phase::Send if claim.origin == self.config.dealer => {
                    sends.insert(claim.value);
                }
                Phase::Send => {}
                Phase::Echo => {
                    echo_counts.entry(claim.value).or_default().insert(claim.origin);
                }
                Phase::Ready => {
                    ready_counts.entry(claim.value).or_default().insert(claim.origin);
                }
            }
        }
        // Our own claims count toward our quorums too.
        for claim in self.own_claims.clone() {
            match claim.phase {
                Phase::Send if claim.origin == self.config.dealer => {
                    sends.insert(claim.value);
                }
                Phase::Send => {}
                Phase::Echo => {
                    echo_counts.entry(claim.value).or_default().insert(claim.origin);
                }
                Phase::Ready => {
                    ready_counts.entry(claim.value).or_default().insert(claim.origin);
                }
            }
        }
        for value in sends {
            if self.echoed.insert(value) {
                self.originate(BcastClaim { phase: Phase::Echo, origin: self.id, value });
            }
        }
        let to_ready: Vec<u64> = echo_counts
            .iter()
            .filter(|(_, witnesses)| witnesses.len() >= self.config.echo_quorum())
            .map(|(&v, _)| v)
            .chain(
                ready_counts
                    .iter()
                    .filter(|(_, witnesses)| witnesses.len() >= self.config.ready_amplify())
                    .map(|(&v, _)| v),
            )
            .collect();
        for value in to_ready {
            if self.readied.insert(value) {
                self.originate(BcastClaim { phase: Phase::Ready, origin: self.id, value });
            }
        }
        if self.delivered.is_none() {
            // Recount including any READY we just originated.
            for (&value, witnesses) in &ready_counts {
                let mut count = witnesses.len();
                let own = BcastClaim { phase: Phase::Ready, origin: self.id, value };
                if self.own_claims.contains(&own) && !witnesses.contains(&self.id) {
                    count += 1;
                }
                if count >= self.config.deliver_quorum() {
                    self.delivered = Some(value);
                    break;
                }
            }
        }
    }
}

impl Process for BrachaNode {
    type Msg = PathMsg<BcastClaim>;

    fn id(&self) -> NodeId {
        self.id
    }

    fn send(&mut self, round: usize) -> Vec<Outgoing<PathMsg<BcastClaim>>> {
        if round == 1 {
            if let Some(value) = self.proposal {
                self.originate(BcastClaim { phase: Phase::Send, origin: self.id, value });
                self.echoed.insert(value);
                self.originate(BcastClaim { phase: Phase::Echo, origin: self.id, value });
            }
        }
        self.advance();
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

    fn receive(&mut self, _round: usize, from: NodeId, msg: PathMsg<BcastClaim>) {
        // SEND claims must originate at the dealer; ECHO/READY at their
        // witness (which the path-head check enforces via Claim::origin).
        if msg.claim.phase == Phase::Send && msg.claim.origin != self.config.dealer {
            return;
        }
        if !msg.plausible_for(self.id, from) {
            return;
        }
        if self.store.path_count(&msg.claim) >= self.config.max_paths_per_claim {
            return;
        }
        if !self.store.insert(msg.claim, msg.path.clone()) {
            return;
        }
        let extended = msg.extended_by(self.id);
        let key = (extended.claim, extended.path.clone());
        if self.relayed.insert(key) {
            self.outbox.push((extended, [from].into_iter().collect()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_graph::{gen, Graph};
    use nectar_net::{Mute, Muted, SyncNetwork};

    fn build(g: &Graph, t: usize, dealer: NodeId, value: u64) -> Vec<BrachaNode> {
        let n = g.node_count();
        let cfg = BrachaConfig::new(n, t, dealer);
        (0..n)
            .map(|i| {
                if i == dealer {
                    BrachaNode::dealer(i, cfg, g.neighborhood(i), value)
                } else {
                    BrachaNode::new(i, cfg, g.neighborhood(i))
                }
            })
            .collect()
    }

    fn run(g: &Graph, t: usize, dealer: NodeId, value: u64) -> Vec<BrachaNode> {
        let nodes = build(g, t, dealer, value);
        let rounds = BrachaConfig::new(g.node_count(), t, dealer).rounds();
        let mut net = SyncNetwork::new(nodes, g.clone());
        net.run_rounds(rounds);
        net.into_parts().0
    }

    #[test]
    fn quorum_arithmetic() {
        let cfg = BrachaConfig::new(10, 2, 0);
        assert_eq!(cfg.echo_quorum(), 7);
        assert_eq!(cfg.ready_amplify(), 3);
        assert_eq!(cfg.deliver_quorum(), 5);
        assert_eq!(cfg.rounds(), 27);
    }

    #[test]
    fn validity_on_a_partially_connected_network() {
        // H(3,10): κ = 3 > 2t with t = 1, n = 10 > 3t. Every correct node
        // must deliver the dealer's value.
        let g = gen::harary(3, 10).unwrap();
        for node in run(&g, 1, 0, 0xfeed) {
            assert_eq!(node.delivered_value(), Some(0xfeed), "node {}", node.node_id());
        }
    }

    #[test]
    fn validity_with_a_silent_byzantine_relay() {
        // One crashed/Byzantine relay cannot stop delivery: κ = 3 leaves 2
        // disjoint relay routes plus the direct edges.
        let g = gen::harary(3, 10).unwrap();
        let participants: Vec<Muted<BrachaNode>> = build(&g, 1, 0, 7)
            .into_iter()
            .enumerate()
            .map(|(i, node)| {
                Muted::new(node, if i == 5 { Mute::From { round: 1 } } else { Mute::Never })
            })
            .collect();
        let mut net = SyncNetwork::new(participants, g.clone());
        net.run_rounds(27);
        let (participants, _) = net.into_parts();
        for p in participants.iter().filter(|p| p.id() != 5) {
            let h = p.inner();
            assert_eq!(h.delivered_value(), Some(7), "node {}", h.node_id());
        }
    }

    #[test]
    fn totality_and_agreement_under_an_equivocating_dealer() {
        // A Byzantine dealer sends value 1 to half its neighbors and value
        // 2 to the rest. Bracha's quorums forbid two correct nodes from
        // delivering different values.
        #[derive(Debug)]
        struct TwoFacedDealer {
            id: NodeId,
            neighbors: Vec<NodeId>,
            dealer: NodeId,
        }
        impl Process for TwoFacedDealer {
            type Msg = PathMsg<BcastClaim>;
            fn id(&self) -> NodeId {
                self.id
            }
            fn send(&mut self, round: usize) -> Vec<Outgoing<Self::Msg>> {
                if round != 1 {
                    return Vec::new();
                }
                self.neighbors
                    .iter()
                    .enumerate()
                    .map(|(i, &nbr)| {
                        let value = if i % 2 == 0 { 1 } else { 2 };
                        Outgoing::new(
                            nbr,
                            PathMsg {
                                claim: BcastClaim {
                                    phase: Phase::Send,
                                    origin: self.dealer,
                                    value,
                                },
                                path: vec![self.dealer],
                            },
                        )
                    })
                    .collect()
            }
            fn receive(&mut self, _round: usize, _from: NodeId, _msg: Self::Msg) {}
        }

        #[derive(Debug)]
        enum P {
            Honest(BrachaNode),
            Dealer(TwoFacedDealer),
        }
        impl Process for P {
            type Msg = PathMsg<BcastClaim>;
            fn id(&self) -> NodeId {
                match self {
                    P::Honest(x) => x.id(),
                    P::Dealer(x) => x.id(),
                }
            }
            fn send(&mut self, round: usize) -> Vec<Outgoing<Self::Msg>> {
                match self {
                    P::Honest(x) => x.send(round),
                    P::Dealer(x) => x.send(round),
                }
            }
            fn receive(&mut self, round: usize, from: NodeId, msg: Self::Msg) {
                match self {
                    P::Honest(x) => x.receive(round, from, msg),
                    P::Dealer(x) => x.receive(round, from, msg),
                }
            }
        }

        let g = gen::harary(4, 10).unwrap();
        let cfg = BrachaConfig::new(10, 1, 0);
        let participants: Vec<P> = (0..10)
            .map(|i| {
                if i == 0 {
                    P::Dealer(TwoFacedDealer { id: 0, neighbors: g.neighborhood(0), dealer: 0 })
                } else {
                    P::Honest(BrachaNode::new(i, cfg, g.neighborhood(i)))
                }
            })
            .collect();
        let mut net = SyncNetwork::new(participants, g.clone());
        net.run_rounds(cfg.rounds());
        let (participants, _) = net.into_parts();
        let delivered: BTreeSet<u64> = participants
            .iter()
            .filter_map(|p| match p {
                P::Honest(h) => h.delivered_value(),
                P::Dealer(_) => None,
            })
            .collect();
        assert!(
            delivered.len() <= 1,
            "two correct nodes delivered different values: {delivered:?}"
        );
    }

    #[test]
    fn no_delivery_without_a_dealer_proposal() {
        let g = gen::harary(3, 10).unwrap();
        let cfg = BrachaConfig::new(10, 1, 0);
        // Everyone is a non-dealer: nothing ever gets proposed.
        let nodes: Vec<BrachaNode> =
            (0..10).map(|i| BrachaNode::new(i, cfg, g.neighborhood(i))).collect();
        let mut net = SyncNetwork::new(nodes, g.clone());
        net.run_rounds(cfg.rounds());
        let (nodes, _) = net.into_parts();
        assert!(nodes.iter().all(|n| n.delivered_value().is_none()));
    }

    #[test]
    fn forged_send_claims_from_non_dealers_are_dropped() {
        let g = gen::cycle(6);
        let cfg = BrachaConfig::new(6, 1, 0);
        let mut node = BrachaNode::new(2, cfg, g.neighborhood(2));
        // Node 1 pretends the SEND originated at itself.
        let forged = PathMsg {
            claim: BcastClaim { phase: Phase::Send, origin: 1, value: 9 },
            path: vec![1],
        };
        node.receive(1, 1, forged);
        assert_eq!(
            node.store.path_count(&BcastClaim { phase: Phase::Send, origin: 1, value: 9 }),
            0
        );
    }
}

#[cfg(test)]
mod coverage_tests {
    use super::*;
    use nectar_graph::gen;
    use nectar_net::SyncNetwork;

    /// Validity holds for every dealer position and several payloads.
    #[test]
    fn validity_for_all_dealer_positions() {
        let g = gen::harary(3, 8).unwrap();
        for dealer in 0..8 {
            let value = 1000 + dealer as u64;
            let cfg = BrachaConfig::new(8, 1, dealer);
            let nodes: Vec<BrachaNode> = (0..8)
                .map(|i| {
                    if i == dealer {
                        BrachaNode::dealer(i, cfg, g.neighborhood(i), value)
                    } else {
                        BrachaNode::new(i, cfg, g.neighborhood(i))
                    }
                })
                .collect();
            let mut net = SyncNetwork::new(nodes, g.clone());
            net.run_rounds(cfg.rounds());
            let (nodes, _) = net.into_parts();
            for node in nodes {
                assert_eq!(
                    node.delivered_value(),
                    Some(value),
                    "dealer {dealer}, node {}",
                    node.node_id()
                );
            }
        }
    }

    /// On a fully connected graph the composition degenerates to classic
    /// Bracha and still works with t = 2.
    #[test]
    fn complete_graph_with_larger_t() {
        let g = gen::complete(9);
        let cfg = BrachaConfig::new(9, 2, 4);
        let nodes: Vec<BrachaNode> = (0..9)
            .map(|i| {
                if i == 4 {
                    BrachaNode::dealer(i, cfg, g.neighborhood(i), 55)
                } else {
                    BrachaNode::new(i, cfg, g.neighborhood(i))
                }
            })
            .collect();
        let mut net = SyncNetwork::new(nodes, g.clone());
        net.run_rounds(cfg.rounds());
        let (nodes, _) = net.into_parts();
        assert!(nodes.iter().all(|n| n.delivered_value() == Some(55)));
    }

    /// Below Dolev's connectivity floor (κ ≤ 2t) liveness is lost but the
    /// protocol stays safe: nodes either deliver the dealer's value or
    /// nothing.
    #[test]
    fn low_connectivity_degrades_safely() {
        let g = gen::cycle(8); // κ = 2 = 2t with t = 1
        let cfg = BrachaConfig::new(8, 1, 0);
        let nodes: Vec<BrachaNode> = (0..8)
            .map(|i| {
                if i == 0 {
                    BrachaNode::dealer(i, cfg, g.neighborhood(i), 99)
                } else {
                    BrachaNode::new(i, cfg, g.neighborhood(i))
                }
            })
            .collect();
        let mut net = SyncNetwork::new(nodes, g.clone());
        net.run_rounds(cfg.rounds());
        let (nodes, _) = net.into_parts();
        for node in nodes {
            let v = node.delivered_value();
            assert!(v.is_none() || v == Some(99), "node {} delivered {v:?}", node.node_id());
        }
    }

    /// The dealer delivers its own value too (its own claims count).
    #[test]
    fn dealer_delivers_its_own_value() {
        let g = gen::harary(3, 8).unwrap();
        let nodes = {
            let cfg = BrachaConfig::new(8, 1, 3);
            (0..8)
                .map(|i| {
                    if i == 3 {
                        BrachaNode::dealer(i, cfg, g.neighborhood(i), 7)
                    } else {
                        BrachaNode::new(i, cfg, g.neighborhood(i))
                    }
                })
                .collect::<Vec<_>>()
        };
        let mut net = SyncNetwork::new(nodes, g.clone());
        net.run_rounds(21);
        let (nodes, _) = net.into_parts();
        assert_eq!(nodes[3].delivered_value(), Some(7));
    }
}
