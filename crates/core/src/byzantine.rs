//! Byzantine NECTAR participants.
//!
//! §IV ("Impact of Byzantine deviations") and §V-D describe what Byzantine
//! nodes can attempt against NECTAR: stay silent, behave correctly toward
//! one side of the network and crashed toward the other, hide their own
//! edges, declare fictitious edges among themselves, or withhold signed
//! material to replay it later. Every one of them is a correct
//! [`NectarNode`] whose outgoing batch is rewritten, so this module has one
//! [`Participant`] — a node plus a send-time deviation — that plugs into
//! the same runtimes as correct nodes.

use std::collections::BTreeSet;

use nectar_crypto::{NeighborhoodProof, SignatureChain, Signer};
use nectar_graph::rng::mix64;
use nectar_net::{Mute, NodeId, Outgoing, Process};

use crate::message::{NectarMsg, RelayedEdge};
use crate::node::NectarNode;

/// Declarative description of a Byzantine node's strategy, consumed by the
/// scenario [`runner`](crate::runner).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ByzantineBehavior {
    /// Never sends anything (crash from round 1). Indistinguishable from a
    /// crashed node.
    Silent,
    /// Behaves correctly until `round`, silent afterwards.
    CrashAfter {
        /// First silent round.
        round: usize,
    },
    /// The bridge attack of §V-D: acts correctly toward every node *not* in
    /// the set, and as a crashed node toward the set — it stops *sending*
    /// to them but keeps receiving from them, and relays what it hears to
    /// the favoured side (the split views behind Fig. 8's plateau).
    TwoFaced {
        /// Nodes toward which this node plays dead.
        silent_toward: BTreeSet<NodeId>,
    },
    /// Omits its own edges toward the listed neighbors from its
    /// announcements (the edges can still be announced by the other — if
    /// correct — endpoint).
    HideEdges {
        /// Neighbors whose shared edge is concealed.
        toward: BTreeSet<NodeId>,
    },
    /// Declares fictitious edges with the listed partners. Only effective
    /// when the partners are Byzantine too (§II: proofs involving a correct
    /// node cannot be forged) — the runner enforces this.
    FictitiousEdges {
        /// Colluding partners for fake edges.
        partners: Vec<NodeId>,
    },
    /// Dolev–Strong-style late reveal: conceals the real edge shared with
    /// `partner`, then injects it at round `1 + others.len() + 1` inside a
    /// chain pre-signed by the colluders. Correct nodes accept it (the
    /// length matches) and still reach agreement — the scenario the paper's
    /// Lemma 2 covers.
    LateReveal {
        /// The other endpoint of the concealed edge (must be Byzantine).
        partner: NodeId,
        /// Additional colluding signers between `partner` and this node.
        others: Vec<NodeId>,
    },
    /// Sends different round-1 neighborhoods to different neighbors: nodes
    /// in `victims` only see the single edge they share with this node.
    Equivocate {
        /// Neighbors receiving the impoverished view.
        victims: BTreeSet<NodeId>,
    },
    /// Byzantine *data falsification* in the sense of Kailkhura et al.
    /// (distributed detection with falsified measurements): the node keeps
    /// honest transport and relays but lies about its own neighborhood
    /// measurement, behind its own perfectly valid signatures. Each real
    /// incident edge is independently reported "down" (suppressed from the
    /// round-1 announcement toward *every* neighbor — a consistent lie, not
    /// an equivocation) with probability `flips_per_mille / 1000`, and each
    /// absent edge toward a colluding `partner` is reported "up" with the
    /// same probability (§II: only forgeable because the partner — which
    /// the runner checks is Byzantine — co-signs the fictitious proof).
    /// Flips are pure functions of `(seed, node, other)`, so a cast is
    /// bit-identical across runtimes, worker counts and epochs.
    FalsifyData {
        /// Per-measurement flip probability in per-mille (0 ..= 1000).
        flips_per_mille: u16,
        /// Seed of the falsifier's private coin stream.
        seed: u64,
        /// Colluding partners for fabricated "up" measurements (may be
        /// empty; every listed partner must be Byzantine).
        partners: Vec<NodeId>,
    },
}

/// One Bernoulli draw of the [`FalsifyData`](ByzantineBehavior::FalsifyData)
/// coin stream: a splitmix64 finalizer over the `(seed, node, other)` key,
/// so each measurement's flip is an independent pure function — no RNG
/// state to order across nodes, which keeps parallel participant
/// construction and the cross-runtime equivalence suite trivially
/// deterministic.
pub(crate) fn falsify_flips(seed: u64, node: NodeId, other: NodeId, per_mille: u16) -> bool {
    let key = seed
        ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (other as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    mix64(key.wrapping_add(0x9E37_79B9_7F4A_7C15)) % 1000 < per_mille as u64
}

/// A protocol participant: a [`NectarNode`] plus what — if anything — it
/// does to its own outgoing batch each round.
///
/// Every §IV deviation is a correct node whose sends are rewritten (or
/// whose state was doctored before round 1: `HideEdges` and
/// `FictitiousEdges` need no send-time hook at all), so a heterogeneous
/// system is one `Vec<Participant>` that every runtime executes without
/// dynamic dispatch.
#[derive(Debug)]
pub struct Participant {
    node: NectarNode,
    deviation: Deviation,
}

// The fleet holds one of these per node, so its size is budgeted: box a
// deviation's payload before raising the bound.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Participant>() <= 272);

/// The send-time rewrite of one participant.
#[derive(Debug)]
enum Deviation {
    /// Sends exactly what the node produces.
    None,
    /// Silent, crash-after, two-faced: part of the batch is dropped.
    Mute(Mute),
    /// Late reveal: `payload` — the concealed edge under a chain pre-signed
    /// by the colluders — is injected toward every neighbor at `round`, the
    /// one round at which the chain length is acceptable.
    Reveal { round: usize, payload: Box<RelayedEdge>, done: bool },
    /// Equivocation: in round 1 these victims see only the edge they share
    /// with this node.
    Equivocate(BTreeSet<NodeId>),
    /// Data falsification: these real incident edges (normalized endpoint
    /// pairs) are cut from every copy of the round-1 announcement.
    Suppress(BTreeSet<(u16, u16)>),
}

impl Participant {
    /// A correct participant around `node` (also what the build-time
    /// deviations use, once they have doctored the node's state).
    pub fn correct(node: NectarNode) -> Self {
        Participant { node, deviation: Deviation::None }
    }

    /// `node` behind a traffic [`Mute`] (silent, crash-after, two-faced).
    pub fn muted(node: NectarNode, mute: Mute) -> Self {
        Participant { node, deviation: Deviation::Mute(mute) }
    }

    /// The late-reveal colluder: hides one real edge, then injects it with
    /// a pre-signed colluder chain at exactly the round matching the chain
    /// length. `chain_signers` are the signing keys of the colluding path
    /// (innermost first; the innermost **must** be an endpoint of `proof`
    /// and the outermost must be this node).
    ///
    /// # Panics
    ///
    /// Panics if the signer ordering violates the two constraints above
    /// (the attack would be rejected by every correct node otherwise).
    pub fn late_reveal(
        mut node: NectarNode,
        proof: NeighborhoodProof,
        chain_signers: &[&Signer],
    ) -> Self {
        let (u, v) = proof.endpoints();
        let first = chain_signers.first().expect("chain needs at least one signer").id();
        assert!(first == u || first == v, "innermost colluder must be an edge endpoint");
        let last = chain_signers.last().expect("non-empty").id() as usize;
        assert_eq!(last, node.node_id(), "outermost colluder must be the revealing node");
        let digest = proof.digest();
        let mut chain = SignatureChain::new();
        for signer in chain_signers {
            chain = chain.extend(signer, &digest);
        }
        // Conceal the edge from the initial announcements.
        let other = if u as usize == node.node_id() { v } else { u };
        node.hide_edge_to(other as usize);
        let deviation = Deviation::Reveal {
            round: chain.len(),
            payload: Box::new(RelayedEdge::new(proof, chain)),
            done: false,
        };
        Participant { node, deviation }
    }

    /// The equivocating announcer: `victims` only ever see the one edge
    /// they share with it in round 1.
    pub fn equivocator(node: NectarNode, victims: BTreeSet<NodeId>) -> Self {
        Participant { node, deviation: Deviation::Equivocate(victims) }
    }

    /// The data-falsifying node: announces a fabricated neighborhood
    /// measurement while *privately* keeping the true view — the
    /// Kailkhura-style sensor that lies in its reports, not in its state.
    /// Each real incident edge flips to "down" with probability
    /// `flips_per_mille / 1000` on the coin stream of `seed` (one pure draw
    /// per `(seed, node, neighbor)` key). Suppression happens at send time,
    /// so unlike [`ByzantineBehavior::HideEdges`] the falsifier still knows
    /// the suppressed edges (it never re-relays them as "news", and its own
    /// — irrelevant — verdict is computed over the truth). Fabricated "up"
    /// measurements toward colluding partners, if any, must already be
    /// announced on `node` ([`NectarNode::announce_extra_proof`], exactly
    /// like [`ByzantineBehavior::FictitiousEdges`]).
    pub fn falsifier(node: NectarNode, flips_per_mille: u16, seed: u64) -> Self {
        let me = node.node_id();
        let suppressed = node
            .neighbors()
            .iter()
            .filter(|&&nbr| falsify_flips(seed, me, nbr, flips_per_mille))
            .map(|&nbr| {
                let (a, b) = (me as u16, nbr as u16);
                (a.min(b), a.max(b))
            })
            .collect();
        Participant { node, deviation: Deviation::Suppress(suppressed) }
    }

    /// The underlying NECTAR state.
    pub fn nectar(&self) -> &NectarNode {
        &self.node
    }

    /// Whether this participant sends exactly what its node produces.
    pub fn is_correct(&self) -> bool {
        matches!(self.deviation, Deviation::None)
    }
}

impl Process for Participant {
    type Msg = NectarMsg;

    fn id(&self) -> NodeId {
        self.node.id()
    }

    fn send(&mut self, round: usize) -> Vec<Outgoing<NectarMsg>> {
        let mut out = self.node.send(round);
        match &mut self.deviation {
            Deviation::None => {}
            Deviation::Mute(mute) => mute.apply(round, &mut out),
            Deviation::Reveal { round: at, payload, done } => {
                if round == *at && !*done {
                    *done = true;
                    for &nbr in self.node.neighbors() {
                        match out.iter_mut().find(|o| o.to == nbr) {
                            Some(o) => {
                                o.msg = o.msg.edges.iter().chain([&**payload]).cloned().collect()
                            }
                            None => out.push(Outgoing::new(
                                nbr,
                                NectarMsg::new(vec![(**payload).clone()]),
                            )),
                        }
                    }
                }
            }
            Deviation::Equivocate(victims) => {
                if round == 1 {
                    let me = self.node.node_id() as u16;
                    for o in out.iter_mut().filter(|o| victims.contains(&o.to)) {
                        let victim = o.to as u16;
                        let shared = |e: &&RelayedEdge| {
                            let (u, v) = e.proof.endpoints();
                            (u == me && v == victim) || (v == me && u == victim)
                        };
                        o.msg = o.msg.edges.iter().filter(shared).cloned().collect();
                    }
                }
            }
            Deviation::Suppress(suppressed) => {
                // Round 1 carries exactly the node's own neighborhood
                // announcement; the flipped-down edges are cut from every
                // copy (a consistent lie). Later rounds relay other nodes'
                // proofs and pass through honestly.
                if round == 1 && !suppressed.is_empty() {
                    for o in &mut out {
                        let kept = |e: &&RelayedEdge| !suppressed.contains(&e.proof.endpoints());
                        o.msg = o.msg.edges.iter().filter(kept).cloned().collect();
                    }
                    out.retain(|o| !o.msg.edges.is_empty());
                }
            }
        }
        out
    }

    fn receive(&mut self, round: usize, from: NodeId, msg: NectarMsg) {
        self.node.receive(round, from, msg);
    }

    fn quiescent(&self) -> bool {
        match &self.deviation {
            // Conservative, like `nectar_net::Muted`: at most `t` nodes.
            Deviation::Mute(_) => false,
            // The reveal is a *spontaneous* send: until it has fired, this
            // node must keep receiving round ticks even with an empty
            // relay queue.
            Deviation::Reveal { done, .. } => *done && self.node.quiescent(),
            // The rewrites only *remove* from round-1 announcements (always
            // pending on the node at round 1); they never add a send, so
            // the node's hint stays sound as-is.
            Deviation::None | Deviation::Equivocate(_) | Deviation::Suppress(_) => {
                self.node.quiescent()
            }
        }
    }

    fn link_changed(&mut self, round: usize, peer: NodeId, up: bool) {
        // NECTAR nodes ignore the notification (mid-epoch re-announcement
        // is blocked by the chain-length rule); forwarded all the same.
        self.node.link_changed(round, peer, up);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NectarConfig, Verdict};
    use crate::runner::Scenario;
    use nectar_crypto::KeyStore;
    use nectar_graph::gen;
    use std::collections::BTreeMap;

    fn correct_node(id: usize, g: &nectar_graph::Graph, ks: &KeyStore, t: usize) -> NectarNode {
        let proofs: BTreeMap<usize, NeighborhoodProof> = g
            .neighbors(id)
            .map(|j| (j, NeighborhoodProof::new(&ks.signer(id as u16), &ks.signer(j as u16))))
            .collect();
        NectarNode::new(
            id,
            NectarConfig::new(g.node_count(), t),
            ks.signer(id as u16),
            ks.verifier(),
            proofs,
        )
    }

    #[test]
    fn late_reveal_injects_at_exactly_the_chain_length_round() {
        // Ring of 6; nodes 0 and 1 collude: edge (0,1) is concealed, then
        // node 1 reveals it at round 2 with the chain [σ_0, σ_1].
        let g = gen::cycle(6);
        let ks = KeyStore::generate(6, 3);
        let inner = correct_node(1, &g, &ks, 1);
        let proof = NeighborhoodProof::new(&ks.signer(0), &ks.signer(1));
        let s0 = ks.signer(0);
        let s1 = ks.signer(1);
        let mut node = Participant::late_reveal(inner, proof, &[&s0, &s1]);

        // Round 1: the concealed edge is absent from announcements.
        let out1 = node.send(1);
        for o in &out1 {
            assert!(o.msg.edges.iter().all(|e| e.proof.endpoints() != (0, 1)), "edge leaked early");
        }
        // Round 2: the reveal goes to every neighbor with a length-2 chain.
        let out2 = node.send(2);
        let reveals: Vec<_> = out2
            .iter()
            .flat_map(|o| o.msg.edges.iter().map(move |e| (o.to, e)))
            .filter(|(_, e)| e.proof.endpoints() == (0, 1))
            .collect();
        assert_eq!(reveals.len(), 2, "one reveal per ring neighbor");
        for (_, e) in reveals {
            assert_eq!(e.chain.len(), 2);
            assert_eq!(e.chain.outermost_signer(), Some(1));
        }
        // Round 3: nothing further.
        let out3 = node.send(3);
        assert!(out3.iter().all(|o| o.msg.edges.iter().all(|e| e.proof.endpoints() != (0, 1))));
    }

    #[test]
    #[should_panic(expected = "innermost colluder must be an edge endpoint")]
    fn late_reveal_rejects_non_endpoint_chain_start() {
        let g = gen::cycle(6);
        let ks = KeyStore::generate(6, 3);
        let inner = correct_node(1, &g, &ks, 1);
        let proof = NeighborhoodProof::new(&ks.signer(0), &ks.signer(1));
        let s3 = ks.signer(3);
        let s1 = ks.signer(1);
        let _ = Participant::late_reveal(inner, proof, &[&s3, &s1]);
    }

    #[test]
    fn late_reveal_preserves_agreement_end_to_end() {
        // The Dolev–Strong scenario Lemma 2 covers: the late edge is
        // accepted by everyone (length matches), and all correct nodes
        // still agree.
        let g = gen::cycle(7);
        let out = Scenario::new(g, 2)
            .with_byzantine(0, ByzantineBehavior::LateReveal { partner: 1, others: vec![] })
            .with_byzantine(1, ByzantineBehavior::Silent)
            .sim()
            .run();
        assert!(out.agreement());
        // Every correct node ends up seeing the late edge (0,1): their
        // discovered graphs all contain 7 edges.
        let participants = Scenario::new(gen::cycle(7), 2)
            .with_byzantine(0, ByzantineBehavior::LateReveal { partner: 1, others: vec![] })
            .with_byzantine(1, ByzantineBehavior::Silent)
            .sim()
            .participants();
        for p in participants.iter().filter(|p| p.is_correct()) {
            assert_eq!(p.nectar().known_edge_count(), 7, "node {}", p.nectar().node_id());
        }
    }

    #[test]
    fn equivocator_shows_victims_only_the_shared_edge() {
        let g = gen::complete(4);
        let ks = KeyStore::generate(4, 5);
        let inner = correct_node(0, &g, &ks, 1);
        let mut node = Participant::equivocator(inner, [2].into());
        let out = node.send(1);
        let to_victim = out.iter().find(|o| o.to == 2).expect("message to victim");
        assert_eq!(to_victim.msg.edges.len(), 1);
        assert_eq!(to_victim.msg.edges.iter().next().unwrap().proof.endpoints(), (0, 2));
        let to_other = out.iter().find(|o| o.to == 1).expect("message to non-victim");
        assert_eq!(to_other.msg.edges.len(), 3, "non-victims get the full neighborhood");
    }

    #[test]
    fn equivocation_cannot_break_agreement() {
        // The victims re-learn the withheld edges from their correct
        // endpoints, so every correct node converges to the same view.
        let g = gen::complete(5);
        let out = Scenario::new(g, 1)
            .with_byzantine(0, ByzantineBehavior::Equivocate { victims: [1, 2].into() })
            .sim()
            .run();
        assert!(out.agreement());
        assert_eq!(out.unanimous_verdict(), Some(Verdict::NotPartitionable));
    }

    #[test]
    fn falsifier_suppresses_the_same_edges_toward_every_neighbor() {
        // flips_per_mille = 1000: every incident edge is reported "down".
        let g = gen::complete(4);
        let ks = KeyStore::generate(4, 5);
        let inner = correct_node(0, &g, &ks, 1);
        let mut node = Participant::falsifier(inner, 1000, 7);
        match &node.deviation {
            Deviation::Suppress(edges) => {
                assert_eq!(edges.len(), 3, "all three incident edges flip at p = 1")
            }
            other => panic!("not a falsifier: {other:?}"),
        }
        let out = node.send(1);
        // Own edges are cut everywhere; empty messages are dropped whole.
        for o in &out {
            for e in &o.msg.edges {
                let (u, v) = e.proof.endpoints();
                assert!(u != 0 && v != 0, "own edge ({u}, {v}) leaked to {}", o.to);
            }
        }
        assert!(out.is_empty(), "node 0 had only own edges to announce");
    }

    #[test]
    fn falsifier_keeps_the_truth_in_its_private_view() {
        let g = gen::cycle(5);
        let ks = KeyStore::generate(5, 5);
        let inner = correct_node(2, &g, &ks, 1);
        let node = Participant::falsifier(inner, 1000, 3);
        // The lie is in the reports only: the discovered view still holds
        // both real incident edges.
        assert_eq!(node.nectar().known_edge_count(), 2);
    }

    #[test]
    fn falsifier_coin_stream_is_a_pure_function_of_the_key() {
        for (seed, node, other) in [(0u64, 1usize, 2usize), (9, 4, 0), (1234, 7, 7)] {
            assert_eq!(
                falsify_flips(seed, node, other, 500),
                falsify_flips(seed, node, other, 500),
            );
        }
        // The per-mille bounds are sharp: 0 never flips, 1000 always does.
        for other in 0..50 {
            assert!(!falsify_flips(42, 3, other, 0));
            assert!(falsify_flips(42, 3, other, 1000));
        }
        // A fair-ish coin actually varies across the key space.
        let flips = (0..200).filter(|&other| falsify_flips(42, 3, other, 500)).count();
        assert!((50..150).contains(&flips), "500‰ flipped {flips}/200 measurements");
    }

    #[test]
    fn falsification_cannot_break_agreement_or_verification() {
        // Correct endpoints re-announce every suppressed edge, so the view
        // converges and all signatures verify (the falsifier's own chains
        // are genuine).
        let g = gen::harary(4, 10).unwrap();
        let report = Scenario::new(g, 2)
            .with_byzantine(
                3,
                ByzantineBehavior::FalsifyData {
                    flips_per_mille: 1000,
                    seed: 11,
                    partners: vec![],
                },
            )
            .sim()
            .run();
        assert!(report.agreement());
        assert_eq!(report.unanimous_verdict(), Some(Verdict::NotPartitionable));
    }

    #[test]
    fn falsifier_fabricates_edges_only_toward_byzantine_partners() {
        // Nodes 0 and 2 collude on a cycle (no real 0-2 edge); at p = 1 the
        // fabricated edge is announced and reaches every correct node.
        let g = gen::cycle(6);
        let participants = Scenario::new(g, 2)
            .with_byzantine(
                0,
                ByzantineBehavior::FalsifyData {
                    flips_per_mille: 1000,
                    seed: 5,
                    partners: vec![2],
                },
            )
            .with_byzantine(2, ByzantineBehavior::Silent)
            .sim()
            .participants();
        for p in participants.iter().filter(|p| p.is_correct()) {
            let view = p.nectar().discovered_graph();
            assert!(
                view.has_edge(0, 2),
                "node {} missed the fabricated edge",
                p.nectar().node_id()
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be Byzantine")]
    fn falsifier_rejects_correct_partners() {
        let _ = Scenario::new(gen::cycle(6), 1)
            .with_byzantine(
                0,
                ByzantineBehavior::FalsifyData {
                    flips_per_mille: 1000,
                    seed: 5,
                    partners: vec![3],
                },
            )
            .build_participants();
    }

    #[test]
    fn participant_enum_dispatches_ids() {
        let g = gen::cycle(4);
        let ks = KeyStore::generate(4, 5);
        let correct = Participant::correct(correct_node(2, &g, &ks, 1));
        assert_eq!(correct.id(), 2);
        assert!(correct.is_correct());
        let faulty = Participant::muted(correct_node(3, &g, &ks, 1), Mute::From { round: 1 });
        assert_eq!(faulty.id(), 3);
        assert!(!faulty.is_correct());
        assert_eq!(faulty.nectar().node_id(), 3);
    }

    #[test]
    fn silent_fault_sends_nothing_ever() {
        let g = gen::cycle(4);
        let ks = KeyStore::generate(4, 5);
        let mut faulty = Participant::muted(correct_node(0, &g, &ks, 1), Mute::From { round: 1 });
        for round in 1..4 {
            assert!(faulty.send(round).is_empty(), "round {round}");
        }
    }
}
