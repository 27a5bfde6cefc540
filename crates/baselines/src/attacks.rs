//! Byzantine behaviours against the baselines, and runners that execute a
//! full baseline scenario (mirroring `nectar_protocol::Scenario`).
//!
//! §V-D evaluates two attacks:
//! * against MtG: Byzantine nodes gossip **all-ones Bloom filters**, making
//!   every correct node downstream believe the system is connected;
//! * against MtGv2 (and NECTAR): Byzantine *bridge* nodes act correctly
//!   toward one part of the network and crashed toward the other.

use std::collections::{BTreeMap, BTreeSet};

use nectar_crypto::KeyStore;
use nectar_graph::Graph;
use nectar_net::{Metrics, Mute, Muted, NodeId, Outgoing, Process, SyncNetwork};

use crate::bloom::BloomFilter;
use crate::mtg::{FilterMsg, MtgConfig, MtgNode};
use crate::mtg_v2::MtgV2Node;
use crate::verdict::BaselineVerdict;

/// The all-ones-filter attacker.
#[derive(Debug)]
pub struct FilterSaturator {
    id: NodeId,
    neighbors: Vec<NodeId>,
    config: MtgConfig,
    fired: bool,
}

impl FilterSaturator {
    /// Creates the attacker.
    pub fn new(id: NodeId, config: MtgConfig, neighbors: Vec<NodeId>) -> Self {
        FilterSaturator { id, neighbors, config, fired: false }
    }
}

impl Process for FilterSaturator {
    type Msg = FilterMsg;

    fn id(&self) -> NodeId {
        self.id
    }

    fn send(&mut self, _round: usize) -> Vec<Outgoing<FilterMsg>> {
        // One poisoned filter per neighbor is enough: unions never forget.
        if self.fired {
            return Vec::new();
        }
        self.fired = true;
        let mut filter = BloomFilter::new(self.config.filter_bits, self.config.filter_hashes);
        filter.saturate();
        self.neighbors
            .iter()
            .map(|&to| Outgoing::new(to, FilterMsg { filter: filter.clone() }))
            .collect()
    }

    fn receive(&mut self, _round: usize, _from: NodeId, _msg: FilterMsg) {}
}

/// Heterogeneous MtG participant.
#[derive(Debug)]
pub enum MtgParticipant {
    /// The protocol node.
    Node(MtgNode),
    /// All-ones-filter attacker.
    Saturator(FilterSaturator),
}

impl Process for MtgParticipant {
    type Msg = FilterMsg;

    fn id(&self) -> NodeId {
        match self {
            MtgParticipant::Node(n) => n.id(),
            MtgParticipant::Saturator(s) => s.id(),
        }
    }

    fn send(&mut self, round: usize) -> Vec<Outgoing<FilterMsg>> {
        match self {
            MtgParticipant::Node(n) => n.send(round),
            MtgParticipant::Saturator(s) => s.send(round),
        }
    }

    fn receive(&mut self, round: usize, from: NodeId, msg: FilterMsg) {
        match self {
            MtgParticipant::Node(n) => n.receive(round, from, msg),
            MtgParticipant::Saturator(s) => s.receive(round, from, msg),
        }
    }
}

/// Result of a baseline execution.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Every correct node's verdict.
    pub verdicts: BTreeMap<NodeId, BaselineVerdict>,
    /// Traffic counters.
    pub metrics: Metrics,
    /// Byzantine cast.
    pub byzantine: BTreeSet<NodeId>,
}

impl BaselineOutcome {
    /// Whether all correct nodes agree.
    pub fn agreement(&self) -> bool {
        let mut it = self.verdicts.values();
        match it.next() {
            None => true,
            Some(first) => it.all(|v| v == first),
        }
    }

    /// Fraction of correct nodes reaching `expected` — Fig. 8's decision
    /// success rate.
    pub fn success_rate(&self, expected: BaselineVerdict) -> f64 {
        if self.verdicts.is_empty() {
            return 1.0;
        }
        let ok = self.verdicts.values().filter(|&&v| v == expected).count();
        ok as f64 / self.verdicts.len() as f64
    }

    /// Mean bytes sent per node, in KB (Figs. 4–7).
    pub fn mean_kb_sent_per_node(&self) -> f64 {
        self.metrics.mean_bytes_sent_per_node() / 1024.0
    }
}

/// Runs MtG over `topology` for `rounds` (one epoch), with the nodes of
/// `saturators` gossiping all-ones filters (the Byzantine cast).
pub fn run_mtg(
    topology: &Graph,
    config: MtgConfig,
    saturators: &BTreeSet<NodeId>,
    rounds: usize,
) -> BaselineOutcome {
    let n = topology.node_count();
    let participants: Vec<MtgParticipant> = (0..n)
        .map(|i| {
            if saturators.contains(&i) {
                MtgParticipant::Saturator(FilterSaturator::new(i, config, topology.neighborhood(i)))
            } else {
                MtgParticipant::Node(MtgNode::new(i, config, topology.neighborhood(i)))
            }
        })
        .collect();
    let mut net = SyncNetwork::new(participants, topology.clone());
    net.run_rounds(rounds);
    let (participants, metrics) = net.into_parts();
    let verdicts = participants
        .iter()
        .filter_map(|p| match p {
            MtgParticipant::Node(n) => Some((n.id(), n.decide())),
            MtgParticipant::Saturator(_) => None,
        })
        .collect();
    BaselineOutcome { verdicts, metrics, byzantine: saturators.clone() }
}

/// Runs MtGv2 over `topology` for `rounds` (one epoch), with the given
/// Byzantine cast: each Byzantine node runs the protocol behind its
/// [`Mute`] (filters cannot be forged, so only traffic-shaped attacks —
/// silence, or the two-faced bridge — remain).
pub fn run_mtg_v2(
    topology: &Graph,
    byzantine: &BTreeMap<NodeId, Mute>,
    rounds: usize,
    key_seed: u64,
) -> BaselineOutcome {
    let n = topology.node_count();
    let keys = KeyStore::generate(n, key_seed);
    let participants: Vec<Muted<MtgV2Node>> = (0..n)
        .map(|i| {
            let node = MtgV2Node::new(
                i,
                n,
                topology.neighborhood(i),
                &keys.signer(i as u16),
                keys.verifier(),
            );
            Muted::new(node, byzantine.get(&i).cloned().unwrap_or(Mute::Never))
        })
        .collect();
    let mut net = SyncNetwork::new(participants, topology.clone());
    net.run_rounds(rounds);
    let (participants, metrics) = net.into_parts();
    let byz: BTreeSet<NodeId> = byzantine.keys().copied().collect();
    let verdicts = participants
        .iter()
        .filter(|p| !byz.contains(&p.id()))
        .map(|p| (p.id(), p.inner().decide()))
        .collect();
    BaselineOutcome { verdicts, metrics, byzantine: byz }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_graph::Graph;

    /// Two 4-cliques with no link between them: a clean partition.
    fn split_graph() -> Graph {
        let mut g = Graph::empty(8);
        for base in [0, 4] {
            for u in base..base + 4 {
                for v in u + 1..base + 4 {
                    g.add_edge(u, v).unwrap();
                }
            }
        }
        g
    }

    #[test]
    fn honest_mtg_detects_the_partition() {
        let g = split_graph();
        let out = run_mtg(&g, MtgConfig::new(8), &BTreeSet::new(), 7);
        assert!(out.agreement());
        assert_eq!(out.success_rate(BaselineVerdict::Partitioned), 1.0);
    }

    #[test]
    fn one_saturator_fools_half_the_nodes() {
        let g = split_graph();
        let out = run_mtg(&g, MtgConfig::new(8), &BTreeSet::from([0]), 7);
        // Nodes 1–3 are poisoned (conclude Connected); 4–7 still detect.
        assert!(!out.agreement(), "a single Byzantine node breaks agreement");
        let rate = out.success_rate(BaselineVerdict::Partitioned);
        assert!((rate - 4.0 / 7.0).abs() < 1e-9, "rate = {rate}");
    }

    #[test]
    fn two_saturators_fool_everyone() {
        let g = split_graph();
        let out = run_mtg(&g, MtgConfig::new(8), &BTreeSet::from([0, 4]), 7);
        assert_eq!(out.success_rate(BaselineVerdict::Partitioned), 0.0);
    }

    #[test]
    fn mtgv2_bridge_attack_splits_correct_views() {
        // Bridge topology: parts A = {0,1,2} and B = {4,5,6} joined only via
        // the Byzantine node 3, which acts correctly toward A and crashed
        // toward B (§V-D). The bridge keeps receiving B's attestations and
        // relays them to A: A concludes Connected (true of the raw graph),
        // while B, hearing nothing across, concludes Partitioned (true of
        // the correct subgraph). Half the correct nodes on each side — the
        // ~0.5 success plateau of Fig. 8.
        let mut g = Graph::empty(7);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6), (2, 3), (3, 4)] {
            g.add_edge(u, v).unwrap();
        }
        let byz = BTreeMap::from([(3, Mute::Toward([4, 5, 6].into()))]);
        let out = run_mtg_v2(&g, &byz, 6, 1);
        assert!(!out.agreement(), "one bridge suffices to break agreement");
        let rate = out.success_rate(BaselineVerdict::Partitioned);
        assert!((rate - 0.5).abs() < 1e-9, "rate = {rate}");
        for (&node, &v) in &out.verdicts {
            let expected =
                if node <= 2 { BaselineVerdict::Connected } else { BaselineVerdict::Partitioned };
            assert_eq!(v, expected, "node {node}");
        }
    }

    #[test]
    fn silent_byzantine_in_connected_graph_changes_nothing_for_others() {
        let g = nectar_graph::gen::harary(3, 8).unwrap();
        let byz = BTreeMap::from([(2, Mute::From { round: 1 })]);
        let out = run_mtg_v2(&g, &byz, 7, 1);
        // Node 2 never attests: correct nodes miss it and conclude
        // Partitioned — a false alarm inherent to crash-style silence.
        assert_eq!(out.success_rate(BaselineVerdict::Partitioned), 1.0);
    }
}
