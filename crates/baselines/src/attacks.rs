//! The runners that execute a full baseline scenario (mirroring
//! `nectar_protocol::Scenario`), with the Byzantine behaviours of §V-D:
//! * against MtG: Byzantine nodes gossip **all-ones Bloom filters**
//!   ([`MtgNode::saturated`]), making every correct node downstream believe
//!   the system is connected;
//! * against MtGv2 (and NECTAR): Byzantine *bridge* nodes act correctly
//!   toward one part of the network and crashed toward the other.

use std::collections::{BTreeMap, BTreeSet};

use nectar_crypto::KeyStore;
use nectar_graph::Graph;
use nectar_net::{Metrics, Mute, Muted, NodeId, Process, SyncNetwork};

use crate::mtg::MtgNode;
use crate::mtg_v2::MtgV2Node;
use crate::verdict::BaselineVerdict;

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

/// Runs MtG over `topology` for one epoch, with the nodes of `saturators`
/// gossiping all-ones filters (the Byzantine cast).
pub fn run_mtg(topology: &Graph, saturators: &BTreeSet<NodeId>) -> BaselineOutcome {
    let n = topology.node_count();
    let fleet = (0..n).map(|i| {
        let node = MtgNode::new(i, n, topology.neighborhood(i));
        if saturators.contains(&i) {
            node.saturated()
        } else {
            node
        }
    });
    run(topology, fleet.collect(), saturators.clone(), MtgNode::decide)
}

/// Runs MtGv2 over `topology` for one epoch, with the given Byzantine cast:
/// each Byzantine node runs the protocol behind its [`Mute`] (attestations
/// cannot be forged, so only traffic-shaped attacks — silence, or the
/// two-faced bridge — remain).
pub fn run_mtg_v2(
    topology: &Graph,
    byzantine: &BTreeMap<NodeId, Mute>,
    key_seed: u64,
) -> BaselineOutcome {
    let n = topology.node_count();
    let keys = KeyStore::generate(n, key_seed);
    let fleet = (0..n).map(|i| {
        let node =
            MtgV2Node::new(i, n, topology.neighborhood(i), &keys.signer(i as u16), keys.verifier());
        Muted::new(node, byzantine.get(&i).cloned().unwrap_or(Mute::Never))
    });
    let byz = byzantine.keys().copied().collect();
    run(topology, fleet.collect(), byz, |p| p.inner().decide())
}

/// Runs `fleet` over `topology` for one epoch of `n − 1` rounds and
/// collects the verdicts of the nodes outside `byzantine`.
fn run<P: Process>(
    topology: &Graph,
    fleet: Vec<P>,
    byzantine: BTreeSet<NodeId>,
    decide: impl Fn(&P) -> BaselineVerdict,
) -> BaselineOutcome {
    let mut net = SyncNetwork::new(fleet, topology.clone());
    net.run_rounds(topology.node_count().saturating_sub(1));
    let (fleet, metrics) = net.into_parts();
    let verdicts = fleet
        .iter()
        .filter(|p| !byzantine.contains(&p.id()))
        .map(|p| (p.id(), decide(p)))
        .collect();
    BaselineOutcome { verdicts, metrics, byzantine }
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
        let out = run_mtg(&g, &BTreeSet::new());
        assert!(out.agreement());
        assert_eq!(out.success_rate(BaselineVerdict::Partitioned), 1.0);
    }

    #[test]
    fn one_saturator_fools_half_the_nodes() {
        let g = split_graph();
        let out = run_mtg(&g, &BTreeSet::from([0]));
        // Nodes 1–3 are poisoned (conclude Connected); 4–7 still detect.
        assert!(!out.agreement(), "a single Byzantine node breaks agreement");
        let rate = out.success_rate(BaselineVerdict::Partitioned);
        assert!((rate - 4.0 / 7.0).abs() < 1e-9, "rate = {rate}");
    }

    #[test]
    fn two_saturators_fool_everyone() {
        let g = split_graph();
        let out = run_mtg(&g, &BTreeSet::from([0, 4]));
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
        let out = run_mtg_v2(&g, &byz, 1);
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
        let out = run_mtg_v2(&g, &byz, 1);
        // Node 2 never attests: correct nodes miss it and conclude
        // Partitioned — a false alarm inherent to crash-style silence.
        assert_eq!(out.success_rate(BaselineVerdict::Partitioned), 1.0);
    }
}
