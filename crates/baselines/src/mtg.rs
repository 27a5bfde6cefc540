//! MindTheGap (MtG) — Bouget et al., SRDS 2018 (§V-A baseline).
//!
//! Every node maintains a Bloom filter of the process IDs it believes
//! reachable (initially just itself) and gossips it to its neighbors; on
//! reception, filters are unioned. After the epoch, a node concludes the
//! network is *partitioned* iff some process ID is missing from its filter.
//!
//! MtG is cheap (a filter is a few dozen bytes) but unauthenticated: a
//! single Byzantine node sending an all-ones filter poisons every downstream
//! union — the attack reproduced in Fig. 8.

use nectar_net::{NodeId, Outgoing, Process, WireSized};

use crate::bloom::BloomFilter;
use crate::verdict::BaselineVerdict;

/// Gossip message: the sender's current reachability filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterMsg {
    /// The gossiped Bloom filter.
    pub filter: BloomFilter,
}

/// Fixed per-message framing overhead (sender + epoch counter).
pub const MTG_HEADER_BYTES: usize = 8;

impl WireSized for FilterMsg {
    fn wire_bytes(&self) -> usize {
        MTG_HEADER_BYTES + self.filter.wire_bytes()
    }
}

/// Bloom filter bits: sized for systems of up to a few hundred nodes
/// (~2.7% FPR at n = 100).
const FILTER_BITS: usize = 1024;

/// Bloom filter hash count.
const FILTER_HASHES: usize = 3;

/// An MtG node. Correct, or — once [`saturated`](Self::saturated) — the
/// §V-D attacker.
#[derive(Debug, Clone)]
pub struct MtgNode {
    id: NodeId,
    /// System size `n` (all process IDs are known, §II).
    n: usize,
    neighbors: Vec<NodeId>,
    filter: BloomFilter,
    dirty: bool,
}

impl MtgNode {
    /// Creates the node of a system of `n` with its neighbor list.
    pub fn new(id: NodeId, n: usize, neighbors: Vec<NodeId>) -> Self {
        let mut filter = BloomFilter::new(FILTER_BITS, FILTER_HASHES);
        filter.insert(id as u64);
        MtgNode { id, n, neighbors, filter, dirty: true }
    }

    /// The §V-D attacker: the node's filter is all ones, so it gossips it
    /// once, at its next send, and no union can change it afterwards.
    pub fn saturated(mut self) -> Self {
        self.filter.saturate();
        self.dirty = true;
        self
    }

    /// The node's current filter.
    pub fn filter(&self) -> &BloomFilter {
        &self.filter
    }

    /// End-of-epoch decision: partitioned iff some process ID is missing.
    pub fn decide(&self) -> BaselineVerdict {
        let all_present = (0..self.n).all(|id| self.filter.contains(id as u64));
        if all_present {
            BaselineVerdict::Connected
        } else {
            BaselineVerdict::Partitioned
        }
    }
}

impl Process for MtgNode {
    type Msg = FilterMsg;

    fn id(&self) -> NodeId {
        self.id
    }

    fn send(&mut self, _round: usize) -> Vec<Outgoing<FilterMsg>> {
        // Gossip on change: re-sending an unchanged filter adds no
        // information, so a correct node stays silent once its view has
        // stabilized (this is what keeps MtG's cost flat in Fig. 4).
        if !self.dirty {
            return Vec::new();
        }
        self.dirty = false;
        self.neighbors
            .iter()
            .map(|&to| Outgoing::new(to, FilterMsg { filter: self.filter.clone() }))
            .collect()
    }

    fn receive(&mut self, _round: usize, _from: NodeId, msg: FilterMsg) {
        if msg.filter.geometry() != self.filter.geometry() {
            // Malformed gossip; a correct node ignores it.
            return;
        }
        let before = self.filter.count_ones();
        self.filter.union(&msg.filter);
        if self.filter.count_ones() != before {
            self.dirty = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_graph::gen;
    use nectar_net::SyncNetwork;

    fn run(g: &nectar_graph::Graph, rounds: usize) -> Vec<MtgNode> {
        let n = g.node_count();
        let nodes = (0..n).map(|i| MtgNode::new(i, n, g.neighborhood(i))).collect();
        let mut net = SyncNetwork::new(nodes, g.clone());
        net.run_rounds(rounds);
        net.into_parts().0
    }

    #[test]
    fn connected_graph_is_reported_connected() {
        let g = gen::cycle(10);
        for node in run(&g, 9) {
            assert_eq!(node.decide(), BaselineVerdict::Connected);
        }
    }

    #[test]
    fn partitioned_graph_is_reported_partitioned() {
        let g =
            nectar_graph::Graph::from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
                .unwrap();
        for node in run(&g, 7) {
            assert_eq!(node.decide(), BaselineVerdict::Partitioned);
        }
    }

    #[test]
    fn gossip_goes_quiet_after_convergence() {
        let g = gen::path(4);
        let n = g.node_count();
        let nodes: Vec<MtgNode> = (0..n).map(|i| MtgNode::new(i, n, g.neighborhood(i))).collect();
        let mut net = SyncNetwork::new(nodes, g.clone());
        net.run_rounds(10);
        let per_round = net.metrics().bytes_per_round();
        // Diameter 3: all filters converge well before round 10.
        assert!(per_round.len() <= 6, "gossip kept flowing: {per_round:?}");
    }

    #[test]
    fn malformed_filter_geometry_is_ignored() {
        let mut node = MtgNode::new(0, 4, vec![1]);
        let alien = BloomFilter::new(64, 1);
        node.receive(1, 1, FilterMsg { filter: alien });
        assert_eq!(node.filter().geometry(), (1024, 3));
    }

    #[test]
    fn a_saturated_node_gossips_its_filter_once() {
        let mut node = MtgNode::new(0, 4, vec![1, 2]).saturated();
        let out = node.send(1);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|o| o.msg.filter.count_ones() == FILTER_BITS));
        node.receive(1, 1, FilterMsg { filter: MtgNode::new(1, 4, vec![0]).filter().clone() });
        assert!(node.send(2).is_empty(), "no union changes an all-ones filter");
    }
}
