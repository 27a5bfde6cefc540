//! The one toy protocol the crate's unit and property tests drive the
//! engines, the schedule wrapper and the fault wrapper with.

use std::collections::BTreeSet;

use nectar_graph::Graph;
use proptest::prelude::*;

use crate::process::{NodeId, Outgoing, Process, WireSized};

/// A flooded node id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IdMsg(pub(crate) usize);

impl WireSized for IdMsg {
    fn wire_bytes(&self) -> usize {
        8
    }
}

/// Toy flooding protocol: each node floods its id once; receivers remember
/// ids and forward first sightings. Reactive (quiescent once the outbox is
/// drained), and it re-announces everything it knows when a link comes up
/// — the behaviour a healed edge must re-wake; inert where no schedule
/// runs.
#[derive(Debug, Clone)]
pub(crate) struct Flood {
    pub(crate) id: NodeId,
    pub(crate) neighbors: Vec<NodeId>,
    pub(crate) known: BTreeSet<usize>,
    pub(crate) outbox: Vec<usize>,
    /// Every reception, in order: `(round, from, payload)`.
    pub(crate) received: Vec<(usize, NodeId, usize)>,
}

impl Flood {
    pub(crate) fn new(id: NodeId, g: &Graph) -> Self {
        Flood {
            id,
            neighbors: g.neighborhood(id),
            known: [id].into(),
            outbox: vec![id],
            received: Vec::new(),
        }
    }
}

impl Process for Flood {
    type Msg = IdMsg;

    fn id(&self) -> NodeId {
        self.id
    }

    fn send(&mut self, _round: usize) -> Vec<Outgoing<IdMsg>> {
        let outbox = std::mem::take(&mut self.outbox);
        outbox
            .into_iter()
            .flat_map(|payload| {
                self.neighbors.iter().map(move |&to| Outgoing::new(to, IdMsg(payload)))
            })
            .collect()
    }

    fn receive(&mut self, round: usize, from: NodeId, msg: IdMsg) {
        self.received.push((round, from, msg.0));
        if self.known.insert(msg.0) {
            self.outbox.push(msg.0);
        }
    }

    fn quiescent(&self) -> bool {
        self.outbox.is_empty()
    }

    fn link_changed(&mut self, _round: usize, _peer: NodeId, up: bool) {
        if up {
            self.outbox.extend(self.known.iter().copied());
        }
    }
}

/// One [`Flood`] per node of `g`.
pub(crate) fn floods(g: &Graph) -> Vec<Flood> {
    (0..g.node_count()).map(|i| Flood::new(i, g)).collect()
}

/// Any labelled graph on 2 ..= `max_n` nodes (each edge kept by a coin).
pub(crate) fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n).prop_flat_map(|n| {
        let pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
        proptest::collection::vec(proptest::bool::ANY, pairs.len()).prop_map(move |mask| {
            let edges = pairs.iter().zip(&mask).filter_map(|(&e, &keep)| keep.then_some(e));
            Graph::from_edges(n, edges).expect("generated edges are in range")
        })
    })
}
