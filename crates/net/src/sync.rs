//! Deterministic synchronous round engine.
//!
//! Implements the paper's communication model (§II) exactly: a static
//! undirected topology of reliable channels and lock-step rounds in which
//! every message sent at round `R` is delivered before round `R + 1`.
//! Execution is single-threaded and fully deterministic (messages are
//! delivered in increasing sender order), which the test suite leans on;
//! [`crate::event`] runs the same [`Process`] code on an `O(active
//! events)` event loop and [`crate::parallel`] fans it over a
//! work-stealing worker pool — both bit-identically.
//!
//! This engine polls every node every round (`O(n · rounds)` even when the
//! protocol has quiesced), which is the simplest correct baseline the
//! other two runtimes are checked against: its per-round order *is* the
//! canonical order of `docs/DETERMINISM.md`.

use nectar_graph::Graph;

use crate::metrics::Metrics;
use crate::process::{NodeId, Process};

/// A synchronous network executing one [`Process`] per topology node.
#[derive(Debug)]
pub struct SyncNetwork<P: Process> {
    processes: Vec<P>,
    topology: Graph,
    metrics: Metrics,
    next_round: usize,
}

impl<P: Process> SyncNetwork<P> {
    /// Creates a network over `topology` with one process per node.
    ///
    /// # Panics
    ///
    /// Panics unless `processes[i].id() == i` for every `i` and the process
    /// count equals the topology's node count.
    pub fn new(processes: Vec<P>, topology: Graph) -> Self {
        assert_eq!(
            processes.len(),
            topology.node_count(),
            "need exactly one process per topology node"
        );
        for (i, p) in processes.iter().enumerate() {
            assert_eq!(p.id(), i, "process at index {i} reports id {}", p.id());
        }
        let n = processes.len();
        SyncNetwork { processes, topology, metrics: Metrics::new(n), next_round: 1 }
    }

    /// Executes one synchronous round: every process sends, then every
    /// delivered message is received (in increasing sender order).
    ///
    /// Messages addressed to non-neighbors are dropped and counted as
    /// [`Metrics::illegal_sends`] — channels only exist along topology
    /// edges, and per §II not even Byzantine nodes can violate that.
    pub fn step(&mut self) {
        let round = self.next_round;
        self.next_round += 1;
        // inboxes[to] = (from, msg), gathered in sender order because we
        // iterate processes in index order.
        let mut inboxes: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); self.processes.len()];
        for i in 0..self.processes.len() {
            for out in self.processes[i].send(round) {
                if out.to >= self.processes.len() || !self.topology.has_edge(i, out.to) {
                    self.metrics.record_illegal_send();
                    continue;
                }
                self.metrics.record_send(
                    round,
                    i,
                    out.to,
                    crate::process::WireSized::wire_bytes(&out.msg),
                );
                inboxes[out.to].push((i, out.msg));
            }
        }
        for (to, inbox) in inboxes.into_iter().enumerate() {
            for (from, msg) in inbox {
                self.processes[to].receive(round, from, msg);
            }
        }
    }

    /// Runs `rounds` synchronous rounds.
    pub fn run_rounds(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// The round [`step`](Self::step) will execute next (1-based).
    pub fn next_round(&self) -> usize {
        self.next_round
    }

    /// Accumulated traffic counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The topology the network runs over.
    pub fn topology(&self) -> &Graph {
        &self.topology
    }

    /// Immutable access to process `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn process(&self, i: NodeId) -> &P {
        &self.processes[i]
    }

    /// All processes, in node order.
    pub fn processes(&self) -> &[P] {
        &self.processes
    }

    /// Consumes the network, returning processes and metrics.
    pub fn into_parts(self) -> (Vec<P>, Metrics) {
        (self.processes, self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Outgoing;
    use crate::testkit::{floods, Flood, IdMsg};
    use nectar_graph::gen;

    fn run_flood(g: &Graph, rounds: usize) -> SyncNetwork<Flood> {
        let mut net = SyncNetwork::new(floods(g), g.clone());
        net.run_rounds(rounds);
        net
    }

    #[test]
    fn flooding_covers_a_connected_graph_within_diameter_rounds() {
        let g = gen::path(5);
        let net = run_flood(&g, 4);
        for p in net.processes() {
            assert_eq!(p.known.len(), 5, "node {} should know everyone", p.id);
        }
    }

    #[test]
    fn flooding_respects_partitions() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let net = run_flood(&g, 5);
        assert_eq!(net.process(0).known.len(), 2);
        assert_eq!(net.process(3).known.len(), 2);
    }

    #[test]
    fn messages_take_one_round_per_hop() {
        let g = gen::path(4);
        let net = run_flood(&g, 3);
        // Node 3 learns node 0's id exactly at round 3 (three hops away).
        let p3 = net.process(3);
        let arrival = p3.received.iter().find(|&&(_, _, payload)| payload == 0).unwrap();
        assert_eq!(arrival.0, 3);
        assert_eq!(arrival.1, 2, "must arrive from the intermediate neighbor");
    }

    #[test]
    fn non_neighbor_sends_are_dropped_and_counted() {
        #[derive(Debug)]
        struct Rogue {
            id: usize,
        }
        impl Process for Rogue {
            type Msg = IdMsg;
            fn id(&self) -> usize {
                self.id
            }
            fn send(&mut self, round: usize) -> Vec<Outgoing<IdMsg>> {
                if round == 1 && self.id == 0 {
                    vec![Outgoing::new(2, IdMsg(0)), Outgoing::new(99, IdMsg(0))]
                } else {
                    Vec::new()
                }
            }
            fn receive(&mut self, _round: usize, _from: usize, _msg: IdMsg) {
                panic!("no legal message should arrive");
            }
        }
        // Path 0-1-2: node 0 tries to reach 2 directly, and an absent node.
        let g = gen::path(3);
        let procs = vec![Rogue { id: 0 }, Rogue { id: 1 }, Rogue { id: 2 }];
        let mut net = SyncNetwork::new(procs, g);
        net.run_rounds(1);
        assert_eq!(net.metrics().illegal_sends(), 2);
        assert_eq!(net.metrics().total_bytes_sent(), 0);
    }

    #[test]
    fn metrics_account_wire_bytes() {
        let g = gen::path(3);
        let net = run_flood(&g, 2);
        // Round 1: node 0 sends 1 msg (to 1), node 1 sends 2, node 2 sends 1.
        // Each message is 8 bytes.
        let m = net.metrics();
        assert_eq!(m.bytes_per_round()[0], 8 * 4);
        assert!(m.total_bytes_sent() >= 8 * 4);
        assert_eq!(m.illegal_sends(), 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = gen::cycle(6);
        let a = run_flood(&g, 6);
        let b = run_flood(&g, 6);
        for (pa, pb) in a.processes().iter().zip(b.processes()) {
            assert_eq!(pa.received, pb.received);
        }
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    #[should_panic(expected = "one process per topology node")]
    fn process_count_must_match_topology() {
        let g = gen::path(3);
        let procs = vec![Flood::new(0, &g)];
        let _ = SyncNetwork::new(procs, g);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::testkit::{arb_graph, floods};
    use nectar_graph::traversal;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Flooding over the engine reaches exactly the BFS-reachable set —
        /// the engine neither leaks across partitions nor loses messages.
        #[test]
        fn flood_coverage_equals_reachability(g in arb_graph(9)) {
            let n = g.node_count();
            let mut net = SyncNetwork::new(floods(&g), g.clone());
            net.run_rounds(n);
            for p in net.processes() {
                let reach = traversal::reachable_from(&g, p.id);
                let expected: std::collections::BTreeSet<usize> =
                    (0..n).filter(|&v| reach[v]).collect();
                prop_assert_eq!(&p.known, &expected, "node {}", p.id);
            }
        }

        /// Byte accounting is exact: total bytes equal message count times
        /// the fixed message size of the flood protocol.
        #[test]
        fn metrics_are_internally_consistent(g in arb_graph(8)) {
            let n = g.node_count();
            let mut net = SyncNetwork::new(floods(&g), g.clone());
            net.run_rounds(n);
            let m = net.metrics();
            let total_msgs: u64 = m.msgs_sent().iter().sum();
            prop_assert_eq!(m.total_bytes_sent(), total_msgs * 8);
            let received: u64 = m.bytes_received().iter().sum();
            prop_assert_eq!(m.total_bytes_sent(), received);
            let per_round: u64 = m.bytes_per_round().iter().sum();
            prop_assert_eq!(m.total_bytes_sent(), per_round);
        }
    }
}
