//! Event-driven runtime: every node multiplexed on one round loop.
//!
//! The sync engine ([`crate::sync`]) polls every node every round, long
//! after a large fleet has gone quiet. This runtime polls only what is
//! active: all nodes run as state machines on a single thread, and each
//! round is committed in three steps —
//!
//! * **poll** the round's active nodes in ascending id, appending every
//!   legal message to one reused delivery vector keyed `(destination,
//!   push index)`,
//! * **sort** that vector in place,
//! * **deliver** it in order; each delivery activates its destination for
//!   the next round.
//!
//! Cost is `O(active nodes + messages · log messages)` per round instead of
//! `O(n)`, and nothing once the active set is empty: nodes whose
//! [`Process::quiescent`] hint reports an empty outbox are not polled again
//! until a delivery re-activates them, so a 10 000-node NECTAR scenario
//! whose dissemination quiesces after a handful of rounds finishes almost
//! immediately even though the paper's default horizon is `n − 1 = 9 999`
//! rounds.
//!
//! The order reproduces the synchronous model (§II) exactly: all sends of
//! round `R` precede all deliveries of round `R`, and since messages are
//! pushed in (sender, emission) order, sorting on `(destination, push
//! index)` delivers by destination, then sender, then emission order — the
//! precise order [`crate::sync::SyncNetwork`] uses — so outcomes are
//! bit-identical to every other runtime (the cross-runtime equivalence
//! suite asserts this, metrics included; the contract is
//! `docs/DETERMINISM.md`).

use nectar_graph::Graph;

use crate::metrics::Metrics;
use crate::process::{NodeId, Process, WireSized};

/// An event-driven network executing one [`Process`] per topology node on a
/// single thread, scheduling only active nodes.
pub struct EventNetwork<P: Process> {
    processes: Vec<P>,
    topology: Graph,
    metrics: Metrics,
    /// The nodes to poll at `next_round`, ascending and distinct.
    active: Vec<NodeId>,
    /// Per node, the highest round it is already scheduled for (0 = none),
    /// deduplicating activations from multiple deliveries.
    scheduled: Vec<usize>,
    /// One round's legal messages keyed `(destination, push index)`; empty
    /// between rounds, kept for its capacity.
    deliveries: Vec<((u32, u32), NodeId, P::Msg)>,
    next_round: usize,
    events_processed: u64,
}

impl<P: Process> std::fmt::Debug for EventNetwork<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventNetwork")
            .field("nodes", &self.processes.len())
            .field("next_round", &self.next_round)
            .field("active", &self.active.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<P: Process> EventNetwork<P> {
    /// Creates a network over `topology` with one process per node. Every
    /// node is active at round 1 (round 1 is the announcement round of
    /// every protocol in the tree; from round 2 on, only active nodes stay
    /// scheduled).
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
        EventNetwork {
            processes,
            topology,
            metrics: Metrics::new(n),
            active: (0..n).collect(),
            scheduled: vec![1; n],
            deliveries: Vec::new(),
            next_round: 1,
            events_processed: 0,
        }
    }

    /// Runs `rounds` further synchronous rounds (or less work than that:
    /// once every node has quiesced, the run jumps to the horizon).
    pub fn run_rounds(&mut self, rounds: usize) {
        if rounds == 0 {
            return;
        }
        let horizon = self.next_round + rounds;
        while self.next_round < horizon && !self.active.is_empty() {
            self.step();
        }
        self.next_round = horizon;
        // The epoch boundary counts as one event.
        self.events_processed += 1;
    }

    /// Commits one round: polls the active nodes, then delivers their
    /// messages in canonical order.
    fn step(&mut self) {
        let round = self.next_round;
        self.next_round += 1;
        let polled = std::mem::take(&mut self.active);
        for &i in &polled {
            self.events_processed += 1;
            for out in self.processes[i].send(round) {
                if out.to >= self.processes.len() || !self.topology.has_edge(i, out.to) {
                    self.metrics.record_illegal_send();
                    continue;
                }
                self.metrics.record_send(round, i, out.to, WireSized::wire_bytes(&out.msg));
                // Both fit: ids are below the node count, and a round's
                // messages number far fewer than 2^32.
                let key = (out.to as u32, self.deliveries.len() as u32);
                self.deliveries.push((key, i, out.msg));
            }
            // Nodes that may still send spontaneously stay on the schedule;
            // quiescent ones wait for a delivery to re-activate them.
            if !self.processes[i].quiescent() {
                self.schedule(round + 1, i);
            }
        }
        let mut deliveries = std::mem::take(&mut self.deliveries);
        deliveries.sort_unstable_by_key(|&(key, _, _)| key);
        for ((to, _), from, msg) in deliveries.drain(..) {
            let to = to as NodeId;
            self.events_processed += 1;
            self.processes[to].receive(round, from, msg);
            // A delivery may refill the destination's outbox.
            self.schedule(round + 1, to);
        }
        self.deliveries = deliveries;
        self.active.sort_unstable();
    }

    /// Activates node `i` for `round`, unless it already is.
    fn schedule(&mut self, round: usize, i: NodeId) {
        if self.scheduled[i] < round {
            self.scheduled[i] = round;
            self.active.push(i);
        }
    }

    /// The round the next [`run_rounds`](Self::run_rounds) call starts at
    /// (1-based).
    pub fn next_round(&self) -> usize {
        self.next_round
    }

    /// Total events processed so far (polls + deliveries + one per epoch
    /// boundary) — the runtime's actual work, which quiescence keeps far
    /// below `n · rounds` on workloads that settle early.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
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

/// Runs `rounds` synchronous rounds of the given processes over `topology`
/// on the event-driven runtime. Returns the processes (in node order) and
/// the traffic metrics — the same result as
/// [`SyncNetwork`](crate::sync::SyncNetwork), with `O(active events)`
/// scheduling instead of polling every node every round.
///
/// # Panics
///
/// Panics unless `processes[i].id() == i` for every `i` and the process
/// count equals the topology's node count.
pub fn run_event_driven<P: Process>(
    processes: Vec<P>,
    topology: &Graph,
    rounds: usize,
) -> (Vec<P>, Metrics) {
    let mut net = EventNetwork::new(processes, topology.clone());
    net.run_rounds(rounds);
    net.into_parts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Outgoing;
    use crate::sync::SyncNetwork;
    use crate::testkit::{floods, Flood, IdMsg};
    use nectar_graph::gen;

    #[test]
    fn event_flooding_covers_connected_graph() {
        let g = gen::cycle(8);
        let (procs, metrics) = run_event_driven(floods(&g), &g, 7);
        for p in &procs {
            assert_eq!(p.known.len(), 8, "node {}", p.id);
        }
        assert!(metrics.total_bytes_sent() > 0);
        assert_eq!(metrics.illegal_sends(), 0);
    }

    #[test]
    fn event_equals_sync_engine_bit_for_bit() {
        let g = gen::harary(4, 12).unwrap();
        let mut sync_net = SyncNetwork::new(floods(&g), g.clone());
        sync_net.run_rounds(11);
        let (event_procs, event_metrics) = run_event_driven(floods(&g), &g, 11);
        for (a, b) in sync_net.processes().iter().zip(&event_procs) {
            assert_eq!(a.known, b.known);
        }
        assert_eq!(sync_net.metrics(), &event_metrics);
    }

    #[test]
    fn quiescent_nodes_cost_no_events() {
        // A 40-node path floods in ~40 rounds; after that the system is
        // silent. Running 10 000 rounds must cost O(flood) events, not
        // O(n · rounds) polls — the whole point of the runtime.
        let g = gen::path(40);
        let mut net = EventNetwork::new(floods(&g), g.clone());
        net.run_rounds(10_000);
        for p in net.processes() {
            assert_eq!(p.known.len(), 40);
        }
        assert!(
            net.events_processed() < 10_000,
            "{} events for a workload that quiesces after ~40 rounds",
            net.events_processed()
        );
    }

    #[test]
    fn spontaneous_senders_are_polled_every_round() {
        /// Sends one beacon at round 5 only — with no prior receive. The
        /// default (conservative) quiescence hint must keep it scheduled.
        #[derive(Debug)]
        struct TimeBomb {
            id: usize,
            got: usize,
        }
        impl Process for TimeBomb {
            type Msg = IdMsg;
            fn id(&self) -> usize {
                self.id
            }
            fn send(&mut self, round: usize) -> Vec<Outgoing<IdMsg>> {
                if round == 5 {
                    vec![Outgoing::new(1 - self.id, IdMsg(self.id))]
                } else {
                    Vec::new()
                }
            }
            fn receive(&mut self, _round: usize, _from: usize, _msg: IdMsg) {
                self.got += 1;
            }
        }
        let g = gen::path(2);
        let (procs, metrics) =
            run_event_driven(vec![TimeBomb { id: 0, got: 0 }, TimeBomb { id: 1, got: 0 }], &g, 6);
        assert_eq!(procs[0].got, 1);
        assert_eq!(procs[1].got, 1);
        assert_eq!(metrics.total_bytes_sent(), 16);
    }

    #[test]
    fn run_rounds_can_resume_across_epochs() {
        // Two epochs of 3 rounds each equal one run of 6 rounds: the
        // epoch-boundary event closes the first epoch without losing the
        // still-scheduled activations.
        let g = gen::path(6);
        let mut split = EventNetwork::new(floods(&g), g.clone());
        split.run_rounds(3);
        assert_eq!(split.next_round(), 4);
        split.run_rounds(3);
        let mut whole = EventNetwork::new(floods(&g), g.clone());
        whole.run_rounds(6);
        for (a, b) in split.processes().iter().zip(whole.processes()) {
            assert_eq!(a.known, b.known);
        }
        assert_eq!(split.metrics(), whole.metrics());
    }

    /// `path(3)` flooded to quiescence, counted by hand: polls + deliveries
    /// per round are 3 + 4, 3 + 6, 3 + 2 and 1 + 0 (round 3 reaches only
    /// node 1, which is polled once more and has nothing new to send).
    const PATH3_FLOOD_EVENTS: u64 = 22;

    #[test]
    fn events_processed_counts_polls_deliveries_and_boundaries() {
        let g = gen::path(3);
        let mut whole = EventNetwork::new(floods(&g), g.clone());
        whole.run_rounds(10);
        assert_eq!(whole.events_processed(), PATH3_FLOOD_EVENTS + 1);
        assert_eq!(whole.next_round(), 11);

        // Split after round 2 (3 + 4 + 3 + 6 events): two boundaries.
        let mut split = EventNetwork::new(floods(&g), g.clone());
        split.run_rounds(2);
        assert_eq!(split.events_processed(), 16 + 1);
        split.run_rounds(8);
        assert_eq!(split.events_processed(), PATH3_FLOOD_EVENTS + 2);
        assert_eq!(split.next_round(), 11);
        assert_eq!(split.metrics(), whole.metrics());
    }

    #[test]
    fn zero_rounds_is_a_no_op_and_a_quiesced_network_jumps_to_the_horizon() {
        let g = gen::path(3);
        let mut net = EventNetwork::new(floods(&g), g.clone());
        net.run_rounds(0);
        assert_eq!((net.next_round(), net.events_processed()), (1, 0));
        net.run_rounds(4);
        assert_eq!((net.next_round(), net.events_processed()), (5, PATH3_FLOOD_EVENTS + 1));
        net.run_rounds(0);
        assert_eq!((net.next_round(), net.events_processed()), (5, PATH3_FLOOD_EVENTS + 1));
        // Nothing is active: a million rounds poll nothing and deliver
        // nothing, and cost only the boundary.
        let metrics = net.metrics().clone();
        net.run_rounds(1_000_000);
        assert_eq!(net.next_round(), 1_000_005);
        assert_eq!(net.events_processed(), PATH3_FLOOD_EVENTS + 2);
        assert_eq!(net.metrics(), &metrics);
    }

    #[test]
    fn bursts_arrive_by_destination_then_sender_then_emission() {
        /// Sends `BURST` messages to every neighbour in each of rounds 1
        /// and 2, interleaved across destinations, and logs every arrival.
        #[derive(Debug)]
        struct Burst {
            id: usize,
            neighbors: Vec<usize>,
            got: Vec<(usize, usize, usize)>,
        }
        const BURST: usize = 6;
        impl Process for Burst {
            type Msg = IdMsg;
            fn id(&self) -> usize {
                self.id
            }
            fn send(&mut self, round: usize) -> Vec<Outgoing<IdMsg>> {
                if round > 2 {
                    return Vec::new();
                }
                (0..BURST)
                    .flat_map(|k| self.neighbors.iter().map(move |&to| Outgoing::new(to, IdMsg(k))))
                    .collect()
            }
            fn receive(&mut self, round: usize, from: usize, msg: IdMsg) {
                self.got.push((round, from, msg.0));
            }
        }
        let g = gen::complete(8);
        let bursts = || -> Vec<Burst> {
            (0..8).map(|id| Burst { id, neighbors: g.neighborhood(id), got: Vec::new() }).collect()
        };
        let mut sync_net = SyncNetwork::new(bursts(), g.clone());
        sync_net.run_rounds(3);
        let (procs, metrics) = run_event_driven(bursts(), &g, 3);
        for (p, reference) in procs.iter().zip(sync_net.processes()) {
            let expected: Vec<_> = (1..=2)
                .flat_map(|round| {
                    (0..8)
                        .filter(move |&from| from != p.id)
                        .flat_map(move |from| (0..BURST).map(move |k| (round, from, k)))
                })
                .collect();
            assert_eq!(p.got, expected, "node {}", p.id);
            assert_eq!(p.got, reference.got, "node {}", p.id);
        }
        assert_eq!(&metrics, sync_net.metrics());
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
            fn quiescent(&self) -> bool {
                true
            }
        }
        let g = gen::path(3);
        let (_, metrics) =
            run_event_driven(vec![Rogue { id: 0 }, Rogue { id: 1 }, Rogue { id: 2 }], &g, 2);
        assert_eq!(metrics.illegal_sends(), 2);
        assert_eq!(metrics.total_bytes_sent(), 0);
    }

    #[test]
    fn empty_system_is_a_no_op() {
        let g = Graph::empty(0);
        let (procs, metrics) = run_event_driven(Vec::<Flood>::new(), &g, 3);
        assert!(procs.is_empty());
        assert_eq!(metrics.total_bytes_sent(), 0);
    }

    #[test]
    fn single_node_runs_without_peers() {
        let g = Graph::empty(1);
        let (procs, metrics) = run_event_driven(vec![Flood::new(0, &g)], &g, 2);
        assert_eq!(procs[0].known.len(), 1);
        assert_eq!(metrics.total_bytes_sent(), 0);
    }

    #[test]
    #[should_panic(expected = "one process per topology node")]
    fn process_count_must_match_topology() {
        let g = gen::path(3);
        let _ = EventNetwork::new(vec![Flood::new(0, &g)], g);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::sync::SyncNetwork;
    use crate::testkit::{arb_graph, floods};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The event loop reproduces the synchronous engine *exactly*:
        /// same receptions (round, sender, payload, order) and equal
        /// metrics on arbitrary topologies.
        #[test]
        fn event_and_sync_trajectories_are_identical(g in arb_graph(9)) {
            let n = g.node_count();
            let mut sync_net = SyncNetwork::new(floods(&g), g.clone());
            sync_net.run_rounds(n);
            let (event_procs, event_metrics) = run_event_driven(floods(&g), &g, n);
            for (a, b) in sync_net.processes().iter().zip(&event_procs) {
                prop_assert_eq!(&a.received, &b.received, "node {}", a.id);
                prop_assert_eq!(&a.known, &b.known);
            }
            prop_assert_eq!(sync_net.metrics(), &event_metrics);
        }
    }
}
