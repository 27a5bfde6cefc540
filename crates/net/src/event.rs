//! Event-driven runtime: every node multiplexed on one event loop.
//!
//! The sync engine ([`crate::sync`]) polls every node every round, long
//! after a large fleet has gone quiet. This runtime polls only what is
//! active: all nodes run as state machines on a single thread, driven by a
//! binary-heap event queue holding three event kinds —
//!
//! * **round ticks** ([`Phase::Send`]): a node is polled for its outgoing
//!   messages at a given round,
//! * **message deliveries** ([`Phase::Deliver`]): one queued message
//!   reaches its destination,
//! * **epoch boundaries** ([`Phase::EpochEnd`]): the run's round horizon,
//!   itself an event, closes the epoch when it surfaces.
//!
//! Cost is `O(active events · log queue)` instead of `O(n · rounds)`:
//! nodes whose [`Process::quiescent`] hint reports an empty outbox are not
//! polled again until a delivery re-activates them, so a 10 000-node
//! NECTAR scenario whose dissemination quiesces after a handful of rounds
//! finishes almost immediately even though the paper's default horizon is
//! `n − 1 = 9 999` rounds.
//!
//! Event ordering reproduces the synchronous model (§II) exactly: all
//! sends of round `R` precede all deliveries of round `R`, deliveries are
//! sorted by destination, then sender, then emission order — the precise
//! order [`crate::sync::SyncNetwork`] uses — so outcomes are bit-identical
//! to every other runtime (the cross-runtime equivalence suite asserts
//! this, metrics included; the contract is `docs/DETERMINISM.md`).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use nectar_graph::Graph;

use crate::metrics::Metrics;
use crate::process::{NodeId, Process, WireSized};

/// What an event does when it surfaces from the queue. Declaration order is
/// scheduling order within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    /// Poll a node for its outgoing messages (a round tick for that node).
    Send,
    /// Deliver one in-flight message to its destination.
    Deliver,
    /// Close the current epoch: the run's round horizon.
    EpochEnd,
}

/// One queued event. Ordered by `(round, phase, node, from, seq)`; `seq` is
/// a global emission counter, so messages from one sender to one
/// destination keep their production order.
struct Event<M> {
    round: usize,
    phase: Phase,
    /// Sending node for [`Phase::Send`], destination for [`Phase::Deliver`].
    node: NodeId,
    /// Sender ([`Phase::Deliver`] only).
    from: NodeId,
    seq: u64,
    /// Payload ([`Phase::Deliver`] only).
    msg: Option<M>,
}

impl<M> Event<M> {
    fn key(&self) -> (usize, Phase, NodeId, NodeId, u64) {
        (self.round, self.phase, self.node, self.from, self.seq)
    }
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// An event-driven network executing one [`Process`] per topology node on a
/// single thread, scheduling only active nodes.
pub struct EventNetwork<P: Process> {
    processes: Vec<P>,
    topology: Graph,
    metrics: Metrics,
    queue: BinaryHeap<Reverse<Event<P::Msg>>>,
    /// Per node, the highest round for which a Send event is already queued
    /// (0 = none), deduplicating activations from multiple deliveries.
    send_scheduled: Vec<usize>,
    seq: u64,
    next_round: usize,
    events_processed: u64,
}

impl<P: Process> std::fmt::Debug for EventNetwork<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventNetwork")
            .field("nodes", &self.processes.len())
            .field("next_round", &self.next_round)
            .field("queued_events", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<P: Process> EventNetwork<P> {
    /// Creates a network over `topology` with one process per node. Every
    /// node receives an initial round-1 tick (round 1 is the announcement
    /// round of every protocol in the tree; from round 2 on, only active
    /// nodes stay scheduled).
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
        let mut net = EventNetwork {
            processes,
            topology,
            metrics: Metrics::new(n),
            queue: BinaryHeap::new(),
            send_scheduled: vec![0; n],
            seq: 0,
            next_round: 1,
            events_processed: 0,
        };
        for i in 0..n {
            net.schedule_send(1, i);
        }
        net
    }

    /// Runs `rounds` further synchronous rounds (or less work than that:
    /// the loop ends as soon as the queue holds nothing but the epoch
    /// boundary, i.e. once every node has quiesced).
    pub fn run_rounds(&mut self, rounds: usize) {
        if rounds == 0 {
            return;
        }
        let horizon = self.next_round + rounds - 1;
        self.queue.push(Reverse(Event {
            round: horizon,
            phase: Phase::EpochEnd,
            node: 0,
            from: 0,
            seq: 0,
            msg: None,
        }));
        while let Some(Reverse(ev)) = self.queue.pop() {
            self.events_processed += 1;
            match ev.phase {
                Phase::Send => self.fire_send(ev.round, ev.node),
                Phase::Deliver => {
                    let msg = ev.msg.expect("deliver events carry a message");
                    self.processes[ev.node].receive(ev.round, ev.from, msg);
                    // A delivery may refill the destination's outbox.
                    self.schedule_send(ev.round + 1, ev.node);
                }
                Phase::EpochEnd => {
                    // The boundary sorts after every send/delivery of the
                    // horizon round.
                    self.next_round = ev.round + 1;
                    return;
                }
            }
        }
        unreachable!("the epoch-boundary event always surfaces");
    }

    /// Polls node `i` for round `round` and queues its deliveries.
    fn fire_send(&mut self, round: usize, i: NodeId) {
        for out in self.processes[i].send(round) {
            if out.to >= self.processes.len() || !self.topology.has_edge(i, out.to) {
                self.metrics.record_illegal_send();
                continue;
            }
            self.metrics.record_send(round, i, out.to, WireSized::wire_bytes(&out.msg));
            self.seq += 1;
            self.queue.push(Reverse(Event {
                round,
                phase: Phase::Deliver,
                node: out.to,
                from: i,
                seq: self.seq,
                msg: Some(out.msg),
            }));
        }
        // Nodes that may still send spontaneously stay on the schedule;
        // quiescent ones wait for a delivery to re-activate them.
        if !self.processes[i].quiescent() {
            self.schedule_send(round + 1, i);
        }
    }

    /// Queues a round tick for node `i`, unless one is already queued.
    fn schedule_send(&mut self, round: usize, i: NodeId) {
        if self.send_scheduled[i] < round {
            self.send_scheduled[i] = round;
            self.queue.push(Reverse(Event {
                round,
                phase: Phase::Send,
                node: i,
                from: 0,
                seq: 0,
                msg: None,
            }));
        }
    }

    /// The round the next [`run_rounds`](Self::run_rounds) call starts at
    /// (1-based).
    pub fn next_round(&self) -> usize {
        self.next_round
    }

    /// Total events processed so far (round ticks + deliveries + epoch
    /// boundaries) — the runtime's actual work, which quiescence keeps far
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
