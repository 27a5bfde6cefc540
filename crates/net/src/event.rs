//! Event-driven runtime: every node multiplexed on one round loop,
//! optionally fanned out over worker threads.
//!
//! The sync engine ([`crate::sync`]) polls every node every round, long
//! after a large fleet has gone quiet. This runtime polls only what is
//! active, and commits each round in three steps —
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
//!
//! [`EventNetwork::with_workers`] runs the same round on a work-stealing
//! pool ([`parallel_map`]): the polls fan out one node per task and are
//! committed on one thread in ascending order, through the same legality,
//! metrics and push code; the sorted vector is then split into one run per
//! destination and the runs fan out. No delivery starts before every send
//! of the round is committed, and each node still receives its messages in
//! canonical order, so the worker count changes wall-clock only.

use nectar_graph::Graph;

use crate::metrics::Metrics;
use crate::parallel::{parallel_map, resolve_workers};
use crate::process::{NodeId, Outgoing, Process, WireSized};

/// An event-driven network executing one [`Process`] per topology node,
/// scheduling only active nodes.
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
    /// Worker threads a round fans out over (1 = the caller's thread).
    workers: usize,
    /// Commits one round: `step`, or `step_fanned` when built with more
    /// than one worker.
    step: fn(&mut EventNetwork<P>),
}

impl<P: Process> std::fmt::Debug for EventNetwork<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventNetwork")
            .field("nodes", &self.processes.len())
            .field("workers", &self.workers)
            .field("next_round", &self.next_round)
            .field("active", &self.active.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<P: Process> EventNetwork<P> {
    /// Creates a network over `topology` with one process per node, running
    /// on the caller's thread. Every node is active at round 1 (round 1 is
    /// the announcement round of every protocol in the tree; from round 2
    /// on, only active nodes stay scheduled).
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
            workers: 1,
            step: Self::step,
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
            (self.step)(self);
        }
        self.next_round = horizon;
        // The epoch boundary counts as one event.
        self.events_processed += 1;
    }

    /// Commits one round on the caller's thread: polls the active nodes,
    /// streaming each one's messages into the delivery vector, then
    /// delivers them in canonical order.
    fn step(&mut self) {
        let (round, polled) = self.open_round();
        for &i in &polled {
            let out = self.processes[i].send(round);
            let quiescent = self.processes[i].quiescent();
            self.commit_poll(round, i, out, quiescent);
        }
        let mut deliveries = self.sorted_deliveries();
        for ((to, _), from, msg) in deliveries.drain(..) {
            let to = to as NodeId;
            self.events_processed += 1;
            self.processes[to].receive(round, from, msg);
            // A delivery may refill the destination's outbox.
            self.schedule(round + 1, to);
        }
        self.close_round(deliveries);
    }

    /// Advances the round counter and takes the round's active list.
    fn open_round(&mut self) -> (usize, Vec<NodeId>) {
        let round = self.next_round;
        self.next_round += 1;
        (round, std::mem::take(&mut self.active))
    }

    /// Commits node `i`'s poll of `round`: legality checks, metrics and the
    /// delivery push for each message in emission order, then the node's
    /// place on the next round's schedule.
    fn commit_poll(
        &mut self,
        round: usize,
        i: NodeId,
        out: Vec<Outgoing<P::Msg>>,
        quiescent: bool,
    ) {
        self.events_processed += 1;
        for out in out {
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
        if !quiescent {
            self.schedule(round + 1, i);
        }
    }

    /// Takes the round's delivery vector, sorted into canonical order.
    fn sorted_deliveries(&mut self) -> Vec<((u32, u32), NodeId, P::Msg)> {
        let mut deliveries = std::mem::take(&mut self.deliveries);
        deliveries.sort_unstable_by_key(|&(key, _, _)| key);
        deliveries
    }

    /// Hands the drained delivery vector back for reuse and orders the
    /// next round's active list.
    fn close_round(&mut self, drained: Vec<((u32, u32), NodeId, P::Msg)>) {
        self.deliveries = drained;
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

impl<P> EventNetwork<P>
where
    P: Process + Send,
    P::Msg: Send,
{
    /// [`new`](Self::new), with every round fanned out over `workers`
    /// worker threads (`0` = match the machine, see [`resolve_workers`]).
    /// Results and event counts are identical at every worker count; at
    /// one worker this is exactly [`new`](Self::new).
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn with_workers(processes: Vec<P>, topology: Graph, workers: usize) -> Self {
        let mut net = Self::new(processes, topology);
        net.workers = resolve_workers(workers);
        if net.workers > 1 {
            net.step = Self::step_fanned;
        }
        net
    }

    /// [`step`](Self::step) on the worker pool. Each task polls one active
    /// node (`send`, then `quiescent`); the batches are committed here in
    /// ascending node order. The sorted vector is then cut into one run per
    /// destination, the runs are received in parallel, and the
    /// destinations are scheduled afterwards in ascending order.
    fn step_fanned(&mut self) {
        let (round, polled) = self.open_round();
        let produced = parallel_map(pick_mut(&mut self.processes, &polled), self.workers, |p| {
            let out = p.send(round);
            (out, p.quiescent())
        });
        for (&i, (out, quiescent)) in polled.iter().zip(produced) {
            self.commit_poll(round, i, out, quiescent);
        }
        let mut deliveries = self.sorted_deliveries();
        self.events_processed += deliveries.len() as u64;
        let (destinations, lengths): (Vec<NodeId>, Vec<usize>) = deliveries
            .chunk_by(|a, b| a.0 .0 == b.0 .0)
            .map(|run| (run[0].0 .0 as NodeId, run.len()))
            .unzip();
        let mut drained = deliveries.drain(..).map(|(_, from, msg)| (from, msg));
        let tasks: Vec<_> = pick_mut(&mut self.processes, &destinations)
            .into_iter()
            .zip(lengths)
            .map(|(p, len)| (p, drained.by_ref().take(len).collect::<Vec<_>>()))
            .collect();
        drop(drained);
        parallel_map(tasks, self.workers, |(p, run)| {
            for (from, msg) in run {
                p.receive(round, from, msg);
            }
        });
        for &to in &destinations {
            self.schedule(round + 1, to);
        }
        self.close_round(deliveries);
    }
}

/// Disjoint mutable borrows of `items` at `ids`, which must be ascending,
/// distinct and in range.
fn pick_mut<'a, P>(mut rest: &'a mut [P], ids: &[NodeId]) -> Vec<&'a mut P> {
    let mut offset = 0;
    ids.iter()
        .map(|&i| {
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(i - offset);
            let (picked, tail) = tail.split_first_mut().expect("id in range");
            rest = tail;
            offset = i + 1;
            picked
        })
        .collect()
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
pub(crate) mod tests {
    use super::*;
    use crate::sync::SyncNetwork;
    use crate::testkit::{floods, Flood, IdMsg};
    use nectar_graph::gen;

    /// The tests defined only here run the inline loop and the fanned one.
    /// The `*_at` checks run here at one worker, and `parallel::tests`
    /// runs them fanned.
    pub(super) const WORKERS: [usize; 3] = [1, 2, 3];

    /// [`run_event_driven`] at `workers` worker threads.
    pub(crate) fn run<P>(
        procs: Vec<P>,
        g: &Graph,
        rounds: usize,
        workers: usize,
    ) -> (Vec<P>, Metrics)
    where
        P: Process + Send,
        P::Msg: Send,
    {
        let mut net = EventNetwork::with_workers(procs, g.clone(), workers);
        net.run_rounds(rounds);
        net.into_parts()
    }

    pub(crate) fn flooding_covers_connected_graph_at(workers: usize) {
        let g = gen::cycle(8);
        let (procs, metrics) = run(floods(&g), &g, 7, workers);
        for p in &procs {
            assert_eq!(p.known.len(), 8, "node {} at {workers} workers", p.id);
        }
        assert!(metrics.total_bytes_sent() > 0);
        assert_eq!(metrics.illegal_sends(), 0);
    }

    #[test]
    fn event_flooding_covers_connected_graph() {
        flooding_covers_connected_graph_at(1);
    }

    pub(crate) fn equals_sync_engine_bit_for_bit_at(workers: &[usize]) {
        // 40 nodes: enough polls and destinations per round that the
        // fanned rounds really spread over the pool.
        let g = gen::harary(4, 40).unwrap();
        let mut sync_net = SyncNetwork::new(floods(&g), g.clone());
        sync_net.run_rounds(39);
        for &workers in workers {
            let (procs, metrics) = run(floods(&g), &g, 39, workers);
            for (a, b) in sync_net.processes().iter().zip(&procs) {
                assert_eq!(a.received, b.received, "node {} at {workers} workers", a.id);
                assert_eq!(a.known, b.known);
            }
            assert_eq!(sync_net.metrics(), &metrics, "{workers} workers");
        }
    }

    #[test]
    fn event_equals_sync_engine_bit_for_bit() {
        equals_sync_engine_bit_for_bit_at(&[1]);
    }

    pub(crate) fn quiescent_nodes_cost_no_events_at(workers: usize) {
        // A 40-node path floods in ~40 rounds; after that the system is
        // silent. Running 10 000 rounds must cost O(flood) events, not
        // O(n · rounds) polls — the whole point of the runtime.
        let g = gen::path(40);
        let mut net = EventNetwork::with_workers(floods(&g), g.clone(), workers);
        net.run_rounds(10_000);
        for p in net.processes() {
            assert_eq!(p.known.len(), 40);
        }
        assert_eq!(net.next_round(), 10_001);
        assert!(
            net.events_processed() < 10_000,
            "{} events at {workers} workers for a workload that quiesces after ~40 rounds",
            net.events_processed()
        );
    }

    #[test]
    fn quiescent_nodes_cost_no_events() {
        quiescent_nodes_cost_no_events_at(1);
    }

    pub(crate) fn spontaneous_senders_are_polled_every_round_at(workers: usize) {
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
        let bombs = vec![TimeBomb { id: 0, got: 0 }, TimeBomb { id: 1, got: 0 }];
        let (procs, metrics) = run(bombs, &g, 6, workers);
        assert_eq!(procs[0].got, 1, "{workers} workers");
        assert_eq!(procs[1].got, 1);
        assert_eq!(metrics.total_bytes_sent(), 16);
    }

    #[test]
    fn spontaneous_senders_are_polled_every_round() {
        spontaneous_senders_are_polled_every_round_at(1);
    }

    pub(crate) fn run_rounds_can_resume_across_epochs_at(workers: usize) {
        // Two epochs of 3 rounds each equal one run of 6 rounds: the
        // epoch-boundary event closes the first epoch without losing the
        // still-scheduled activations.
        let g = gen::path(6);
        let mut split = EventNetwork::with_workers(floods(&g), g.clone(), workers);
        split.run_rounds(3);
        assert_eq!(split.next_round(), 4);
        split.run_rounds(3);
        let mut whole = EventNetwork::with_workers(floods(&g), g.clone(), workers);
        whole.run_rounds(6);
        for (a, b) in split.processes().iter().zip(whole.processes()) {
            assert_eq!(a.known, b.known, "{workers} workers");
        }
        assert_eq!(split.metrics(), whole.metrics());
    }

    #[test]
    fn run_rounds_can_resume_across_epochs() {
        run_rounds_can_resume_across_epochs_at(1);
    }

    /// `path(3)` flooded to quiescence, counted by hand: polls + deliveries
    /// per round are 3 + 4, 3 + 6, 3 + 2 and 1 + 0 (round 3 reaches only
    /// node 1, which is polled once more and has nothing new to send).
    const PATH3_FLOOD_EVENTS: u64 = 22;

    #[test]
    fn events_processed_counts_polls_deliveries_and_boundaries() {
        let g = gen::path(3);
        for workers in WORKERS {
            let mut whole = EventNetwork::with_workers(floods(&g), g.clone(), workers);
            whole.run_rounds(10);
            assert_eq!(whole.events_processed(), PATH3_FLOOD_EVENTS + 1);
            assert_eq!(whole.next_round(), 11);

            // Split after round 2 (3 + 4 + 3 + 6 events): two boundaries.
            let mut split = EventNetwork::with_workers(floods(&g), g.clone(), workers);
            split.run_rounds(2);
            assert_eq!(split.events_processed(), 16 + 1);
            split.run_rounds(8);
            assert_eq!(split.events_processed(), PATH3_FLOOD_EVENTS + 2);
            assert_eq!(split.next_round(), 11);
            assert_eq!(split.metrics(), whole.metrics());
        }
    }

    #[test]
    fn zero_rounds_is_a_no_op_and_a_quiesced_network_jumps_to_the_horizon() {
        let g = gen::path(3);
        for workers in WORKERS {
            let mut net = EventNetwork::with_workers(floods(&g), g.clone(), workers);
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
        for workers in WORKERS {
            let (procs, metrics) = run(bursts(), &g, 3, workers);
            for (p, reference) in procs.iter().zip(sync_net.processes()) {
                let expected: Vec<_> = (1..=2)
                    .flat_map(|round| {
                        (0..8)
                            .filter(move |&from| from != p.id)
                            .flat_map(move |from| (0..BURST).map(move |k| (round, from, k)))
                    })
                    .collect();
                assert_eq!(p.got, expected, "node {} at {workers} workers", p.id);
                assert_eq!(p.got, reference.got, "node {} at {workers} workers", p.id);
            }
            assert_eq!(&metrics, sync_net.metrics());
        }
    }

    pub(crate) fn non_neighbor_sends_are_dropped_and_counted_at(workers: usize) {
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
        let rogues = vec![Rogue { id: 0 }, Rogue { id: 1 }, Rogue { id: 2 }];
        let (_, metrics) = run(rogues, &g, 2, workers);
        assert_eq!(metrics.illegal_sends(), 2, "{workers} workers");
        assert_eq!(metrics.total_bytes_sent(), 0);
    }

    #[test]
    fn non_neighbor_sends_are_dropped_and_counted() {
        non_neighbor_sends_are_dropped_and_counted_at(1);
    }

    pub(crate) fn empty_system_is_a_no_op_at(workers: usize) {
        let g = Graph::empty(0);
        let (procs, metrics) = run(Vec::<Flood>::new(), &g, 3, workers);
        assert!(procs.is_empty());
        assert_eq!(metrics.total_bytes_sent(), 0);
    }

    #[test]
    fn empty_system_is_a_no_op() {
        empty_system_is_a_no_op_at(1);
    }

    pub(crate) fn single_node_runs_without_peers_at(workers: usize) {
        let g = Graph::empty(1);
        let (procs, metrics) = run(vec![Flood::new(0, &g)], &g, 2, workers);
        assert_eq!(procs[0].known.len(), 1);
        assert_eq!(metrics.total_bytes_sent(), 0);
    }

    #[test]
    fn single_node_runs_without_peers() {
        single_node_runs_without_peers_at(1);
    }

    #[test]
    #[should_panic(expected = "one process per topology node")]
    fn process_count_must_match_topology() {
        let g = gen::path(3);
        let _ = EventNetwork::new(vec![Flood::new(0, &g)], g);
    }

    #[test]
    fn both_phases_run_on_several_threads_with_unchanged_events() {
        use std::collections::HashSet;
        use std::thread::ThreadId;

        /// A flood node that records the thread of every poll and delivery.
        #[derive(Debug)]
        struct Traced {
            flood: Flood,
            senders: HashSet<ThreadId>,
            receivers: HashSet<ThreadId>,
        }
        impl Process for Traced {
            type Msg = IdMsg;
            fn id(&self) -> usize {
                self.flood.id
            }
            fn send(&mut self, round: usize) -> Vec<Outgoing<IdMsg>> {
                self.senders.insert(std::thread::current().id());
                self.flood.send(round)
            }
            fn receive(&mut self, round: usize, from: usize, msg: IdMsg) {
                self.receivers.insert(std::thread::current().id());
                self.flood.receive(round, from, msg);
            }
            fn quiescent(&self) -> bool {
                self.flood.quiescent()
            }
        }
        // 64 nodes: every round's polls and destinations are past the
        // pool's inline threshold.
        let g = gen::harary(4, 64).unwrap();
        let traced = || -> Vec<Traced> {
            floods(&g)
                .into_iter()
                .map(|flood| Traced { flood, senders: HashSet::new(), receivers: HashSet::new() })
                .collect()
        };
        let events = |workers| {
            let mut net = EventNetwork::with_workers(traced(), g.clone(), workers);
            net.run_rounds(63);
            net
        };
        let inline = events(1);
        let fanned = events(2);
        let threads = |phase: fn(&Traced) -> &HashSet<ThreadId>| {
            fanned.processes().iter().flat_map(phase).collect::<HashSet<_>>().len()
        };
        assert!(threads(|p| &p.senders) >= 2, "polls ran on one thread");
        assert!(threads(|p| &p.receivers) >= 2, "deliveries ran on one thread");
        for workers in [2, 3, 7] {
            let net = events(workers);
            assert_eq!(net.events_processed(), inline.events_processed(), "{workers} workers");
            assert_eq!(net.metrics(), inline.metrics(), "{workers} workers");
        }
    }
}

#[cfg(test)]
pub(crate) mod proptests {
    use super::tests::run;
    use crate::sync::SyncNetwork;
    use crate::testkit::{arb_graph, floods};
    use nectar_graph::Graph;
    use proptest::prelude::*;

    /// The event loop at `workers` reproduces the synchronous engine
    /// *exactly*: same receptions (round, sender, payload, order) and equal
    /// metrics. `parallel::proptests` runs it fanned.
    pub(crate) fn trajectories_match_sync(g: &Graph, workers: usize) -> Result<(), TestCaseError> {
        let n = g.node_count();
        let mut sync_net = SyncNetwork::new(floods(g), g.clone());
        sync_net.run_rounds(n);
        let (event_procs, event_metrics) = run(floods(g), g, n, workers);
        for (a, b) in sync_net.processes().iter().zip(&event_procs) {
            prop_assert_eq!(&a.received, &b.received, "node {} at {} workers", a.id, workers);
            prop_assert_eq!(&a.known, &b.known);
        }
        prop_assert_eq!(sync_net.metrics(), &event_metrics);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn event_and_sync_trajectories_are_identical(g in arb_graph(9)) {
            trajectories_match_sync(&g, 1)?;
        }
    }
}
