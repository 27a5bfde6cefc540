//! Deterministic parallel runtime: a work-stealing worker pool over
//! round-committed execution.
//!
//! The event runtime ([`crate::event`]) removed the thread-per-node ceiling
//! but still runs every poll and delivery on one thread. This runtime keeps
//! the event runtime's `O(active nodes)` scheduling (the same
//! [`Process::quiescent`] hint decides who is polled) and adds real
//! parallelism without giving up bit-identical outcomes. Each round executes
//! in two deterministic phases:
//!
//! 1. **Send** — the round's active nodes are fanned out across a
//!    work-stealing worker pool ([`parallel_map`]): every worker polls
//!    [`Process::send`] on the nodes it pops (or steals), producing each
//!    node's outgoing batch independently. Polling order across workers is
//!    arbitrary — which is safe precisely because nothing is delivered yet.
//! 2. **Commit** — a single thread merges the produced batches back into the
//!    canonical synchronous order (ascending sender, emission order within a
//!    sender), applies the topology legality checks and metrics accounting
//!    in that order, and groups deliveries by destination. Only then are the
//!    per-destination inboxes — each internally in (sender, emission) order,
//!    exactly [`crate::sync::SyncNetwork`]'s delivery order — fanned back
//!    out across the pool, one worker task per destination.
//!
//! The commit step is the round barrier that makes parallelism invisible:
//! no message is received while sends of the same round are still being
//! produced, and every process observes the identical per-round reception
//! sequence it would observe under the sync engine. The full contract (and
//! what any new runtime must uphold) is documented in the repository's
//! `docs/DETERMINISM.md`.
//!
//! Worker counts do not affect results, only wall-clock: the cross-runtime
//! equivalence suite runs the same scenarios at several worker counts and
//! asserts outcomes (metrics and oracle counters included) are bit-identical
//! to sync/event.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

use nectar_graph::Graph;

use crate::metrics::Metrics;
use crate::process::{NodeId, Process, WireSized};

/// Resolves a requested worker count: `0` means "match the machine"
/// (`std::thread::available_parallelism`, 1 if unknown); any other value is
/// taken as-is. Results never depend on the resolution — only wall-clock.
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        workers
    }
}

/// Batches below this size run inline: spawning a pool costs more than the
/// work it would spread.
const INLINE_BATCH: usize = 32;

/// How many tasks a worker moves per lock acquisition — from its own deque
/// or a victim's. Amortizes locking (and, on oversubscribed machines, the
/// context switches that lock hand-offs trigger) without hurting balance:
/// a straggler's remaining work is still stolen half a backlog at a time.
const GRAB_BATCH: usize = 256;

/// Order-preserving parallel map over a work-stealing worker pool.
///
/// Items are dealt into one deque per worker; each worker drains its own
/// deque from the front (in [`GRAB_BATCH`]-sized grabs, so locking is
/// amortized) and, when empty, steals half of a victim's remaining tasks
/// from the back — so an uneven workload (one expensive node among
/// thousands of cheap ones) still keeps every worker busy. The output
/// vector is in input order regardless of which worker executed which item,
/// which is what lets the parallel runtime treat this as a drop-in `map`.
///
/// With `workers <= 1` (or a batch too small to amortize thread spawn) the
/// map runs inline on the caller's thread — same results, no pool.
///
/// # Panics
///
/// Propagates panics from `f` (the pool is joined before unwinding).
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = resolve_workers(workers).min(items.len().max(1));
    if workers <= 1 || items.len() < INLINE_BATCH {
        return items.into_iter().map(f).collect();
    }

    // Deal contiguous chunks so workers start on disjoint cache-friendly
    // ranges; stealing rebalances from the far end of a victim's range.
    let total = items.len();
    let chunk = total.div_ceil(workers);
    let deques: Vec<Mutex<VecDeque<(usize, T)>>> = {
        let mut iter = items.into_iter().enumerate();
        (0..workers)
            .map(|_| Mutex::new(iter.by_ref().take(chunk).collect::<VecDeque<_>>()))
            .collect()
    };

    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(total);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let deques = &deques;
                let f = &f;
                s.spawn(move || {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    let mut grabbed: Vec<(usize, T)> = Vec::with_capacity(GRAB_BATCH);
                    loop {
                        // Own work first (front)... (Poison is ignored
                        // here and below: no step of a drain can tear a
                        // deque, and a worker's panic resurfaces at join.)
                        {
                            let mut own = deques[w].lock().unwrap_or_else(PoisonError::into_inner);
                            let take = own.len().min(GRAB_BATCH);
                            grabbed.extend(own.drain(..take));
                        }
                        // ...then steal half a victim's backlog (back).
                        if grabbed.is_empty() {
                            for victim in (1..deques.len()).map(|d| (w + d) % deques.len()) {
                                let mut v =
                                    deques[victim].lock().unwrap_or_else(PoisonError::into_inner);
                                let len = v.len();
                                if len > 0 {
                                    let take = (len / 2).max(1).min(GRAB_BATCH);
                                    grabbed.extend(v.drain(len - take..));
                                    break;
                                }
                            }
                        }
                        if grabbed.is_empty() {
                            // No task anywhere: nothing re-enqueues during a
                            // phase, so the pool is drained for good.
                            break;
                        }
                        out.extend(grabbed.drain(..).map(|(idx, item)| (idx, f(item))));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            indexed.extend(h.join().expect("parallel_map worker panicked"));
        }
    });

    indexed.sort_unstable_by_key(|&(idx, _)| idx);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// A parallel network executing one [`Process`] per topology node on a
/// work-stealing worker pool, committing deliveries once per round.
///
/// Processes are boxed internally so checking a node out to a worker (and
/// sorting results back into node order) moves one pointer, not the whole
/// protocol state — with 10 000 nodes in flight per phase, that is the
/// difference between memcpy-bound and work-bound scheduling.
pub struct ParallelNetwork<P: Process> {
    /// `None` only transiently, while a node is checked out to a worker.
    slots: Vec<Option<Box<P>>>,
    topology: Graph,
    metrics: Metrics,
    workers: usize,
    /// Nodes to poll at `next_round` (quiescent nodes leave the schedule
    /// until a delivery re-activates them, as in the event runtime).
    active: Vec<bool>,
    /// Per-destination inbox buffers, indexed by node; emptied every round.
    inboxes: Vec<Vec<(NodeId, P::Msg)>>,
    next_round: usize,
    /// Send polls actually performed — the runtime's work, kept far below
    /// `n · rounds` by quiescence.
    polls: u64,
}

impl<P: Process> std::fmt::Debug for ParallelNetwork<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelNetwork")
            .field("nodes", &self.slots.len())
            .field("workers", &self.workers)
            .field("next_round", &self.next_round)
            .field("polls", &self.polls)
            .finish()
    }
}

impl<P> ParallelNetwork<P>
where
    P: Process + Send,
    P::Msg: Send,
{
    /// Creates a network over `topology` with one process per node,
    /// executing on `workers` worker threads (`0` = match the machine, see
    /// [`resolve_workers`]). Every node starts active for round 1.
    ///
    /// # Panics
    ///
    /// Panics unless `processes[i].id() == i` for every `i` and the process
    /// count equals the topology's node count.
    pub fn new(processes: Vec<P>, topology: Graph, workers: usize) -> Self {
        assert_eq!(
            processes.len(),
            topology.node_count(),
            "need exactly one process per topology node"
        );
        for (i, p) in processes.iter().enumerate() {
            assert_eq!(p.id(), i, "process at index {i} reports id {}", p.id());
        }
        let n = processes.len();
        ParallelNetwork {
            slots: processes.into_iter().map(|p| Some(Box::new(p))).collect(),
            topology,
            metrics: Metrics::new(n),
            workers: resolve_workers(workers),
            active: vec![true; n],
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            next_round: 1,
            polls: 0,
        }
    }

    /// Runs `rounds` further synchronous rounds (or less work than that: as
    /// soon as every node is quiescent and no delivery is pending, the
    /// remaining rounds are provably silent and are skipped wholesale).
    pub fn run_rounds(&mut self, rounds: usize) {
        let horizon = self.next_round + rounds;
        while self.next_round < horizon {
            if !self.active.iter().any(|&a| a) {
                // Nobody may send spontaneously and nothing is in flight:
                // every remaining round is a no-op, exactly as under the
                // sync engine (which would poll n nodes to learn the same).
                self.next_round = horizon;
                return;
            }
            self.step();
        }
    }

    /// Executes one round: parallel send phase, canonical-order commit,
    /// parallel delivery phase.
    fn step(&mut self) {
        let round = self.next_round;
        self.next_round += 1;
        let n = self.slots.len();

        // ---- Phase 1: fan the round's polls out across the pool. --------
        let polled: Vec<NodeId> = (0..n).filter(|&i| self.active[i]).collect();
        for &i in &polled {
            self.active[i] = false;
        }
        self.polls += polled.len() as u64;
        let tasks: Vec<(NodeId, Box<P>)> = polled
            .iter()
            .map(|&i| (i, self.slots[i].take().expect("active node is checked in")))
            .collect();
        let produced = parallel_map(tasks, self.workers, |(i, mut p)| {
            let out = p.send(round);
            // Checked after `send`, as the event runtime does: a node that
            // may still send spontaneously stays on next round's schedule.
            let quiescent = p.quiescent();
            (i, p, out, quiescent)
        });

        // ---- Phase 2: commit. Single-threaded, ascending sender order —
        // the exact order `SyncNetwork::step` applies legality checks and
        // metrics accounting in. `parallel_map` preserves input order, so
        // `produced` is already sorted by sender id, and pushing into the
        // indexed inbox buffers preserves (sender, emission) order within
        // each destination.
        let mut touched: Vec<NodeId> = Vec::new();
        for (i, p, out, quiescent) in produced {
            self.slots[i] = Some(p);
            if !quiescent {
                self.active[i] = true;
            }
            for o in out {
                if o.to >= n || !self.topology.has_edge(i, o.to) {
                    self.metrics.record_illegal_send();
                    continue;
                }
                self.metrics.record_send(round, i, o.to, WireSized::wire_bytes(&o.msg));
                let inbox = &mut self.inboxes[o.to];
                if inbox.is_empty() {
                    touched.push(o.to);
                }
                inbox.push((i, o.msg));
            }
        }
        if touched.is_empty() {
            return;
        }
        // Ascending destination order — the sync engine's delivery order.
        touched.sort_unstable();

        // ---- Phase 3: committed deliveries fan back out, one task per
        // destination. Each inbox is already in (sender, emission) order;
        // destinations are independent, so receiving in parallel cannot be
        // observed. A delivery re-activates its destination.
        let tasks: Vec<(NodeId, Box<P>, Vec<(NodeId, P::Msg)>)> = touched
            .into_iter()
            .map(|to| {
                self.active[to] = true;
                let inbox = std::mem::take(&mut self.inboxes[to]);
                (to, self.slots[to].take().expect("destination is checked in"), inbox)
            })
            .collect();
        let received = parallel_map(tasks, self.workers, |(to, mut p, inbox)| {
            for (from, msg) in inbox {
                p.receive(round, from, msg);
            }
            (to, p)
        });
        for (to, p) in received {
            self.slots[to] = Some(p);
        }
    }

    /// The round the next [`run_rounds`](Self::run_rounds) call starts at
    /// (1-based).
    pub fn next_round(&self) -> usize {
        self.next_round
    }

    /// Send polls performed so far — kept far below `n · rounds` on
    /// workloads that quiesce early.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
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
        self.slots[i].as_deref().expect("process is checked in between rounds")
    }

    /// Consumes the network, returning processes (in node order) and
    /// metrics.
    pub fn into_parts(self) -> (Vec<P>, Metrics) {
        let procs =
            self.slots.into_iter().map(|s| *s.expect("process is checked in between rounds"));
        (procs.collect(), self.metrics)
    }
}

/// Runs `rounds` synchronous rounds of the given processes over `topology`
/// on the parallel runtime with `workers` worker threads (`0` = match the
/// machine). Returns the processes (in node order) and the traffic metrics —
/// the same signature family as [`crate::event::run_event_driven`], with
/// results bit-identical to every other runtime.
///
/// # Panics
///
/// Panics unless `processes[i].id() == i` for every `i` and the process
/// count equals the topology's node count.
pub fn run_parallel<P>(
    processes: Vec<P>,
    topology: &Graph,
    rounds: usize,
    workers: usize,
) -> (Vec<P>, Metrics)
where
    P: Process + Send,
    P::Msg: Send,
{
    let mut net = ParallelNetwork::new(processes, topology.clone(), workers);
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
    fn parallel_flooding_covers_connected_graph() {
        let g = gen::cycle(8);
        for workers in [1, 2, 3] {
            let (procs, metrics) = run_parallel(floods(&g), &g, 7, workers);
            for p in &procs {
                assert_eq!(p.known.len(), 8, "node {} at {workers} workers", p.id);
            }
            assert!(metrics.total_bytes_sent() > 0);
            assert_eq!(metrics.illegal_sends(), 0);
        }
    }

    #[test]
    fn parallel_equals_sync_engine_bit_for_bit_at_any_worker_count() {
        let g = gen::harary(4, 40).unwrap();
        let mut sync_net = SyncNetwork::new(floods(&g), g.clone());
        sync_net.run_rounds(39);
        for workers in [1, 2, 4, 7] {
            let (procs, metrics) = run_parallel(floods(&g), &g, 39, workers);
            for (a, b) in sync_net.processes().iter().zip(&procs) {
                assert_eq!(a.received, b.received, "node {} at {workers} workers", a.id);
                assert_eq!(a.known, b.known);
            }
            assert_eq!(sync_net.metrics(), &metrics, "{workers} workers");
        }
    }

    #[test]
    fn quiescent_nodes_cost_no_polls() {
        // A 40-node path floods in ~40 rounds; after that the schedule must
        // drain and the remaining 10 000-round horizon must be skipped.
        let g = gen::path(40);
        let mut net = ParallelNetwork::new(floods(&g), g.clone(), 2);
        net.run_rounds(10_000);
        for i in 0..40 {
            assert_eq!(net.process(i).known.len(), 40);
        }
        assert_eq!(net.next_round(), 10_001);
        assert!(
            net.polls() < 10_000,
            "{} polls for a workload that quiesces after ~40 rounds",
            net.polls()
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
            run_parallel(vec![TimeBomb { id: 0, got: 0 }, TimeBomb { id: 1, got: 0 }], &g, 6, 3);
        assert_eq!(procs[0].got, 1);
        assert_eq!(procs[1].got, 1);
        assert_eq!(metrics.total_bytes_sent(), 16);
    }

    #[test]
    fn run_rounds_can_resume_across_epochs() {
        let g = gen::path(6);
        let mut split = ParallelNetwork::new(floods(&g), g.clone(), 2);
        split.run_rounds(3);
        assert_eq!(split.next_round(), 4);
        split.run_rounds(3);
        let mut whole = ParallelNetwork::new(floods(&g), g.clone(), 2);
        whole.run_rounds(6);
        for i in 0..6 {
            assert_eq!(split.process(i).known, whole.process(i).known);
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
            run_parallel(vec![Rogue { id: 0 }, Rogue { id: 1 }, Rogue { id: 2 }], &g, 2, 2);
        assert_eq!(metrics.illegal_sends(), 2);
        assert_eq!(metrics.total_bytes_sent(), 0);
    }

    #[test]
    fn empty_system_is_a_no_op() {
        let g = Graph::empty(0);
        let (procs, metrics) = run_parallel(Vec::<Flood>::new(), &g, 3, 4);
        assert!(procs.is_empty());
        assert_eq!(metrics.total_bytes_sent(), 0);
    }

    #[test]
    fn single_node_runs_without_peers() {
        let g = Graph::empty(1);
        let (procs, metrics) = run_parallel(vec![Flood::new(0, &g)], &g, 2, 2);
        assert_eq!(procs[0].known.len(), 1);
        assert_eq!(metrics.total_bytes_sent(), 0);
    }

    #[test]
    #[should_panic(expected = "one process per topology node")]
    fn process_count_must_match_topology() {
        let g = gen::path(3);
        let _ = ParallelNetwork::new(vec![Flood::new(0, &g)], g, 2);
    }

    #[test]
    fn parallel_map_preserves_input_order_and_steals() {
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        // 3 workers × 1000-item chunks: worker 0's chunk is larger than one
        // GRAB_BATCH (so it cannot privatize it all in a single grab) and
        // every item in it is slow — the other workers drain their own fast
        // chunks and must steal the tail of worker 0's deque. The recorded
        // thread ids prove the slow chunk was actually shared, and the
        // output must still come back in input order.
        assert!(1_000 > GRAB_BATCH, "chunk must exceed one grab for stealing to be reachable");
        let items: Vec<usize> = (0..3_000).collect();
        let owners: StdMutex<Vec<(usize, std::thread::ThreadId)>> = StdMutex::new(Vec::new());
        let out = parallel_map(items.clone(), 3, |i| {
            if i < 1_000 {
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            owners.lock().unwrap().push((i, std::thread::current().id()));
            i * 3
        });
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
        let owners = owners.into_inner().unwrap();
        assert_eq!(owners.len(), 3_000, "every item runs exactly once");
        let slow_chunk_threads: HashSet<_> =
            owners.iter().filter(|(i, _)| *i < 1_000).map(|&(_, t)| t).collect();
        assert!(
            slow_chunk_threads.len() >= 2,
            "worker 0's slow chunk should have been partly stolen, but {} thread(s) ran it",
            slow_chunk_threads.len()
        );
    }

    #[test]
    fn parallel_map_small_batches_run_inline() {
        // Below the inline threshold no pool is spawned; results identical.
        let out = parallel_map(vec![1usize, 2, 3], 8, |i| i + 1);
        assert_eq!(out, vec![2, 3, 4]);
        assert_eq!(parallel_map(Vec::<usize>::new(), 8, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn resolve_workers_treats_zero_as_auto() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
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

        /// The parallel runtime reproduces the synchronous engine *exactly*:
        /// same receptions (round, sender, payload, order) and equal metrics
        /// on arbitrary topologies, at any worker count.
        #[test]
        fn parallel_and_sync_trajectories_are_identical(
            g in arb_graph(9),
            workers in 1usize..5,
        ) {
            let n = g.node_count();
            let mut sync_net = SyncNetwork::new(floods(&g), g.clone());
            sync_net.run_rounds(n);
            let (par_procs, par_metrics) = run_parallel(floods(&g), &g, n, workers);
            for (a, b) in sync_net.processes().iter().zip(&par_procs) {
                prop_assert_eq!(&a.received, &b.received, "node {}", a.id);
                prop_assert_eq!(&a.known, &b.known);
            }
            prop_assert_eq!(sync_net.metrics(), &par_metrics);
        }
    }
}
