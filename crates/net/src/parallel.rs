//! The worker pool behind the parallel runtime and participant building:
//! an order-preserving, work-stealing [`parallel_map`].
//!
//! [`crate::event::EventNetwork::with_workers`] fans each round's polls and
//! deliveries out over it, and `nectar-protocol` builds a fleet's
//! participants on it. Worker counts never affect results, only
//! wall-clock: the map returns its outputs in input order whichever worker
//! ran which item.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

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
/// which is what lets the event runtime treat this as a drop-in `map`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::*;
    use crate::event::EventNetwork;
    use crate::testkit::Flood;
    use nectar_graph::gen;

    /// The parallel runtime is the event round fanned out over workers:
    /// these run `event::tests`' checks at worker counts past one.
    const FANNED: [usize; 2] = [2, 3];

    #[test]
    fn parallel_flooding_covers_connected_graph() {
        FANNED.into_iter().for_each(flooding_covers_connected_graph_at);
    }

    #[test]
    fn parallel_equals_sync_engine_bit_for_bit_at_any_worker_count() {
        equals_sync_engine_bit_for_bit_at(&[2, 4, 7]);
    }

    #[test]
    fn quiescent_nodes_cost_no_polls() {
        FANNED.into_iter().for_each(quiescent_nodes_cost_no_events_at);
    }

    #[test]
    fn spontaneous_senders_are_polled_every_round() {
        FANNED.into_iter().for_each(spontaneous_senders_are_polled_every_round_at);
    }

    #[test]
    fn run_rounds_can_resume_across_epochs() {
        FANNED.into_iter().for_each(run_rounds_can_resume_across_epochs_at);
    }

    #[test]
    fn non_neighbor_sends_are_dropped_and_counted() {
        FANNED.into_iter().for_each(non_neighbor_sends_are_dropped_and_counted_at);
    }

    #[test]
    fn empty_system_is_a_no_op() {
        FANNED.into_iter().for_each(empty_system_is_a_no_op_at);
    }

    #[test]
    fn single_node_runs_without_peers() {
        FANNED.into_iter().for_each(single_node_runs_without_peers_at);
    }

    #[test]
    #[should_panic(expected = "one process per topology node")]
    fn process_count_must_match_topology() {
        // The fanned constructor checks through `new` before sizing a pool.
        let g = gen::path(3);
        let _ = EventNetwork::with_workers(vec![Flood::new(0, &g)], g, 2);
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
    use crate::event::proptests::trajectories_match_sync;
    use crate::testkit::arb_graph;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fanned event loop reproduces the synchronous engine exactly,
        /// at a case-varied worker count.
        #[test]
        fn parallel_and_sync_trajectories_are_identical(
            g in arb_graph(9),
            workers in 2usize..5,
        ) {
            trajectories_match_sync(&g, workers)?;
        }
    }
}
