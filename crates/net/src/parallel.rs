//! The worker pool behind the parallel runtime and participant building:
//! an order-preserving [`parallel_map`] over one shared queue of blocks.
//!
//! [`crate::event::EventNetwork::with_workers`] fans each round's polls and
//! deliveries out over it, and `nectar-protocol` builds a fleet's
//! participants on it. Worker counts never affect results, only
//! wall-clock: the map returns its outputs in input order whichever worker
//! ran which block.

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

/// How many blocks the batch is cut into per worker: enough that a worker
/// held up on slow items leaves the rest of the queue to the others, few
/// enough that the queue's lock is taken rarely.
const BLOCKS_PER_WORKER: usize = 8;

/// Order-preserving parallel map over one shared queue of blocks.
///
/// The batch is cut into contiguous blocks, about `BLOCKS_PER_WORKER` (8) per
/// worker, and put behind one lock; each worker pulls the next block until
/// the queue is empty, so an uneven workload (one slow node among thousands
/// of cheap ones) still keeps every worker busy. The blocks are stitched
/// back in queue order, so the output vector is in input order regardless
/// of which worker ran which block — which is what lets the event runtime
/// treat this as a drop-in `map`.
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

    let total = items.len();
    let block = total.div_ceil(workers * BLOCKS_PER_WORKER);
    let mut items = items.into_iter();
    let blocks: Vec<Vec<T>> =
        (0..total.div_ceil(block)).map(|_| items.by_ref().take(block).collect()).collect();
    let queue = Mutex::new(blocks.into_iter().enumerate());

    let mut done: Vec<(usize, Vec<R>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        // Its own statement, so the guard drops before `f`
                        // runs. (Poison is ignored: `next` cannot tear the
                        // queue, and a worker's panic resurfaces at join.)
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((idx, block)) = next else { break out };
                        out.push((idx, block.into_iter().map(&f).collect()));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(idx, _)| idx);
    done.into_iter().flat_map(|(_, outputs)| outputs).collect()
}

/// The event engine's checks fanned out over the pool, and the pool's own:
/// input order (also with more workers than blocks), slow items spread
/// over several threads, and a panic in the mapped function propagating
/// out.
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
    fn parallel_map_preserves_input_order_and_balances() {
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        // 3 workers, 24 blocks of 125 items, and the first 1 000 items (the
        // first 8 blocks, a third of the batch) slow: the recorded thread
        // ids prove the slow third was shared out rather than run by the
        // worker that pulled first, and the output must still come back in
        // input order.
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
        let mut owners = owners.into_inner().unwrap();
        owners.sort_unstable_by_key(|&(i, _)| i);
        assert!(owners.iter().map(|&(i, _)| i).eq(0..3_000), "every item runs exactly once");
        let slow_threads: HashSet<_> =
            owners.iter().filter(|(i, _)| *i < 1_000).map(|&(_, t)| t).collect();
        assert!(
            slow_threads.len() >= 2,
            "the slow items should have been spread over workers, but {} thread(s) ran them",
            slow_threads.len()
        );
    }

    #[test]
    fn parallel_map_with_more_workers_than_blocks_preserves_order() {
        // 33 items on 64 requested workers, more than there are blocks: the
        // pool shrinks to one worker per item and each block holds one item.
        let items: Vec<usize> = (0..33).collect();
        assert_eq!(
            parallel_map(items.clone(), 64, |i| i * 2),
            items.iter().map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "item 40 failed")]
    fn parallel_map_propagates_a_panic_in_f() {
        parallel_map((0..100).collect(), 3, |i: usize| {
            assert!(i != 40, "item 40 failed");
            i
        });
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
