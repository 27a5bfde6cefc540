//! Scaling pin for the decision phase on a partitioned fleet: every view is
//! a small island in the fleet's id space, so `collect_decisions` must cost
//! O(m_view) per view class — no `n`-sized graph, no per-component queue.
//! Allocation *counts* are exact and machine-independent, so the pin is a
//! count: a per-class `Graph::empty(n)` plus a BFS over its ~n singleton
//! components costs ~n allocations per class (~1 M here), against a
//! handful per class when the oracle decides from the edge list.
//!
//! The same kind of pin holds the relay path: an accepted edge owns its
//! slot in the view, its relay queue entry and the one extended chain the
//! fan-out shares — not a set for its single excluded neighbor, byte vectors
//! for digests, or a memo entry no later delivery can reach. And the
//! schedule layer: a flap schedule adds O(n + T), not n × T.
//!
//! The counting allocator is process-global, which is why these tests have
//! an integration-test binary to themselves and take turns under `SERIAL`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use nectar::graph::ConnectivityOracle;
use nectar::prelude::*;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a statistic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Held by a test while it reads `ALLOCATIONS`, so the other's work is not
/// counted against it.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn deciding_a_partitioned_fleet_allocates_per_class_not_per_node_squared() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let n = 2_000;
    let scenario = Scenario::new(gen::disjoint_cliques(n / 4, 4), 2).with_key_seed(5);
    let participants = scenario.sim().runtime(Runtime::Event).participants();
    let mut oracle = ConnectivityOracle::new();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (decisions, stats) = scenario.collect_decisions(&participants, &mut oracle, 1);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(decisions.len(), n);
    assert!(decisions.values().all(|d| d.confirmed && d.reachable == 4));
    assert_eq!(stats.structure_shortcuts, n as u64 / 4, "one cold query per clique");
    assert_eq!(stats.bounded_flows, 0);
    assert!(
        allocations < 20 * n as u64,
        "collect_decisions made {allocations} allocations for {n} nodes in {} classes",
        n / 4
    );
}

/// The schedule layer costs what the flapping links cost: each `Scheduled`
/// wrapper reads its own node's row of the compiled index, so wrapping a
/// fleet and running it under T transitions adds allocations in O(n + T) —
/// the compile, and the protocol's own re-announcements on the 128 flapping
/// endpoints — never a fleet-wide down-set per wrapper (n × T).
///
/// Measured: 72 023 allocations plain, 74 500 flapped (2 477 added, 0.8 per
/// unit of n + T). With every wrapper replaying every flip of the fleet
/// into its own B-tree of down edges and filtering the whole transition
/// list for its notices, the flapped run made 127 659 (55 636 added).
#[test]
fn a_flap_schedule_adds_allocations_in_its_own_size_not_fleet_times_flips() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let n = 2_000;
    let scenario = Scenario::new(gen::disjoint_cliques(n / 4, 4), 2).with_key_seed(5);
    // 64 cliques flap one edge 8 times: 1 024 transitions over 16 rounds.
    let (flapping, flaps) = (64, 8);
    let mut schedule = TopologySchedule::new();
    for c in 0..flapping {
        for k in 0..flaps {
            let (u, v) = (4 * c, 4 * c + 1);
            schedule = schedule.drop_edge(1 + 2 * k, u, v).heal_edge(2 + 2 * k, u, v);
        }
    }
    let transitions = 2 * flapping * flaps;
    let propagate = |schedule: Option<TopologySchedule>| {
        let sim = scenario.sim().runtime(Runtime::Event);
        let sim = match schedule {
            Some(schedule) => sim.schedule(schedule),
            None => sim,
        };
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let participants = sim.participants();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(participants.len(), n);
        allocations
    };
    let plain = propagate(None);
    let flapped = propagate(Some(schedule));
    let added = flapped.saturating_sub(plain);
    assert!(
        added <= 2 * (n + transitions) as u64,
        "{transitions} transitions on a {n}-node fleet added {added} allocations \
         ({plain} plain, {flapped} flapped)"
    );
}

#[test]
fn a_whole_run_allocates_a_handful_per_accepted_edge() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (n, k) = (48, 6);
    let plan = ScenarioSpec::parse(&format!("topology harary-k{k} {n}\nt 2\nseed 1\n"), "")
        .and_then(|spec| spec.compile())
        .expect("a valid scenario");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = plan.run_report();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(report.unanimous_verdict(), Some(Verdict::NotPartitionable));
    // Every node starts with its k own edges and accepts each of the others
    // exactly once.
    let edges = n * k / 2;
    let accepted = (n * (edges - k)) as u64;
    // Measured 28 777 (4.3 per accepted edge); 90 181 (13.6) with a set per
    // excluded neighbor, heap-built digests and statements, a set per
    // distinctness check, a doubled chain buffer and the chain memo.
    assert!(
        allocations < 6 * accepted,
        "run_report made {allocations} allocations for {accepted} accepted edges"
    );
}
