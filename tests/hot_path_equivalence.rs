//! Hot-path cache equivalence: the fast paths — a node's view as a hash
//! set of packed `u32` edge keys with its rolling fingerprint, one relay
//! batch per sender and round that every neighbour's message views, and
//! the digest a proof caches on first use — must be *observationally
//! pure* (docs/DETERMINISM.md §4). Two kinds of pins, matching the two
//! ways a cache could leak:
//!
//! * **Fingerprint ground truth.** Every node's rolling
//!   [`NectarNode::view_fingerprint`] must equal the from-scratch digest of
//!   its discovered graph, after arbitrary runs of the shared zoo
//!   (`tests/common`: all eight Byzantine behaviours) and under
//!   active [`TopologySchedule`]s — the schedules exercise edge drops and
//!   heals mid-dissemination, i.e. views that grow through every relay
//!   acceptance path.
//! * **Whole-run bit-identity.** The relay batch and the digest cache are
//!   pinned per value next to their code (`message.rs`: each neighbour's
//!   view is the batch minus its own relays; `proof.rs`: a cached digest
//!   equals a from-scratch SHA-256); here their contract is that nothing
//!   downstream can tell them apart from the plain computation. So
//!   the pin is the strongest observable: the full
//!   `RunReport` (decisions, traffic metrics, oracle counters, rejection
//!   tallies) must be bit-identical across all three runtimes and across
//!   parallel worker counts {0, 2, 3, 4, 7}. The oracle's edge-list layer 1
//!   (docs/DETERMINISM.md §6) is held to the same pin on the regime it
//!   serves: a partitioned fleet of many distinct views.
//!
//! This suite is the named `hot-path-equivalence` CI step.

mod common;

use proptest::prelude::*;
use std::collections::BTreeSet;

use common::{arb_scenario, assert_reports_identical, build_scenario};
use nectar::graph::Fingerprint;
use nectar::prelude::*;
use nectar::protocol::Participant;

/// Asserts that every participant's rolling fingerprint equals the
/// from-scratch digest of its discovered graph, through both from-scratch
/// entry points (`of` on the materialized graph, `of_edges` on the
/// canonical edge key with the same endpoint filter the graph applies).
fn assert_fingerprints_are_ground_truth(participants: &[Participant]) {
    for p in participants {
        let node = p.nectar();
        let n = node.discovered_graph().node_count();
        let from_graph = Fingerprint::of(&node.discovered_graph());
        assert_eq!(
            node.view_fingerprint(),
            from_graph,
            "node {}: rolling fingerprint drifted from Fingerprint::of",
            node.node_id()
        );
        let in_range = node
            .discovered_edge_key()
            .into_iter()
            .filter(|&(u, v)| (u as usize) < n && (v as usize) < n)
            .map(|(u, v)| (u as usize, v as usize));
        assert_eq!(
            node.view_fingerprint(),
            Fingerprint::of_edges(n, in_range),
            "node {}: rolling fingerprint drifted from Fingerprint::of_edges",
            node.node_id()
        );
    }
}

/// Every engine but the sync reference, with the parallel one on the
/// {0, 2, 3, 4, 7} worker grid (0 = auto-detect, so this also sweeps
/// whatever the host machine resolves to; `parallel:1` is `event`).
const OTHER_RUNTIMES: [Runtime; 6] = [
    Runtime::Event,
    Runtime::Parallel { workers: 0 },
    Runtime::Parallel { workers: 2 },
    Runtime::Parallel { workers: 3 },
    Runtime::Parallel { workers: 4 },
    Runtime::Parallel { workers: 7 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental == from-scratch across the behaviour zoo: after a full
    /// dissemination with arbitrary Byzantine casts, every node's rolling
    /// fingerprint (including the Byzantine wrappers' inner protocol state)
    /// equals a digest recomputed from nothing.
    #[test]
    fn incremental_fingerprints_match_from_scratch((g, t, cast) in arb_scenario()) {
        let scenario = build_scenario(&g, t, &cast);
        let participants = scenario.sim().participants();
        assert_fingerprints_are_ground_truth(&participants);
    }

    /// The same ground truth under an active [`TopologySchedule`]: edges
    /// picked from the base graph drop at round 1 and heal at round 2, so
    /// views grow through interrupted-and-resumed relay paths rather than
    /// a clean flood.
    #[test]
    fn incremental_fingerprints_survive_topology_schedules(
        (g, t, cast) in arb_scenario(),
        picks in proptest::collection::btree_set(0usize..64, 1..4),
    ) {
        let edges: Vec<(usize, usize)> = g.edges().collect();
        prop_assume!(!edges.is_empty());
        let chosen: BTreeSet<(usize, usize)> =
            picks.iter().map(|p| edges[p % edges.len()]).collect();
        let mut schedule = TopologySchedule::new();
        for &(u, v) in &chosen {
            schedule = schedule.drop_edge(1, u, v).heal_edge(2, u, v);
        }
        let scenario = build_scenario(&g, t, &cast);
        let participants = scenario.sim().schedule(schedule).participants();
        assert_fingerprints_are_ground_truth(&participants);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Proof-memo / digest hand-off / interning purity, pinned at the
    /// whole-run level:
    /// the full report content is bit-identical on every runtime and at
    /// parallel worker counts {0, 2, 3, 4, 7} (0 = auto-detect, so this
    /// also sweeps whatever the host machine resolves to), across the
    /// generator zoo and the Byzantine behaviour zoo: results must not
    /// depend on how the pool is sized or on which worker took which
    /// block.
    #[test]
    fn reports_are_bit_identical_across_runtimes_and_worker_counts(
        (g, t, cast) in arb_scenario(),
    ) {
        let scenario = build_scenario(&g, t, &cast);
        let reference = scenario.sim().run();
        for runtime in OTHER_RUNTIMES {
            let report = scenario.sim().runtime(runtime).run();
            assert_reports_identical(&report, &reference, &format!("{runtime}"));
        }
    }
}

/// A fixed multi-epoch, scheduled, Byzantine scenario swept across every
/// runtime and the {0, 2, 3, 4, 7} worker grid — the deterministic anchor
/// that fails loudly (no shrinking, stable name) if any cache ever leaks
/// into decisions, metrics, oracle counters, or rejection tallies.
#[test]
fn scheduled_multi_epoch_runs_are_bit_identical_everywhere() {
    let g = gen::harary(4, 12).expect("valid harary");
    let scenario = Scenario::new(g, 2)
        .with_key_seed(77)
        .with_byzantine(2, ByzantineBehavior::Silent)
        .with_byzantine(9, ByzantineBehavior::TwoFaced { silent_toward: [0, 4].into() });
    let schedule = TopologySchedule::new()
        .drop_edge(1, 0, 1)
        .heal_edge(3, 0, 1)
        .drop_edge(2, 4, 5)
        .heal_edge(4, 4, 5);
    let run = |runtime: Runtime| {
        scenario.sim().runtime(runtime).schedule(schedule.clone()).epochs(2).run()
    };
    let reference = run(Runtime::Sync);
    assert_eq!(reference.epochs.len(), 2);
    assert!(!reference.decisions().is_empty());
    for runtime in OTHER_RUNTIMES {
        let report = run(runtime);
        assert_reports_identical(&report, &reference, &format!("{runtime}"));
        // The JSON projection agrees too, once the legitimate runtime/
        // workers header line is dropped — a codec-level restatement of
        // the same pin.
        let normalize = |r: &RunReport| {
            r.to_json()
                .lines()
                .filter(|l| !l.contains("\"runtime\":"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(normalize(&report), normalize(&reference), "{runtime}: JSON drifted");
    }
}

/// The regime the edge-list layer 1 exists for: a partitioned fleet whose
/// every view is a small island in the fleet's id space. Disjoint cliques
/// plus connected islands with `δ ≤ t` (path, star) and with `δ > t`
/// (cycle, Harary), one of them split further by a Byzantine member —
/// a dozen-odd view classes, each settled without a view graph — pinned
/// bit-identical on every runtime and the {0, 2, 3, 4, 7} worker grid.
#[test]
fn many_class_partitioned_fleets_are_bit_identical_everywhere() {
    let islands = [
        gen::disjoint_cliques(6, 4),
        gen::path(5),
        gen::star(6),
        gen::cycle(7),
        gen::harary(4, 9).expect("valid harary"),
        Graph::empty(2),
    ];
    let n = islands.iter().map(Graph::node_count).sum();
    let mut fleet = Graph::empty(n);
    let mut base = 0;
    for island in &islands {
        for (u, v) in island.edges() {
            fleet.add_edge(base + u, base + v).expect("offsets stay in range");
        }
        base += island.node_count();
    }
    let harary_base = n - 2 - 9;
    let scenario = Scenario::new(fleet, 1).with_key_seed(91).with_byzantine(
        harary_base,
        ByzantineBehavior::TwoFaced { silent_toward: [harary_base + 1].into() },
    );
    let reference = scenario.sim().run();
    let oracle = reference.oracle();
    assert!(oracle.queries - oracle.cache_hits >= 11, "one cold query per view class");
    assert_eq!(oracle.bounded_flows, 0, "every class is settled by layer 1");
    assert!(reference.decisions().values().all(|d| d.confirmed));
    for runtime in OTHER_RUNTIMES {
        let report = scenario.sim().runtime(runtime).run();
        assert_reports_identical(&report, &reference, &format!("{runtime}"));
    }
}
