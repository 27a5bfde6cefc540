//! Hot-path cache ground truth. The fast paths — a node's view as a hash
//! set of packed `u32` edge keys with its rolling fingerprint, one relay
//! batch per sender and round that every neighbour's message views, the
//! digest a proof caches on first use and the one proof both endpoints of
//! an edge share — must be *observationally pure* (docs/DETERMINISM.md
//! §4, §6). Each cache is pinned per value once, where it lives:
//!
//! * **View fingerprints** (here): every node's rolling
//!   [`NectarNode::view_fingerprint`] must equal the from-scratch digest of
//!   its discovered graph, through both from-scratch entry points, after
//!   arbitrary runs of the shared zoo (`tests/common`: all eight Byzantine
//!   behaviours) and under active [`TopologySchedule`]s — the schedules
//!   drop and heal edges mid-dissemination, so views grow through every
//!   relay acceptance path.
//! * **The view set** (`crates/core/src/node.rs`, `view_set_tests`): a
//!   node's view tracks a `BTreeSet` model over random announcements,
//!   accepted and rejected relays, hidden edges and out-of-range keys —
//!   ascending edge lists, equal counts, fingerprint = digest of the
//!   discovered graph.
//! * **The relay batch** (`crates/core/src/message.rs`,
//!   `each_view_is_the_batch_minus_its_recipients_relays`): every
//!   neighbour's message, a view of the sender's one round batch, carries
//!   the edges, length, accounted bytes and codec bytes of the
//!   per-neighbour filter loop it replaced, and a neighbour left with no
//!   edge gets no message.
//! * **The digest cache** (`crates/crypto/src/proof.rs`,
//!   `digest_cache_is_pure`): a proof's cached digest equals a
//!   from-scratch SHA-256 of its fields, costs 2 compressions once and 0
//!   after, and leaves `==`, `Hash` and `Debug` unchanged.
//! * **The shared proof** (`crates/core/src/runner.rs`,
//!   `both_endpoints_of_an_edge_announce_one_shared_proof`): set-up signs
//!   one proof per edge, and both endpoints of an edge between correct
//!   nodes announce that one object in round 1.
//! * **The oracle's edge-list layer 1** (`crates/graph/src/oracle.rs`,
//!   `oracle_edge_list_layer_one_matches_the_dense_reference_*`): answer
//!   and counters equal a test-only copy of the dense predicates, over
//!   untrusted lists.
//!
//! That nothing downstream can tell any cache from the plain computation
//! is the whole-run bit-identity of `tests/runtimes.rs`, which sweeps the
//! same zoo across every runtime and worker count. What the caches cost
//! is pinned by `tests/collect_allocations.rs`.

mod common;

use proptest::prelude::*;
use std::collections::BTreeSet;

use common::{arb_scenario, build_scenario};
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
