//! Definition 3 checked against the paper, not against a parent commit:
//! small-n enumeration on the sync engine, in the vocabulary of the shared
//! zoo (`tests/common`). The seed of ROADMAP item 1(a).
//!
//! * **t = 1, exhaustive.** Every labelled graph on n ≤ 5 nodes with the
//!   Byzantine node fixed at 0 — every (G, b) is a relabelling of some
//!   (G′, 0) — under each single-node behaviour at its extreme parameter.
//! * **t = 2, sampled.** A fixed-stride sample of 256 of the 32 768
//!   labelled graphs on 6 nodes with the cast fixed at {0, 1}, under the
//!   colluding pairs no single node can play.
//!
//! Each run asserts the three properties a Byzantine cast can attack, in
//! the wording of `tests/properties.rs`: **Safety** (the cast is a vertex
//! cut ⇒ no correct node decides NOT_PARTITIONABLE; at t = 1 the stronger
//! κ(G) ≤ t ⇒ …), **2t-Sensitivity** (κ(G) ≥ 2t ⇒ every correct node
//! decides NOT_PARTITIONABLE) and **Validity** (`confirmed` only when some
//! subset of the cast is a vertex cut, or G itself is partitioned). A
//! violation prints the edge list and the cast.
//!
//! This suite is the named `model-check` CI step.

mod common;

use common::build_scenario;
use nectar::prelude::*;

/// The labelled graphs on `n` nodes whose edge mask is a multiple of
/// `stride` (`stride = 1`: all `2^(n(n−1)/2)` of them).
fn labelled_graphs(n: usize, stride: usize) -> impl Iterator<Item = Graph> {
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
    (0..1usize << pairs.len()).step_by(stride).map(move |mask| {
        let edges =
            pairs.iter().enumerate().filter_map(|(i, &e)| (mask >> i & 1 == 1).then_some(e));
        Graph::from_edges(n, edges).expect("edges in range")
    })
}

/// Runs `cast` on `g` and asserts Safety, 2t-Sensitivity and Validity
/// against ground truth computed from `g` alone (`kappa` is κ(G)).
fn check(g: &Graph, kappa: usize, t: usize, cast: &[(usize, ByzantineBehavior)]) {
    let report = build_scenario(g, t, cast).sim().run();
    let verdicts = || report.decisions().values().map(|d| d.verdict);
    let fail = |property: &str| -> ! {
        let edges: Vec<(usize, usize)> = g.edges().collect();
        panic!(
            "{property} violated\n  n = {}, t = {t}, κ(G) = {kappa}\n  edges: {edges:?}\n  \
             cast: {cast:?}\n  decisions: {:?}",
            g.node_count(),
            report.decisions()
        );
    };
    let unsafe_to_clear = report.byzantine_cast_is_vertex_cut() || (t == 1 && kappa <= t);
    if unsafe_to_clear && verdicts().any(|v| v == Verdict::NotPartitionable) {
        fail("Safety");
    }
    if kappa >= 2 * t && verdicts().any(|v| v != Verdict::NotPartitionable) {
        fail("2t-Sensitivity");
    }
    let confirmed = report.decisions().values().any(|d| d.confirmed);
    if confirmed && !(report.byzantine_cast_can_cut() || traversal::is_partitioned(g)) {
        fail("Validity");
    }
}

/// Every labelled graph on 2 ..= 5 nodes, t = 1, node 0 playing each of
/// `behaviours(n)` in turn.
fn sweep_single_node(behaviours: impl Fn(usize) -> Vec<ByzantineBehavior>) {
    for n in 2..=5 {
        let behaviours = behaviours(n);
        for g in labelled_graphs(n, 1) {
            let kappa = connectivity::vertex_connectivity(&g);
            for behaviour in &behaviours {
                check(&g, kappa, 1, &[(0, behaviour.clone())]);
            }
        }
    }
}

// The single-node behaviours, split in two tests only so the harness runs
// the halves side by side.

#[test]
fn every_graph_up_to_five_nodes_under_every_muting_behaviour() {
    sweep_single_node(|n| {
        vec![
            ByzantineBehavior::Silent,
            ByzantineBehavior::CrashAfter { round: 2 },
            ByzantineBehavior::TwoFaced { silent_toward: (0..n / 2).collect() },
            ByzantineBehavior::TwoFaced { silent_toward: (n / 2..n).collect() },
        ]
    });
}

#[test]
fn every_graph_up_to_five_nodes_under_every_lying_behaviour() {
    sweep_single_node(|n| {
        vec![
            ByzantineBehavior::HideEdges { toward: (0..n).collect() },
            ByzantineBehavior::Equivocate { victims: (0..n).collect() },
            ByzantineBehavior::FalsifyData { flips_per_mille: 1000, seed: 1, partners: vec![] },
        ]
    });
}

#[test]
fn sampled_six_node_graphs_under_colluding_pairs() {
    let falsify = |partner| ByzantineBehavior::FalsifyData {
        flips_per_mille: 1000,
        seed: 1,
        partners: vec![partner],
    };
    let pairs = [
        [
            ByzantineBehavior::FictitiousEdges { partners: vec![1] },
            ByzantineBehavior::FictitiousEdges { partners: vec![0] },
        ],
        [ByzantineBehavior::LateReveal { partner: 1, others: vec![] }, ByzantineBehavior::Silent],
        [falsify(1), falsify(0)],
    ];
    // An odd stride, so no edge is constant across the sample.
    let sample: Vec<Graph> = labelled_graphs(6, 127).take(256).collect();
    assert_eq!(sample.len(), 256);
    for g in &sample {
        let kappa = connectivity::vertex_connectivity(g);
        for [zero, one] in &pairs {
            check(g, kappa, 2, &[(0, zero.clone()), (1, one.clone())]);
        }
    }
}
