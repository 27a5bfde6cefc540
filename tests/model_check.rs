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
//! Each run asserts all four properties — Agreement, Safety,
//! 2t-Sensitivity and Validity — through the one checker,
//! `RunReport::definition3_violations`; with a single Byzantine node its
//! Safety clause is the strong one, κ(G) ≤ t ⇒ no correct node decides
//! NOT_PARTITIONABLE.
//!
//! * **The §VII unsigned detector** (`nectar::unsigned`, Dolev path
//!   vectors, t = 1) over the same graphs on n ≤ 5 plus the six-node
//!   sample, with node 0 correct, silent, crashing, two-faced or flooding
//!   forged-origin claims. It is not a `RunReport`, so it keeps its own
//!   protocol-specific asserts: every correct node's accepted graph is a
//!   subgraph of G; κ(G) ≤ t ⇒ no NOT_PARTITIONABLE; with no cast and
//!   κ(G) > t every view is G and every verdict NOT_PARTITIONABLE.
//!   Agreement is *not* asserted: without signatures a crash or a
//!   two-faced node can split correct nodes' verdicts (`nectar-dolev`'s
//!   `agreement_is_not_guaranteed_without_signatures`).
//!
//! A violation prints the edge list and the cast.

mod common;

use common::build_scenario;
use nectar::graph::ConnectivityOracle;
use nectar::net::{Mute, Muted, NodeId, Outgoing, Process, SyncNetwork};
use nectar::prelude::*;
use nectar::unsigned::{ClaimId, PathMsg, UnsignedConfig, UnsignedNode};

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

/// Runs `cast` on `g` and asserts that the report breaks no property of
/// Definition 3, as `RunReport::definition3_violations` states them.
/// `oracle` answers its κ questions and the run's decision phase.
fn check(
    oracle: &mut ConnectivityOracle,
    g: &Graph,
    t: usize,
    cast: &[(usize, ByzantineBehavior)],
) {
    let report = build_scenario(g, t, cast).sim().oracle(oracle).run();
    let broken = report.definition3_violations(oracle).expect("a static cast within t");
    if !broken.is_empty() {
        let edges: Vec<(usize, usize)> = g.edges().collect();
        panic!(
            "{broken:?} violated\n  n = {}, t = {t}\n  edges: {edges:?}\n  cast: {cast:?}\n  \
             decisions: {:?}",
            g.node_count(),
            report.decisions()
        );
    }
}

/// Every labelled graph on 2 ..= 5 nodes, t = 1, node 0 playing each of
/// `behaviours(n)` in turn.
fn sweep_single_node(behaviours: impl Fn(usize) -> Vec<ByzantineBehavior>) {
    let mut oracle = ConnectivityOracle::new();
    for n in 2..=5 {
        let behaviours = behaviours(n);
        for g in labelled_graphs(n, 1) {
            for behaviour in &behaviours {
                check(&mut oracle, &g, 1, &[(0, behaviour.clone())]);
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
    let mut oracle = ConnectivityOracle::new();
    for g in &sample {
        for [zero, one] in &pairs {
            check(&mut oracle, g, 2, &[(0, zero.clone()), (1, one.clone())]);
        }
    }
}

/// Node 0's part in an unsigned run.
#[derive(Debug, Clone)]
enum UnsignedCast {
    /// Node 0 runs the protocol behind this mute; `Mute::Never` is no cast.
    Mute(Mute),
    /// Node 0 runs the protocol and also, in round 1, floods a claim of
    /// every non-edge in each endpoint's name, as if relaying it: path
    /// `[a, 0]` (just `[0]` in its own name).
    Fabricate,
}

/// One member of an unsigned fleet; the enum lets correct nodes be
/// decided after the run.
#[derive(Debug)]
enum UnsignedProcess {
    Correct(UnsignedNode),
    /// Node 0 as cast: the protocol behind a mute, plus the forged
    /// messages it adds to round 1.
    Byzantine(Muted<UnsignedNode>, Vec<Outgoing<PathMsg>>),
}

impl Process for UnsignedProcess {
    type Msg = PathMsg;

    fn id(&self) -> NodeId {
        match self {
            UnsignedProcess::Correct(p) => p.id(),
            UnsignedProcess::Byzantine(p, _) => p.id(),
        }
    }

    fn send(&mut self, round: usize) -> Vec<Outgoing<PathMsg>> {
        match self {
            UnsignedProcess::Correct(p) => p.send(round),
            UnsignedProcess::Byzantine(p, forged) => {
                let mut out = p.send(round);
                out.append(forged);
                out
            }
        }
    }

    fn receive(&mut self, round: usize, from: NodeId, msg: PathMsg) {
        match self {
            UnsignedProcess::Correct(p) => p.receive(round, from, msg),
            UnsignedProcess::Byzantine(p, _) => p.receive(round, from, msg),
        }
    }
}

/// Node 0's round-1 forgeries on `g`: each endpoint's claim of each
/// non-edge, sent to each of node 0's neighbours.
fn forgeries(g: &Graph) -> Vec<Outgoing<PathMsg>> {
    let n = g.node_count();
    let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b)));
    let claims = pairs.filter(|&(a, b)| !g.has_edge(a, b)).flat_map(|(a, b)| {
        [ClaimId::new(a, a as u16, b as u16), ClaimId::new(b, a as u16, b as u16)]
    });
    claims
        .flat_map(|claim| {
            let path = if claim.origin == 0 { vec![0] } else { vec![claim.origin, 0] };
            g.neighborhood(0)
                .into_iter()
                .map(move |nbr| Outgoing::new(nbr, PathMsg { claim, path: path.clone() }))
        })
        .collect()
}

/// Runs the unsigned detector on `g` at t = 1 with node 0 playing `cast`,
/// and asserts on every correct node: its accepted graph is a subgraph of
/// G, Safety (κ(G) ≤ t ⇒ not NOT_PARTITIONABLE; at t = 1 this covers node
/// 0 being a cut vertex) and, with no cast and κ(G) > t, completeness
/// (view = G, NOT_PARTITIONABLE).
fn check_unsigned(g: &Graph, kappa: usize, cast: &UnsignedCast) {
    let t = 1;
    let n = g.node_count();
    let cfg = UnsignedConfig::new(n, t);
    let fleet: Vec<UnsignedProcess> = (0..n)
        .map(|i| {
            let node = UnsignedNode::new(i, cfg, g.neighborhood(i));
            match cast {
                _ if i != 0 => UnsignedProcess::Correct(node),
                UnsignedCast::Mute(Mute::Never) => UnsignedProcess::Correct(node),
                UnsignedCast::Mute(mute) => {
                    UnsignedProcess::Byzantine(Muted::new(node, mute.clone()), Vec::new())
                }
                UnsignedCast::Fabricate => {
                    UnsignedProcess::Byzantine(Muted::new(node, Mute::Never), forgeries(g))
                }
            }
        })
        .collect();
    let mut net = SyncNetwork::new(fleet, g.clone());
    net.run_rounds(cfg.rounds());
    let no_cast = matches!(cast, UnsignedCast::Mute(Mute::Never));
    for process in net.into_parts().0 {
        let UnsignedProcess::Correct(mut node) = process else { continue };
        let view = node.accepted_graph();
        let decision = node.decide();
        let fail = |property: &str| -> ! {
            let edges: Vec<(usize, usize)> = g.edges().collect();
            let view: Vec<(usize, usize)> = view.edges().collect();
            panic!(
                "unsigned {property} violated\n  n = {n}, t = {t}, κ(G) = {kappa}\n  \
                 edges: {edges:?}\n  cast of node 0: {cast:?}\n  node {}: view {view:?}, \
                 {decision:?}",
                node.node_id()
            );
        };
        if view.edges().any(|(u, v)| !g.has_edge(u, v)) {
            fail("view ⊆ G");
        }
        if kappa <= t && decision.verdict == Verdict::NotPartitionable {
            fail("Safety");
        }
        if no_cast && kappa > t && (view != *g || decision.verdict != Verdict::NotPartitionable) {
            fail("completeness");
        }
    }
}

/// Every labelled graph on 2 ..= 5 nodes plus the six-node sample, node 0
/// playing each of `casts(n)` in turn.
fn sweep_unsigned(casts: impl Fn(usize) -> Vec<UnsignedCast>) {
    let graphs =
        (2..=5).flat_map(|n| labelled_graphs(n, 1)).chain(labelled_graphs(6, 127).take(256));
    for g in graphs {
        let kappa = connectivity::vertex_connectivity(&g);
        for cast in casts(g.node_count()) {
            check_unsigned(&g, kappa, &cast);
        }
    }
}

#[test]
fn unsigned_detector_on_every_small_graph_under_muting_casts() {
    sweep_unsigned(|n| {
        [
            Mute::Never,
            Mute::From { round: 1 },
            Mute::From { round: 2 },
            Mute::Toward((n / 2..n).collect()),
        ]
        .map(UnsignedCast::Mute)
        .into()
    });
}

#[test]
fn unsigned_detector_on_every_small_graph_under_a_fabricator() {
    sweep_unsigned(|_| vec![UnsignedCast::Fabricate]);
}
