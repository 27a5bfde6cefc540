//! Builder equivalence: `scenario.sim()…run()` pinned against paths that
//! share none of its plumbing, and the streaming [`RunObserver`] hooks
//! pinned to the canonical commit order of `docs/DETERMINISM.md` on all
//! three engines.
//!
//! This suite is the named `builder-equivalence` CI step:
//!
//! * **Ground truth** — the builder's decisions and oracle counters equal
//!   deciding node by node (`NectarNode::decide_with` over the raw
//!   participants), which shares none of `Simulation::run`'s
//!   epoch/collect/report plumbing.
//! * **Builder axes against their long-hand form** — `.epochs(k)` equals k
//!   independently constructed sessions sharing one oracle, and
//!   `.metrics_only()` changes nothing but the skipped decision phase.
//! * **Observer hook order**, identical on every engine and worker count.

use proptest::prelude::*;
use std::collections::BTreeSet;

use nectar::prelude::*;
use nectar::protocol::ConnectivityOracle;

/// A compact topology zoo: one representative per §V-B family plus a dense
/// random mask.
fn arb_zoo_graph() -> impl Strategy<Value = Graph> {
    let mask_graph = (4usize..9).prop_flat_map(|n| {
        let pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
        proptest::collection::vec(0.0f64..1.0, pairs.len()).prop_map(move |weights| {
            let edges = pairs.iter().zip(&weights).filter_map(|(&e, &w)| (w < 0.5).then_some(e));
            Graph::from_edges(n, edges).expect("edges in range")
        })
    });
    prop_oneof![
        (2usize..5, 0usize..6)
            .prop_map(|(k, extra)| gen::harary(k, k + 2 + extra).expect("valid harary")),
        (3usize..5, 0usize..5).prop_map(|(k, extra)| {
            gen::generalized_wheel(k, (2 * k + 2 + extra).max(k + 3)).expect("valid wheel")
        }),
        (2usize..4, 0usize..5)
            .prop_map(|(k, extra)| gen::k_pasted_tree(k, 2 * k + 4 + extra).expect("valid lhg")),
        (3usize..9).prop_map(gen::cycle),
        (4usize..9).prop_map(gen::star),
        mask_graph,
    ]
}

/// A Byzantine cast from the topology-independent behaviour zoo.
fn arb_cast(n: usize, t: usize) -> impl Strategy<Value = Vec<(usize, ByzantineBehavior)>> {
    let behavior = (0..4usize, proptest::collection::btree_set(0..n, 0..3), 1..4usize).prop_map(
        move |(kind, others, round)| {
            let others: BTreeSet<usize> = others;
            match kind {
                0 => ByzantineBehavior::Silent,
                1 => ByzantineBehavior::CrashAfter { round },
                2 => ByzantineBehavior::TwoFaced { silent_toward: others },
                _ => ByzantineBehavior::HideEdges { toward: others },
            }
        },
    );
    proptest::collection::btree_set(0..n, 0..=t).prop_flat_map(move |nodes| {
        let nodes: Vec<usize> = nodes.into_iter().collect();
        proptest::collection::vec(behavior.clone(), nodes.len())
            .prop_map(move |behaviors| nodes.iter().copied().zip(behaviors).collect())
    })
}

fn arb_scenario() -> impl Strategy<Value = (Graph, usize, Vec<(usize, ByzantineBehavior)>)> {
    arb_zoo_graph().prop_flat_map(|g| {
        let n = g.node_count();
        let t = 2.min(n / 3);
        arb_cast(n, t).prop_map(move |cast| (g.clone(), t, cast))
    })
}

fn build_scenario(g: &Graph, t: usize, cast: &[(usize, ByzantineBehavior)]) -> Scenario {
    let mut scenario = Scenario::new(g.clone(), t).with_key_seed(55);
    for (node, behavior) in cast {
        scenario = scenario.with_byzantine(*node, behavior.clone());
    }
    scenario
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A metrics-only run skips the decision phase and nothing else: its
    /// traffic counters equal the full run's on every runtime, over the
    /// topology and behaviour zoos, at a case-varied parallel worker count.
    #[test]
    fn metrics_only_runs_report_the_full_runs_metrics(
        (g, t, cast) in arb_scenario(),
        workers in 1usize..4,
    ) {
        let scenario = build_scenario(&g, t, &cast);
        for runtime in [Runtime::Sync, Runtime::Event, Runtime::Parallel { workers }] {
            let full = scenario.sim().runtime(runtime).run();
            let metrics_only = scenario.sim().runtime(runtime).metrics_only().run();
            prop_assert_eq!(metrics_only.metrics(), full.metrics(), "{}", runtime);
            prop_assert!(metrics_only.decisions().is_empty(), "{}", runtime);
        }
    }

    /// Ground truth: the builder's decisions and oracle counters must
    /// equal deciding node by node via `NectarNode::decide_with` on the raw
    /// participants — the reference path that shares no code with
    /// `Simulation::run`'s collect/report plumbing.
    #[test]
    fn builder_decisions_match_the_per_node_reference((g, t, cast) in arb_scenario()) {
        let scenario = build_scenario(&g, t, &cast);
        let report = scenario.sim().run();
        let byzantine = scenario.byzantine_nodes();
        let participants = scenario.sim().participants();
        let mut oracle = ConnectivityOracle::new();
        let mut checked = 0;
        for p in &participants {
            let node = p.nectar();
            if byzantine.contains(&node.node_id()) {
                continue;
            }
            let expected = node.decide_with(&mut oracle);
            prop_assert_eq!(
                report.decisions().get(&node.node_id()),
                Some(&expected),
                "node {}", node.node_id()
            );
            checked += 1;
        }
        prop_assert_eq!(report.decisions().len(), checked);
        prop_assert_eq!(report.oracle().queries, oracle.stats().queries);
        prop_assert_eq!(report.oracle().cache_hits, oracle.stats().cache_hits);
    }
}

/// `.epochs(k)` equals its long-hand form: k single-epoch sessions with
/// key seeds `base + e` sharing one oracle.
#[test]
fn epochs_equal_sessions_with_consecutive_key_seeds_sharing_one_oracle() {
    let g = gen::harary(4, 10).unwrap();
    let scenario =
        Scenario::new(g.clone(), 2).with_key_seed(31).with_byzantine(4, ByzantineBehavior::Silent);
    let report = scenario.sim().runtime(Runtime::Event).epochs(3).run();
    let mut oracle = ConnectivityOracle::new();
    for epoch in 0..3 {
        let session = Scenario::new(g.clone(), 2)
            .with_key_seed(31 + epoch as u64)
            .with_byzantine(4, ByzantineBehavior::Silent)
            .sim()
            .runtime(Runtime::Event)
            .oracle(&mut oracle)
            .run();
        let (e, long_hand) = (&report.epochs[epoch], session.last());
        assert_eq!(e.key_seed, long_hand.key_seed, "epoch {epoch}");
        assert_eq!(e.decisions, long_hand.decisions, "epoch {epoch}");
        assert_eq!(e.metrics, long_hand.metrics, "epoch {epoch}");
        assert_eq!(e.oracle, long_hand.oracle, "epoch {epoch}");
    }
}

/// Observer hook-order contract, enforced across all three engines: per
/// epoch, `round_committed` for rounds `1..=R` in order (with the exact
/// per-round byte counts of the sync engine), then `node_decided` in
/// ascending node order matching the report, then `epoch_closed` — and the
/// entire stream identical on every runtime and worker count.
#[test]
fn observer_hooks_fire_in_canonical_order_on_all_runtimes() {
    #[derive(Debug, PartialEq, Clone)]
    enum Hook {
        Round { epoch: usize, round: usize, bytes: u64 },
        Node { epoch: usize, node: usize, verdict: Verdict },
        EpochClosed { epoch: usize },
    }

    #[derive(Default)]
    struct Recorder(Vec<Hook>);

    impl RunObserver for Recorder {
        fn round_committed(&mut self, epoch: usize, round: usize, bytes: u64) {
            self.0.push(Hook::Round { epoch, round, bytes });
        }
        fn node_decided(&mut self, epoch: usize, node: usize, decision: &Decision) {
            self.0.push(Hook::Node { epoch, node, verdict: decision.verdict });
        }
        fn epoch_closed(&mut self, epoch: usize, _outcome: &EpochOutcome) {
            self.0.push(Hook::EpochClosed { epoch });
        }
    }

    let scenario = Scenario::new(gen::harary(4, 10).unwrap(), 2)
        .with_key_seed(17)
        .with_byzantine(3, ByzantineBehavior::TwoFaced { silent_toward: [5, 6].into() });
    let rounds = scenario.config().effective_rounds();

    let record = |runtime: Runtime| {
        let mut recorder = Recorder::default();
        let report = scenario.sim().runtime(runtime).epochs(2).observe(&mut recorder).run();
        (recorder.0, report)
    };

    let (reference, report) = record(Runtime::Sync);
    // Shape: per epoch, R rounds, then one Node per correct node, then the
    // epoch close — nothing interleaved, nothing out of order.
    let correct = report.epochs[0].decisions.len();
    assert_eq!(reference.len(), 2 * (rounds + correct + 1));
    for epoch in 0..2 {
        let base = epoch * (rounds + correct + 1);
        for r in 0..rounds {
            match &reference[base + r] {
                Hook::Round { epoch: e, round, bytes } => {
                    assert_eq!((*e, *round), (epoch, r + 1));
                    let recorded =
                        report.epochs[epoch].metrics.bytes_per_round().get(r).copied().unwrap_or(0);
                    assert_eq!(*bytes, recorded, "epoch {epoch} round {}", r + 1);
                }
                other => panic!("expected round commit at {}, got {other:?}", base + r),
            }
        }
        let nodes: Vec<usize> = report.epochs[epoch].decisions.keys().copied().collect();
        for (i, &expected_node) in nodes.iter().enumerate() {
            match &reference[base + rounds + i] {
                Hook::Node { epoch: e, node, .. } => {
                    assert_eq!((*e, *node), (epoch, expected_node));
                }
                other => panic!("expected node decision, got {other:?}"),
            }
        }
        assert_eq!(reference[base + rounds + correct], Hook::EpochClosed { epoch });
    }

    // And the identical stream on every other engine / worker count.
    for runtime in
        [Runtime::Event, Runtime::Parallel { workers: 1 }, Runtime::Parallel { workers: 3 }]
    {
        let (stream, _) = record(runtime);
        assert_eq!(stream, reference, "{runtime}: hook stream drifted");
    }
}
