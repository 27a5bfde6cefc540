//! Cross-runtime equivalence and scale properties.
//!
//! The three engines — deterministic sync, event-driven, work-stealing
//! parallel — promise *bit-identical* [`RunReport`]s for any scenario
//! (same decisions, same traffic metrics, same oracle counters); the
//! contract each upholds is written down in `docs/DETERMINISM.md`.
//! This suite enforces that promise over the full topology generator zoo
//! (Harary, wheels, LHG pasted-tree/diamond, geometric drone,
//! random-regular, dense random) and the Byzantine behaviour zoo — the
//! parallel engine at several worker counts, since worker count must never
//! leak into results — and pins down the scale claim: the event-driven and
//! parallel runtimes host a 10 000-node scenario in one process.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

use nectar::prelude::*;

/// One graph from each family of the §V-B generator zoo.
fn arb_zoo_graph() -> impl Strategy<Value = Graph> {
    let mask_graph = (4usize..10).prop_flat_map(|n| {
        let pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
        proptest::collection::vec(0.0f64..1.0, pairs.len()).prop_map(move |weights| {
            let edges = pairs.iter().zip(&weights).filter_map(|(&e, &w)| (w < 0.45).then_some(e));
            Graph::from_edges(n, edges).expect("edges in range")
        })
    });
    prop_oneof![
        (2usize..5, 0usize..8)
            .prop_map(|(k, extra)| gen::harary(k, k + 2 + extra).expect("valid harary")),
        (3usize..5, 0usize..6).prop_map(|(k, extra)| {
            gen::generalized_wheel(k, (2 * k + 2 + extra).max(k + 3)).expect("valid wheel")
        }),
        (0usize..6).prop_map(|extra| {
            gen::multipartite_wheel(4, 10 + extra, 2).expect("valid multipartite wheel")
        }),
        (2usize..4, 0usize..6)
            .prop_map(|(k, extra)| gen::k_pasted_tree(k, 2 * k + 4 + extra).expect("valid lhg")),
        (2usize..4, 0usize..6)
            .prop_map(|(k, extra)| gen::k_diamond(k, 2 * k + 4 + extra).expect("valid diamond")),
        (0u64..1000, 0usize..7).prop_map(|(seed, d)| {
            let mut rng = StdRng::seed_from_u64(seed);
            gen::drone_scenario(10, d as f64, 2.0, &mut rng).expect("valid drone").graph
        }),
        (0u64..1000, 3usize..5).prop_map(|(seed, k)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = if k % 2 == 1 { 12 } else { 13 };
            gen::random_regular(k, n, &mut rng).expect("valid random regular")
        }),
        mask_graph,
    ]
}

/// A Byzantine cast from the behaviour zoo (topology-independent variants;
/// partner-free falsifiers lie "down" only, so any placement is legal).
fn arb_cast(n: usize, t: usize) -> impl Strategy<Value = Vec<(usize, ByzantineBehavior)>> {
    let behavior = (0..6usize, proptest::collection::btree_set(0..n, 0..3), 1..4usize).prop_map(
        move |(kind, others, round)| {
            let others: BTreeSet<usize> = others;
            match kind {
                0 => ByzantineBehavior::Silent,
                1 => ByzantineBehavior::CrashAfter { round },
                2 => ByzantineBehavior::TwoFaced { silent_toward: others },
                3 => ByzantineBehavior::HideEdges { toward: others },
                4 => ByzantineBehavior::FalsifyData {
                    flips_per_mille: (round * 250) as u16,
                    seed: round as u64,
                    partners: vec![],
                },
                _ => ByzantineBehavior::Equivocate { victims: others },
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
    let mut scenario = Scenario::new(g.clone(), t).with_key_seed(77);
    for (node, behavior) in cast {
        scenario = scenario.with_byzantine(*node, behavior.clone());
    }
    scenario
}

fn assert_reports_identical(a: &RunReport, b: &RunReport, label: &str) {
    assert_eq!(a.decisions(), b.decisions(), "{label}: decisions differ");
    assert_eq!(a.metrics(), b.metrics(), "{label}: metrics differ");
    assert_eq!(a.byzantine, b.byzantine, "{label}: casts differ");
    assert_eq!(a.oracle(), b.oracle(), "{label}: oracle counters differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// sync == event == parallel, bit for bit, across the generator zoo
    /// and the Byzantine behaviour zoo. The parallel engine
    /// runs at a case-varied worker count: results must not depend on how
    /// the pool is sized (or on which worker stole which node).
    #[test]
    fn all_runtimes_produce_identical_outcomes(
        (g, t, cast) in arb_scenario(),
        workers in 1usize..5,
    ) {
        let scenario = build_scenario(&g, t, &cast);
        let sync = scenario.sim().runtime(Runtime::Sync).run();
        let event = scenario.sim().runtime(Runtime::Event).run();
        let parallel = scenario.sim().workers(workers).run();
        assert_reports_identical(&sync, &event, "sync vs event");
        assert_reports_identical(&sync, &parallel, "sync vs parallel");
    }
}

/// The colluding behaviours the random cast cannot produce (they constrain
/// which nodes must be Byzantine) still agree across runtimes — LateReveal
/// in particular sends *spontaneously*, the hard case for event and
/// parallel scheduling alike.
#[test]
fn colluding_casts_agree_across_runtimes() {
    let g = gen::cycle(8);
    let build = || {
        Scenario::new(g.clone(), 2)
            .with_key_seed(13)
            .with_byzantine(0, ByzantineBehavior::LateReveal { partner: 1, others: vec![] })
            .with_byzantine(1, ByzantineBehavior::FictitiousEdges { partners: vec![0] })
    };
    let sync = build().sim().run();
    let event = build().sim().runtime(Runtime::Event).run();
    let parallel = build().sim().workers(3).run();
    assert_reports_identical(&sync, &event, "sync vs event");
    assert_reports_identical(&sync, &parallel, "sync vs parallel");

    // The colluding data-falsifying cast (matrix attack zoo): partnered
    // falsifiers on the articulation placement fabricate "up" measurements
    // at build time and suppress real ones per coin flip — the
    // announcement stream itself depends on the cast, so every engine
    // must reproduce it byte for byte.
    let g = gen::path(8);
    let build = || {
        let mut scenario = Scenario::new(g.clone(), 2).with_key_seed(13);
        for (node, behavior) in nectar_experiments::articulation_falsifier_cast(&g, 2, 700, 13) {
            scenario = scenario.with_byzantine(node, behavior);
        }
        scenario
    };
    let sync = build().sim().run();
    let event = build().sim().runtime(Runtime::Event).run();
    let parallel = build().sim().workers(3).run();
    assert_reports_identical(&sync, &event, "falsifier: sync vs event");
    assert_reports_identical(&sync, &parallel, "falsifier: sync vs parallel");
}

/// The scale claim of the event-driven runtime: an n = 10 000 node scenario
/// completes in one process, with the paper's full `n − 1 = 9 999` round horizon, because
/// dissemination quiesces cluster-locally and the scheduler only pays for
/// active events.
#[test]
fn ten_thousand_node_scenario_completes_on_the_event_runtime() {
    let n = 10_000;
    let g = gen::disjoint_cliques(n / 4, 4);
    let out = Scenario::new(g, 2)
        .with_key_seed(42)
        .with_byzantine(0, ByzantineBehavior::Silent)
        .with_byzantine(4, ByzantineBehavior::TwoFaced { silent_toward: [5].into() })
        .sim()
        .runtime(Runtime::Event)
        .run();
    assert_eq!(out.decisions().len(), n - 2);
    assert!(out.agreement());
    // Ground truth: the fleet is maximally partitioned; every correct node
    // sees only its own cluster and confirms the partition.
    assert_eq!(out.unanimous_verdict(), Some(Verdict::Partitionable));
    assert!(out.decisions().values().all(|d| d.confirmed));
    assert!(out.decisions().values().all(|d| d.reachable <= 4));
    assert!(out.metrics().total_bytes_sent() > 0);
}

/// The same 10 000-node scenario on the parallel runtime: the work-stealing
/// pool must host it just as the event loop does (active-set scheduling
/// skips the quiesced tail of the 9 999-round horizon), with the identical
/// outcome — decision phase included, whose per-class work fans out over
/// the same pool.
#[test]
fn ten_thousand_node_scenario_completes_on_the_parallel_runtime() {
    let n = 10_000;
    let g = gen::disjoint_cliques(n / 4, 4);
    let out = Scenario::new(g, 2)
        .with_key_seed(42)
        .with_byzantine(0, ByzantineBehavior::Silent)
        .with_byzantine(4, ByzantineBehavior::TwoFaced { silent_toward: [5].into() })
        .sim()
        .workers(2)
        .run();
    assert_eq!(out.decisions().len(), n - 2);
    assert!(out.agreement());
    assert_eq!(out.unanimous_verdict(), Some(Verdict::Partitionable));
    assert!(out.decisions().values().all(|d| d.confirmed));
    assert!(out.decisions().values().all(|d| d.reachable <= 4));
    assert!(out.metrics().total_bytes_sent() > 0);
}

/// `Runtime`'s `Display`/`FromStr` pair is the CLI `--runtime` vocabulary
/// *and* the name persisted in `RunReport`/`MatrixReport` JSON — it must
/// round-trip for every variant, worker counts included, so the flag and
/// the report format cannot silently drift apart.
#[test]
fn runtime_display_fromstr_round_trips_every_variant() {
    let variants = [
        Runtime::Sync,
        Runtime::Event,
        Runtime::Parallel { workers: 0 },
        Runtime::Parallel { workers: 1 },
        Runtime::Parallel { workers: 2 },
        Runtime::Parallel { workers: 7 },
        Runtime::Parallel { workers: 64 },
    ];
    for rt in variants {
        let name = rt.to_string();
        assert_eq!(name.parse::<Runtime>().unwrap(), rt, "{name} does not round-trip");
    }
    // The canonical spellings are pinned: a worker count is carried as
    // `parallel:<W>`, while the match-the-machine pool keeps the
    // historical bare name (so old persisted reports still parse).
    assert_eq!(Runtime::Sync.to_string(), "sync");
    assert_eq!(Runtime::Event.to_string(), "event");
    assert_eq!(Runtime::parallel().to_string(), "parallel");
    assert_eq!(Runtime::Parallel { workers: 3 }.to_string(), "parallel:3");
    assert_eq!("parallel".parse::<Runtime>().unwrap(), Runtime::Parallel { workers: 0 });
    assert_eq!("parallel:12".parse::<Runtime>().unwrap(), Runtime::Parallel { workers: 12 });
    // Malformed names are errors, not defaults.
    // ("threaded" named a retired engine.)
    for bad in
        ["", "warp", "threaded", "Parallel", "parallel:", "parallel:x", "parallel:-1", "sync "]
    {
        assert!(bad.parse::<Runtime>().is_err(), "{bad:?} was accepted");
    }
}
