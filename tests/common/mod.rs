//! The one generator zoo the integration suites share: §V-B topology
//! families, §IV Byzantine casts over all eight behaviours, and the
//! whole-report equality every equivalence pin uses. Each suite keeps its
//! own properties and case counts; what it draws them over lives here, so
//! a behaviour added to `ByzantineBehavior` reaches every pin at once.

// Each suite is its own crate and uses its own subset.
#![allow(dead_code)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

use nectar::prelude::*;

/// A scenario as the suites draw it: topology, Byzantine budget, cast.
pub type ZooScenario = (Graph, usize, Vec<(usize, ByzantineBehavior)>);

/// A labelled graph on 4 ..= `max_n` nodes, each edge kept with
/// probability 0.45 (may be disconnected, which is a valid input too).
pub fn arb_mask_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (4..=max_n).prop_flat_map(|n| {
        let pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
        proptest::collection::vec(0.0f64..1.0, pairs.len()).prop_map(move |weights| {
            let edges = pairs.iter().zip(&weights).filter_map(|(&e, &w)| (w < 0.45).then_some(e));
            Graph::from_edges(n, edges).expect("edges in range")
        })
    })
}

/// One graph from each family of the §V-B generator zoo, plus the small
/// classics (cycle, star) and a random mask; at most 14 nodes, so a case
/// can afford the full `n − 1` round horizon on every engine.
pub fn arb_zoo_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        (2usize..5, 0usize..6)
            .prop_map(|(k, extra)| gen::harary(k, k + 2 + extra).expect("valid harary")),
        (3usize..5, 0usize..5).prop_map(|(k, extra)| {
            gen::generalized_wheel(k, (2 * k + 2 + extra).max(k + 3)).expect("valid wheel")
        }),
        (0usize..4).prop_map(|extra| {
            gen::multipartite_wheel(4, 10 + extra, 2).expect("valid multipartite wheel")
        }),
        (2usize..4, 0usize..5)
            .prop_map(|(k, extra)| gen::k_pasted_tree(k, 2 * k + 4 + extra).expect("valid lhg")),
        (2usize..4, 0usize..5)
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
        (3usize..11).prop_map(gen::cycle),
        (4usize..10).prop_map(gen::star),
        arb_mask_graph(9),
    ]
}

/// How many behaviours [`behaviour_kind`] tells apart.
pub const BEHAVIOUR_KINDS: usize = 8;

/// The zoo's index of a behaviour. Exhaustive on purpose: a new
/// `ByzantineBehavior` variant fails to compile here until it has an index,
/// and then fails `arb_cast_reaches_every_behaviour` until [`arb_cast`]
/// casts it.
pub fn behaviour_kind(behavior: &ByzantineBehavior) -> usize {
    match behavior {
        ByzantineBehavior::Silent => 0,
        ByzantineBehavior::CrashAfter { .. } => 1,
        ByzantineBehavior::TwoFaced { .. } => 2,
        ByzantineBehavior::HideEdges { .. } => 3,
        ByzantineBehavior::FictitiousEdges { .. } => 4,
        ByzantineBehavior::LateReveal { .. } => 5,
        ByzantineBehavior::Equivocate { .. } => 6,
        ByzantineBehavior::FalsifyData { .. } => 7,
    }
}

/// A Byzantine cast of at most `t` of the `n` nodes, each member drawing
/// one of the eight behaviours. The colluding ones (fictitious edges, late
/// reveal, partnered falsification) take their accomplices from the other
/// members of the same cast, as the runner requires; a member with nobody
/// to collude with keeps the partner-free form of its draw (and a lone
/// late-revealer merely hides its edges).
pub fn arb_cast(n: usize, t: usize) -> impl Strategy<Value = Vec<(usize, ByzantineBehavior)>> {
    let draw =
        (0..BEHAVIOUR_KINDS, proptest::collection::btree_set(0..n, 0..3), 1..5usize, 0..6usize);
    proptest::collection::btree_set(0..n, 0..=t).prop_flat_map(move |nodes| {
        let nodes: Vec<usize> = nodes.into_iter().collect();
        proptest::collection::vec(draw.clone(), nodes.len()).prop_map(move |draws| {
            let members = nodes.iter().copied().enumerate().zip(draws);
            members
                .map(|((at, node), (kind, others, round, pick))| {
                    // The rest of the cast, rotated by the draw: the first
                    // is the partner, the one after it an extra accomplice.
                    let mut rest: Vec<usize> =
                        nodes.iter().copied().filter(|&b| b != node).collect();
                    let turn = (at + pick) % rest.len().max(1);
                    rest.rotate_left(turn);
                    let others: BTreeSet<usize> = others;
                    let behavior = match kind {
                        0 => ByzantineBehavior::Silent,
                        1 => ByzantineBehavior::CrashAfter { round },
                        2 => ByzantineBehavior::TwoFaced { silent_toward: others },
                        3 => ByzantineBehavior::HideEdges { toward: others },
                        4 => ByzantineBehavior::FictitiousEdges { partners: rest },
                        5 => match rest.split_first() {
                            Some((&partner, more)) => ByzantineBehavior::LateReveal {
                                partner,
                                others: more.iter().copied().take(pick % 2).collect(),
                            },
                            None => ByzantineBehavior::HideEdges { toward: others },
                        },
                        6 => ByzantineBehavior::Equivocate { victims: others },
                        _ => ByzantineBehavior::FalsifyData {
                            flips_per_mille: (round * 250) as u16,
                            seed: (round + pick) as u64,
                            partners: rest.into_iter().take(pick % 3).collect(),
                        },
                    };
                    (node, behavior)
                })
                .collect()
        })
    })
}

/// A zoo graph with the budget `t = min(2, n / 3)` and a cast within it.
pub fn arb_scenario() -> impl Strategy<Value = ZooScenario> {
    arb_scenario_over(arb_zoo_graph())
}

/// [`arb_scenario`] over a suite's own graph source.
pub fn arb_scenario_over(
    graphs: impl Strategy<Value = Graph>,
) -> impl Strategy<Value = ZooScenario> {
    graphs.prop_flat_map(|g| {
        let n = g.node_count();
        let t = 2.min(n / 3);
        arb_cast(n, t).prop_map(move |cast| (g.clone(), t, cast))
    })
}

/// The scenario of a drawn case, on a fixed key universe.
pub fn build_scenario(g: &Graph, t: usize, cast: &[(usize, ByzantineBehavior)]) -> Scenario {
    let mut scenario = Scenario::new(g.clone(), t).with_key_seed(77);
    for (node, behavior) in cast {
        scenario = scenario.with_byzantine(*node, behavior.clone());
    }
    scenario
}

/// Everything in two reports but the `runtime` tag — the one field that
/// legitimately names the engine — must match bit for bit: per epoch the
/// ordered decision map, the traffic metrics (`bytes_per_round` included)
/// and the oracle counters, plus cast, topology and schedule record.
pub fn assert_reports_identical(a: &RunReport, b: &RunReport, label: &str) {
    assert_eq!(a.epochs, b.epochs, "{label}: epoch outcomes differ");
    assert_eq!(a.byzantine, b.byzantine, "{label}: casts differ");
    assert_eq!(a.topology, b.topology, "{label}: topologies differ");
    assert_eq!(a.schedule, b.schedule, "{label}: schedule records differ");
    assert_eq!((a.n, a.t, a.key_seed), (b.n, b.t, b.key_seed), "{label}: headers differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// The zoo really is the whole zoo: a few hundred casts hit every
    /// behaviour, the colluding ones with a partner.
    #[test]
    fn arb_cast_reaches_every_behaviour(
        casts in proptest::collection::vec(arb_cast(9, 3), 300),
    ) {
        let members = || casts.iter().flatten();
        let seen: BTreeSet<usize> = members().map(|(_, b)| behaviour_kind(b)).collect();
        prop_assert_eq!(seen, (0..BEHAVIOUR_KINDS).collect::<BTreeSet<_>>());
        let partnered = |b: &ByzantineBehavior| match b {
            ByzantineBehavior::FalsifyData { partners, .. }
            | ByzantineBehavior::FictitiousEdges { partners } => !partners.is_empty(),
            _ => false,
        };
        for kind in [4, 7] {
            let colludes = members().any(|(_, b)| behaviour_kind(b) == kind && partnered(b));
            prop_assert!(colludes, "kind {} never drew a partner", kind);
        }
    }
}
