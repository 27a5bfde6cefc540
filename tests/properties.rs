//! Property-based tests of Definition 3: Termination, Agreement, Safety,
//! 2t-Sensitivity and Validity over random graphs, random Byzantine casts
//! and the full behaviour zoo of `tests/common`. Each of the Safety,
//! 2t-Sensitivity and Validity tests draws the inputs that exercise its
//! property and asserts it through the one checker,
//! `RunReport::definition3_violations`.

mod common;

use std::collections::BTreeSet;

use proptest::prelude::*;

use common::{arb_mask_graph as arb_graph, arb_scenario_over, ZooScenario};
use nectar::graph::ConnectivityOracle;
use nectar::prelude::*;

/// Runs `cast` on `g`; a node cast twice keeps its first behaviour.
fn run_with_cast(g: &Graph, t: usize, cast: &[(usize, ByzantineBehavior)]) -> RunReport {
    let mut scenario = Scenario::new(g.clone(), t).with_key_seed(7);
    let mut seen = BTreeSet::new();
    for (node, behavior) in cast.iter().filter(|(node, _)| seen.insert(*node)) {
        scenario = scenario.with_byzantine(*node, behavior.clone());
    }
    scenario.sim().run()
}

/// Whether the run keeps `property`, as the checker states it.
fn keeps(out: &RunReport, property: Property) -> bool {
    let broken = out.definition3_violations(&mut ConnectivityOracle::new());
    !broken.expect("a static cast within t").contains(&property)
}

/// A random graph, the Byzantine budget `t` used to size its cast, and a
/// cast drawn from the full behaviour zoo (all eight, colluders included).
fn arb_graph_and_cast(max_n: usize) -> impl Strategy<Value = ZooScenario> {
    arb_scenario_over(arb_graph(max_n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Agreement over the *full* behaviour zoo: casts sampled by
    /// [`arb_cast`] include CrashAfter and Equivocate, which the
    /// seed-derived cast below cannot produce.
    #[test]
    fn agreement_under_zoo_casts((g, t, cast) in arb_graph_and_cast(9)) {
        let out = run_with_cast(&g, t, &cast);
        prop_assert!(out.agreement(), "verdicts: {:?}", out.decisions());
    }

    /// Agreement: all correct nodes decide the same verdict, whatever the
    /// Byzantine cast does. (Termination is implicit: `run` returns after
    /// exactly n − 1 rounds.)
    #[test]
    fn agreement_under_arbitrary_casts(
        g in arb_graph(9),
        cast_seed in 0u64..1000,
    ) {
        let n = g.node_count();
        let t = 2.min(n / 3);
        // Derive a cast deterministically from the seed to keep shrinking sane.
        let cast: Vec<(usize, ByzantineBehavior)> = (0..t)
            .map(|i| {
                let node = ((cast_seed as usize).wrapping_mul(31).wrapping_add(i * 7)) % n;
                let behavior = match (cast_seed as usize + i) % 3 {
                    0 => ByzantineBehavior::Silent,
                    1 => ByzantineBehavior::TwoFaced {
                        silent_toward: (0..n / 2).collect(),
                    },
                    _ => ByzantineBehavior::HideEdges { toward: (0..n).step_by(2).collect() },
                };
                (node, behavior)
            })
            .collect();
        let out = run_with_cast(&g, t, &cast);
        prop_assert!(out.agreement(), "verdicts: {:?}", out.decisions());
    }

    /// Safety: when the Byzantine nodes form a vertex cut of G, no correct
    /// node may decide NOT_PARTITIONABLE.
    #[test]
    fn safety_when_byzantine_cast_is_a_cut(g in arb_graph(9), seed in 0u64..500) {
        let cut = match nectar::graph::connectivity::min_vertex_cut(&g) {
            Some(c) if !c.is_empty() && c.len() <= 3 => c,
            _ => return Ok(()), // complete/disconnected graphs: no usable cut
        };
        let t = cut.len();
        let behavior = if seed % 2 == 0 {
            ByzantineBehavior::Silent
        } else {
            ByzantineBehavior::TwoFaced { silent_toward: (0..g.node_count() / 2).collect() }
        };
        let cast: Vec<_> = cut.into_iter().map(|b| (b, behavior.clone())).collect();
        let out = run_with_cast(&g, t, &cast);
        prop_assert!(out.byzantine_cast_is_vertex_cut());
        prop_assert!(keeps(&out, Property::Safety), "decisions: {:?}", out.decisions());
    }

    /// 2t-Sensitivity: if κ(G) ≥ 2t, every correct node decides
    /// NOT_PARTITIONABLE — even with t actively hostile nodes.
    #[test]
    fn sensitivity_on_2t_connected_graphs(
        k in 2usize..5,
        extra in 0usize..6,
        seed in 0u64..500,
    ) {
        let t = k / 2;
        let n = 2 * k + 2 + extra;
        let g = gen::harary(k, n).expect("k < n by construction");
        let cast: Vec<_> = (0..t)
            .map(|i| {
                let node = (seed as usize + i * 3) % n;
                (node, if seed % 2 == 0 {
                    ByzantineBehavior::Silent
                } else {
                    ByzantineBehavior::HideEdges { toward: (0..n).collect() }
                })
            })
            .collect();
        let out = run_with_cast(&g, t, &cast);
        prop_assert!(keeps(&out, Property::Sensitivity), "decisions: {:?}", out.decisions());
    }

    /// Validity: a correct node computes confirmed = true only when some
    /// subset of the Byzantine cast really is a vertex cut of G (Theorem
    /// 2's reading; a disconnected G is cut by the empty set).
    #[test]
    fn validity_of_confirmed(g in arb_graph(9), seed in 0u64..500) {
        let n = g.node_count();
        let t = 2.min(n / 3);
        let cast: Vec<_> = (0..t)
            .map(|i| {
                let node = (seed as usize * 13 + i * 5) % n;
                (node, ByzantineBehavior::TwoFaced { silent_toward: (n / 2..n).collect() })
            })
            .collect();
        let out = run_with_cast(&g, t, &cast);
        prop_assert!(keeps(&out, Property::Validity), "decisions: {:?}", out.decisions());
    }

    /// The oracle-backed decision phase (what `Scenario::run` executes)
    /// agrees with the exact reference path `NectarNode::decide` on every
    /// correct node, across the full behaviour zoo — verdict, confirmed
    /// flag and reachable count must be identical; only the κ report may
    /// differ (witness bound vs exact value), and both must fall on the
    /// same side of the threshold t.
    #[test]
    fn oracle_and_reference_decision_phases_agree((g, t, cast) in arb_graph_and_cast(9)) {
        let mut scenario = Scenario::new(g.clone(), t).with_key_seed(7);
        for (node, behavior) in &cast {
            scenario = scenario.with_byzantine(*node, behavior.clone());
        }
        let byzantine: BTreeSet<usize> = cast.iter().map(|(node, _)| *node).collect();
        let mut oracle = nectar::graph::ConnectivityOracle::new();
        for p in scenario.sim().participants() {
            let node = p.nectar();
            if byzantine.contains(&node.node_id()) {
                continue;
            }
            let exact = node.decide();
            let fast = node.decide_with(&mut oracle);
            prop_assert_eq!(fast.verdict, exact.verdict, "node {}", node.node_id());
            prop_assert_eq!(fast.confirmed, exact.confirmed);
            prop_assert_eq!(fast.reachable, exact.reachable);
            prop_assert_eq!(fast.connectivity > t, exact.connectivity > t);
        }
    }
}
