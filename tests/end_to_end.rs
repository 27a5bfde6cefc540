//! Cross-crate end-to-end tests: full NECTAR executions checked against
//! ground truth computed directly on the topology. They run on the sync
//! runtime; `tests/runtimes.rs` holds every other runtime to its reports.

use nectar::graph::ConnectivityOracle;
use nectar::prelude::*;

/// Honest scenarios whose verdict Definition 3 forces: κ ≥ 2t (clear) or
/// κ ≤ t (flag).
fn forced_cases() -> Vec<(&'static str, Graph, usize)> {
    vec![
        ("cycle t=1", gen::cycle(7), 1),
        ("star t=1", gen::star(7), 1),
        ("path t=1", gen::path(6), 1),
        ("harary(4,12) t=2", gen::harary(4, 12).unwrap(), 2),
        ("wheel GW(5,12) t=2", gen::generalized_wheel(5, 12).unwrap(), 2),
        ("two paths t=1", Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap(), 1),
    ]
}

#[test]
fn forced_verdicts_on_the_sync_runtime() {
    let mut oracle = ConnectivityOracle::new();
    for (name, g, t) in forced_cases() {
        let out = Scenario::new(g, t).sim().run();
        let broken = out.definition3_violations(&mut oracle).expect("an honest static run");
        assert!(broken.is_empty(), "{name} broke {broken:?}: {:?}", out.decisions());
    }
}

#[test]
fn confirmed_partition_in_a_severed_drone_swarm() {
    use nectar::graph::rng::Rng;
    let mut rng = Rng::seed_from_u64(5);
    let placement = gen::drone_scenario(16, 6.0, 2.4, &mut rng).unwrap();
    let out = Scenario::new(placement.graph, 1).sim().run();
    assert_eq!(out.unanimous_verdict(), Some(Verdict::Partitionable));
    assert!(out.decisions().values().all(|d| d.confirmed));
    // A confirmed partition with no cast is valid only on a disconnected G.
    assert_eq!(out.definition3_violations(&mut ConnectivityOracle::new()), Ok(vec![]));
}

#[test]
fn byzantine_bridge_keeps_all_correct_nodes_on_partitionable() {
    // The §V-D bridge attack at integration scale.
    let s = nectar::experiments::bridged_partition(17, 2, 3, 11);
    let silent: std::collections::BTreeSet<usize> = s.part_b.iter().copied().collect();
    let mut scenario = Scenario::new(s.graph, 2).with_key_seed(11);
    for &b in &s.byzantine {
        scenario = scenario
            .with_byzantine(b, ByzantineBehavior::TwoFaced { silent_toward: silent.clone() });
    }
    let out = scenario.sim().run();
    assert!(out.agreement());
    assert_eq!(out.unanimous_verdict(), Some(Verdict::Partitionable));
    // Side A saw everything (r = n, unconfirmed); side B saw a hole
    // (confirmed). Both verdicts agree, as Lemma 3 requires.
    assert!(out.decisions().values().any(|d| d.confirmed));
    assert!(out.decisions().values().any(|d| !d.confirmed));
}

#[test]
fn traffic_metrics_are_plausible() {
    let g = gen::harary(4, 16).unwrap();
    let out = Scenario::new(g.clone(), 2).sim().run();
    let m = out.metrics();
    assert_eq!(m.illegal_sends(), 0);
    assert!(m.total_bytes_sent() > 0);
    // Every node must have sent something (it has 4 neighbors to announce).
    assert!(m.bytes_sent().iter().all(|&b| b > 0));
    // Dissemination stops at the diameter: later rounds are silent.
    let diameter = traversal::diameter(&g).unwrap();
    let per_round = m.bytes_per_round();
    assert!(
        per_round.len() <= diameter + 1,
        "rounds active: {} > diameter {}",
        per_round.len(),
        diameter
    );
}

#[test]
fn decisions_report_consistent_r_and_k() {
    let g = gen::harary(4, 10).unwrap();
    let t = 2;
    let out = Scenario::new(g.clone(), t).sim().run();
    let kappa = connectivity::vertex_connectivity(&g);
    assert!(kappa > t, "harary(4, 10) is 4-connected");
    for d in out.decisions().values() {
        assert_eq!(d.reachable, 10);
        // The scenario's decision phase runs through the connectivity
        // oracle, which reports the witness bound t + 1 ("κ is at least
        // this") rather than the exact κ — the verdict threshold agrees.
        assert!(
            d.connectivity > t && d.connectivity <= kappa,
            "oracle bound {} must sit in (t, κ] = ({t}, {kappa}]",
            d.connectivity
        );
    }
    // The reference path on the same discovered graph reports exact κ.
    let mut oracle = nectar::graph::ConnectivityOracle::new();
    for p in Scenario::new(g, t).sim().participants() {
        let node = p.nectar();
        assert_eq!(node.decide().connectivity, kappa);
        assert_eq!(node.decide_with(&mut oracle).verdict, node.decide().verdict);
    }
}
