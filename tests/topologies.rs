//! NECTAR across every §V-B topology family: decisions must track each
//! family's connectivity exactly.

use nectar::graph::ConnectivityOracle;
use nectar::prelude::*;

/// `(name, graph, κ)` for each family instance used in the tests.
fn family_zoo() -> Vec<(String, Graph)> {
    let mut zoo: Vec<(String, Graph)> = Vec::new();
    for (k, n) in [(2usize, 10usize), (4, 16)] {
        zoo.push((format!("harary({k},{n})"), gen::harary(k, n).unwrap()));
    }
    zoo.push(("pasted_tree(3,18)".into(), gen::k_pasted_tree(3, 18).unwrap()));
    zoo.push(("diamond(3,18)".into(), gen::k_diamond(3, 18).unwrap()));
    zoo.push(("gw(4,12)".into(), gen::generalized_wheel(4, 12).unwrap()));
    zoo.push(("mw(4,12)".into(), gen::multipartite_wheel(4, 12, 2).unwrap()));
    let mut rng = nectar::graph::rng::Rng::seed_from_u64(17);
    zoo.push((
        "random_regular(4,14)".into(),
        gen::random_regular_connected(4, 14, &mut rng, 50).unwrap(),
    ));
    zoo
}

#[test]
fn honest_runs_discover_the_exact_topology() {
    for (name, g) in family_zoo() {
        let participants = Scenario::new(g.clone(), 1).sim().participants();
        for p in &participants {
            assert_eq!(
                p.nectar().discovered_graph(),
                g,
                "{name}: node {} has a wrong view",
                p.nectar().node_id()
            );
        }
    }
}

/// An honest run on `g` at budget `t` breaks no property of Definition 3.
/// Without a cast that pins the verdict whenever `κ ≥ 2t` (clear) or
/// `κ ≤ t` (flag).
fn assert_definition3(oracle: &mut ConnectivityOracle, g: &Graph, t: usize, label: &str) {
    let out = Scenario::new(g.clone(), t).sim().run();
    let broken = out.definition3_violations(oracle).expect("an honest static run");
    assert!(broken.is_empty(), "{label} (t = {t}) broke {broken:?}: {:?}", out.decisions());
}

#[test]
fn verdicts_track_connectivity_thresholds() {
    let mut oracle = ConnectivityOracle::new();
    for (name, g) in family_zoo() {
        // 2t ≤ κ at t = ⌊κ/2⌋, κ ≤ t at t = κ.
        let kappa = connectivity::vertex_connectivity(&g);
        for t in [kappa / 2, kappa] {
            assert_definition3(&mut oracle, &g, t, &name);
        }
    }
}

#[test]
fn generated_families_have_documented_connectivity() {
    // The generator-level guarantees the experiments rely on.
    assert_eq!(connectivity::vertex_connectivity(&gen::harary(4, 16).unwrap()), 4);
    assert_eq!(connectivity::vertex_connectivity(&gen::generalized_wheel(4, 12).unwrap()), 4);
    assert_eq!(connectivity::vertex_connectivity(&gen::multipartite_wheel(5, 14, 3).unwrap()), 5);
    assert!(connectivity::vertex_connectivity(&gen::k_pasted_tree(3, 18).unwrap()) >= 3);
    assert!(connectivity::vertex_connectivity(&gen::k_diamond(3, 18).unwrap()) >= 3);
}

#[test]
fn wheel_center_byzantine_clique_cannot_hide_spoke_edges() {
    // The wheels are "the worst-case scenarios while considering Byzantine
    // faults": the hub clique can be entirely Byzantine. But every
    // hub–ring edge has a correct endpoint that announces it, so hiding
    // their own edges only removes the 3 hub–hub edges — which leaves
    // κ at 5 (hubs stay linked through the ring). With t = 3 < κ = 5 < 2t
    // this is the paper's case 3: the unanimous NOT_PARTITIONABLE verdict
    // is spec-compliant.
    let g = gen::generalized_wheel(5, 14).unwrap();
    let mut scenario = Scenario::new(g, 3);
    for hub in 0..3 {
        scenario = scenario
            .with_byzantine(hub, ByzantineBehavior::HideEdges { toward: (0..14).collect() });
    }
    let out = scenario.sim().run();
    assert!(out.agreement());
    assert_eq!(out.unanimous_verdict(), Some(Verdict::NotPartitionable));
}

#[test]
fn hidden_byzantine_byzantine_edge_forces_conservative_verdict() {
    // §IV "Impact of Byzantine deviations": edges connecting two Byzantine
    // nodes might never be discovered, making correct nodes decide
    // PARTITIONABLE while the network is actually connected. Barbell:
    // clique {0,1,2} – 3 – 4 – clique {5,6,7}, with 3 and 4 Byzantine and
    // both hiding their shared edge.
    let g = Graph::from_edges(
        8,
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 7)],
    )
    .unwrap();
    let out = Scenario::new(g, 2)
        .with_byzantine(3, ByzantineBehavior::HideEdges { toward: [4].into() })
        .with_byzantine(4, ByzantineBehavior::HideEdges { toward: [3].into() })
        .sim()
        .run();
    assert!(out.agreement());
    assert_eq!(out.unanimous_verdict(), Some(Verdict::Partitionable));
    // The views see a disconnected graph (edge (3,4) missing), so the
    // partition is "confirmed" — and Validity holds: {3,4} really is a
    // vertex cut of the true graph.
    assert!(out.decisions().values().all(|d| d.confirmed));
    assert!(out.byzantine_cast_is_vertex_cut());
}

#[test]
fn lhg_families_finish_earlier_than_k_regular() {
    // The §V-C observation driving the topology cost gap: low diameter ⇒
    // early quiescence ⇒ shorter chains.
    let k = 4;
    let n = 48;
    let regular = Scenario::new(gen::harary(k, n).unwrap(), 1).sim().metrics_only().run();
    let pasted = Scenario::new(gen::k_pasted_tree(k, n).unwrap(), 1).sim().metrics_only().run();
    let active_rounds = |m: &RunReport| m.metrics().bytes_per_round().len();
    assert!(
        active_rounds(&pasted) < active_rounds(&regular),
        "pasted tree ({}) should finish before the k-regular graph ({})",
        active_rounds(&pasted),
        active_rounds(&regular)
    );
}

#[test]
fn drone_graphs_over_the_whole_distance_range() {
    use nectar::graph::rng::Rng;
    let mut rng = Rng::seed_from_u64(23);
    let mut oracle = ConnectivityOracle::new();
    for d in [0.0, 2.0, 4.0, 6.0] {
        // At t = 1 every κ is ≥ 2t or ≤ t: the verdict is forced.
        let placement = gen::drone_scenario(14, d, 2.4, &mut rng).unwrap();
        assert_definition3(&mut oracle, &placement.graph, 1, &format!("d = {d}"));
    }
}

#[test]
fn nectar_handles_the_extended_topology_families() {
    use nectar::graph::rng::Rng;
    let mut rng = Rng::seed_from_u64(31);
    let zoo: Vec<(&str, Graph)> = vec![
        ("torus(4,5)", gen::torus(4, 5).unwrap()),
        ("grid(4,5)", gen::grid(4, 5)),
        ("watts_strogatz(16,4,0.2)", gen::watts_strogatz(16, 4, 0.2, &mut rng).unwrap()),
        ("barabasi_albert(16,2)", gen::barabasi_albert(16, 2, &mut rng).unwrap()),
    ];
    let mut oracle = ConnectivityOracle::new();
    for (name, g) in zoo {
        if !traversal::is_connected(&g) {
            continue; // rewiring can rarely disconnect; skip those samples
        }
        assert_definition3(&mut oracle, &g, 1, name);
        // Honest runs always reconstruct the exact topology.
        let participants = Scenario::new(g.clone(), 1).sim().participants();
        assert!(participants.iter().all(|p| p.nectar().discovered_graph() == g), "{name}");
    }
}

#[test]
fn torus_with_byzantine_neighborhood_is_flagged() {
    // 4x4 torus (κ = 4): node 0's full neighborhood {1, 3, 4, 12} is a
    // minimum vertex cut; with t = 4 Byzantine nodes sitting on it, Safety
    // forces PARTITIONABLE everywhere.
    let g = gen::torus(4, 4).unwrap();
    let cut = [1usize, 3, 4, 12];
    assert!(traversal::is_partitioned_without(&g, &cut));
    let mut scenario = Scenario::new(g, 4);
    for b in cut {
        scenario = scenario.with_byzantine(b, ByzantineBehavior::Silent);
    }
    let out = scenario.sim().run();
    assert!(out.agreement());
    assert_eq!(out.unanimous_verdict(), Some(Verdict::Partitionable));
}

/// Structural properties of the four extra-zoo generators the experiment
/// matrix sweeps: node/edge counts, degree bounds, connectivity and seed
/// determinism, over randomized parameter grids.
mod generator_properties {
    use nectar::graph::rng::Rng;
    use nectar::prelude::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn grids_have_exact_shape_and_stay_connected(rows in 2usize..7, cols in 2usize..7) {
            let g = gen::grid(rows, cols);
            prop_assert_eq!(g.node_count(), rows * cols);
            prop_assert_eq!(g.edge_count(), rows * (cols - 1) + cols * (rows - 1));
            prop_assert!(traversal::is_connected(&g));
            // Corners have degree 2, interior nodes 4, nothing beyond.
            for v in 0..g.node_count() {
                prop_assert!((2..=4).contains(&g.degree(v)), "degree({v}) = {}", g.degree(v));
            }
            prop_assert_eq!(g.degree(0), 2);
        }

        #[test]
        fn tori_are_four_regular_and_connected(rows in 3usize..7, cols in 3usize..7) {
            let g = gen::torus(rows, cols).unwrap();
            prop_assert_eq!(g.node_count(), rows * cols);
            prop_assert_eq!(g.edge_count(), 2 * rows * cols);
            prop_assert!(traversal::is_connected(&g));
            for v in 0..g.node_count() {
                prop_assert_eq!(g.degree(v), 4);
            }
        }

        #[test]
        fn watts_strogatz_keeps_its_size_and_degree_floor(
            n in 8usize..40,
            half_k in 1usize..4,
            p_per_mille in 0u16..=1000,
            seed in 0u64..u64::MAX,
        ) {
            let k = 2 * half_k;
            prop_assume!(k < n);
            let p = p_per_mille as f64 / 1000.0;
            let g = gen::watts_strogatz(n, k, p, &mut Rng::seed_from_u64(seed)).unwrap();
            prop_assert_eq!(g.node_count(), n);
            // Rewiring moves edges, it never mints them.
            prop_assert!(g.edge_count() <= n * k / 2);
            // A node's rewired edge can land on a target one of its later
            // lattice edges would also pick (the duplicate is skipped), so
            // only the first clockwise attempt is unconditional: nobody is
            // ever isolated.
            for v in 0..n {
                prop_assert!(g.degree(v) >= 1, "node {v} isolated");
            }
            // p = 0 must reproduce the exact ring lattice.
            if p_per_mille == 0 {
                prop_assert_eq!(g.edge_count(), n * k / 2);
                prop_assert!(traversal::is_connected(&g));
                for v in 0..n {
                    prop_assert_eq!(g.degree(v), k);
                }
            }
            // Seed determinism: the same stream rebuilds the same graph.
            let again = gen::watts_strogatz(n, k, p, &mut Rng::seed_from_u64(seed)).unwrap();
            prop_assert_eq!(again, g);
        }

        #[test]
        fn barabasi_albert_grows_connected_graphs(
            n in 4usize..40,
            m in 1usize..4,
            seed in 0u64..u64::MAX,
        ) {
            prop_assume!(m < n);
            let g = gen::barabasi_albert(n, m, &mut Rng::seed_from_u64(seed)).unwrap();
            prop_assert_eq!(g.node_count(), n);
            // Between "every latecomer found one target" and "every
            // latecomer attached all m distinct targets".
            let clique = m * (m - 1) / 2;
            prop_assert!(g.edge_count() >= clique + (n - m));
            prop_assert!(g.edge_count() <= clique + (n - m) * m);
            // Preferential attachment always reaches the existing
            // component, so the graph is connected end to end.
            prop_assert!(traversal::is_connected(&g));
            for v in m..n {
                prop_assert!(g.degree(v) >= 1);
            }
            let again = gen::barabasi_albert(n, m, &mut Rng::seed_from_u64(seed)).unwrap();
            prop_assert_eq!(again, g);
        }
    }
}
