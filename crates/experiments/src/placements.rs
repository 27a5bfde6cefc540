//! Attack-scenario builders for the resilience experiments (§V-D).
//!
//! Two constructions back Fig. 8:
//!
//! * [`partitioned_with_insiders`]: a drone graph partitioned in two parts,
//!   with `t` Byzantine nodes *inside* the parts, equally distributed — the
//!   setting of the all-ones Bloom-filter attack on MtG;
//! * [`bridged_partition`]: a partitioned subgraph of correct nodes made
//!   connected again by `t` Byzantine *bridge* nodes carrying all
//!   inter-part edges — the setting of the two-faced attack on MtGv2 and
//!   NECTAR ("the graph is at most t-connected, and the Byzantine nodes are
//!   the t key nodes that decide the connectivity parameter").

use nectar_graph::rng::Rng;
use nectar_graph::{connectivity, gen, traversal, ConnectivityOracle, Graph};
use nectar_net::NodeId;
use nectar_protocol::ByzantineBehavior;

/// A partitioned drone graph with Byzantine insiders.
#[derive(Debug, Clone)]
pub struct InsiderScenario {
    /// The (partitioned) communication graph.
    pub graph: Graph,
    /// Byzantine nodes, alternating between the two parts.
    pub byzantine: Vec<NodeId>,
    /// Nodes of the first part (including its Byzantine insiders).
    pub part_a: Vec<NodeId>,
    /// Nodes of the second part.
    pub part_b: Vec<NodeId>,
}

/// Builds the insider scenario: `n` drones in two scatters too far apart to
/// communicate (`d = 6`, `radius = 2.4`), with `t` Byzantine insiders
/// "equally distributed between the two parts" (§V-D).
///
/// # Panics
///
/// Panics if `t` exceeds the size of either part.
pub fn partitioned_with_insiders(n: usize, t: usize, seed: u64) -> InsiderScenario {
    let mut rng = Rng::seed_from_u64(seed);
    let placement =
        gen::drone_scenario(n, 6.0, 2.4, &mut rng).expect("drone parameters are valid constants");
    let part_a: Vec<NodeId> = placement.first_cluster().collect();
    let part_b: Vec<NodeId> = placement.second_cluster().collect();
    assert!(t <= part_a.len().min(part_b.len()) * 2, "too many Byzantine insiders");
    let mut byzantine = Vec::with_capacity(t);
    let mut a_pool = part_a.clone();
    let mut b_pool = part_b.clone();
    rng.shuffle(&mut a_pool);
    rng.shuffle(&mut b_pool);
    for i in 0..t {
        let pool = if i % 2 == 0 { &mut a_pool } else { &mut b_pool };
        byzantine.push(pool.pop().expect("pool size checked above"));
    }
    InsiderScenario { graph: placement.graph, byzantine, part_a, part_b }
}

/// A partitioned correct subgraph re-connected through Byzantine bridges.
#[derive(Debug, Clone)]
pub struct BridgeScenario {
    /// The communication graph: connected, but every inter-part path passes
    /// through a Byzantine bridge.
    pub graph: Graph,
    /// The `t` bridge nodes (ids `n - t .. n`).
    pub byzantine: Vec<NodeId>,
    /// Correct nodes of the first part.
    pub part_a: Vec<NodeId>,
    /// Correct nodes of the second part.
    pub part_b: Vec<NodeId>,
}

/// Builds the bridge scenario with `n` total nodes of which `t ≥ 1` are
/// Byzantine bridges: `n − t` correct drones form two disconnected scatters
/// (`d = 6`, `radius = 2.4`); each bridge gets `links_per_part` edges into
/// random nodes of each part (plus edges among bridges, as Byzantine nodes
/// may declare edges with each other).
///
/// # Panics
///
/// Panics if `t == 0` or the parts are too small for `links_per_part`.
pub fn bridged_partition(n: usize, t: usize, links_per_part: usize, seed: u64) -> BridgeScenario {
    assert!(t >= 1, "bridge scenario requires at least one Byzantine bridge");
    let correct = n - t;
    let mut rng = Rng::seed_from_u64(seed);
    let placement = gen::drone_scenario(correct, 6.0, 2.4, &mut rng)
        .expect("drone parameters are valid constants");
    let part_a: Vec<NodeId> = placement.first_cluster().collect();
    let part_b: Vec<NodeId> = placement.second_cluster().collect();
    assert!(
        links_per_part <= part_a.len() && links_per_part <= part_b.len(),
        "parts too small for {links_per_part} links per part"
    );
    let mut graph = Graph::empty(n);
    for (u, v) in placement.graph.edges() {
        graph.add_edge(u, v).expect("correct-node edges are in range");
    }
    let byzantine: Vec<NodeId> = (correct..n).collect();
    for &b in &byzantine {
        for part in [&part_a, &part_b] {
            // Distinct random endpoints in this part.
            let mut pool = part.clone();
            rng.shuffle(&mut pool);
            for &target in pool.iter().take(links_per_part) {
                graph.add_edge(b, target).expect("in range");
            }
        }
        // Bridges form a clique among themselves.
        for &other in &byzantine {
            if other != b && !graph.has_edge(b, other) {
                graph.add_edge(b, other).expect("in range");
            }
        }
    }
    BridgeScenario { graph, byzantine, part_a, part_b }
}

/// A large clustered fleet: many disjoint cliques with Byzantine insiders.
#[derive(Debug, Clone)]
pub struct ClusteredFleet {
    /// The (maximally partitioned) communication graph.
    pub graph: Graph,
    /// Byzantine insiders, at most one per cluster.
    pub byzantine: Vec<NodeId>,
}

/// Builds a fleet of `clusters` disjoint `size`-cliques with `t` Byzantine
/// insiders placed in `t` distinct random clusters — the large-n setting
/// (thousands to tens of thousands of nodes) that only the event-driven
/// runtime can sweep: every cluster quiesces after ~`size` rounds, so the
/// active-event volume is linear in `n` even though the paper's round
/// horizon is `n − 1`. Ground truth everywhere is a `confirmed` partition.
///
/// # Panics
///
/// Panics if `t` exceeds the cluster count.
pub fn clustered_fleet(clusters: usize, size: usize, t: usize, seed: u64) -> ClusteredFleet {
    assert!(t <= clusters, "at most one Byzantine insider per cluster");
    let graph = gen::disjoint_cliques(clusters, size);
    let mut rng = Rng::seed_from_u64(seed);
    let mut cluster_ids: Vec<usize> = (0..clusters).collect();
    rng.shuffle(&mut cluster_ids);
    let mut byzantine: Vec<NodeId> = cluster_ids
        .into_iter()
        .take(t)
        .map(|c| c * size + (seed as usize + c) % size.max(1))
        .collect();
    byzantine.sort_unstable();
    ClusteredFleet { graph, byzantine }
}

/// Draws `t` distinct random nodes of `g` (for "aleatory placement"
/// experiments).
///
/// # Panics
///
/// Panics if `t > n`.
pub fn random_byzantine_placement(g: &Graph, t: usize, seed: u64) -> Vec<NodeId> {
    let n = g.node_count();
    assert!(t <= n, "cannot pick {t} Byzantine nodes out of {n}");
    let mut rng = Rng::seed_from_u64(seed);
    let mut nodes: Vec<NodeId> = (0..n).collect();
    rng.shuffle(&mut nodes);
    nodes.truncate(t);
    nodes.sort_unstable();
    nodes
}

/// Picks a Byzantine placement that actually cuts the graph when possible:
/// the `t` nodes are a minimum vertex cut padded with random extras (or a
/// random placement if `t < κ(G)`).
///
/// Extras are drawn from the *largest* component left by the cut, so the
/// padding can never swallow a separated side whole and thereby heal the
/// partition (e.g. when the min cut is the neighborhood of a single node,
/// adding that node to the cast would reconnect the rest).
pub fn cut_byzantine_placement(g: &Graph, t: usize, seed: u64) -> Vec<NodeId> {
    cut_byzantine_placement_with(&mut ConnectivityOracle::new(), g, t, seed)
}

/// [`cut_byzantine_placement`] with a caller-supplied oracle: resilience
/// sweeps place casts on the *same* topology dozens of times, so the
/// feasibility check `t ≥ κ(G)` ("does a cut of size ≤ t exist at all?") is
/// a cached, bounded decision instead of an exact `κ` recomputation per
/// run. Only placements that do cut still pay for one exact
/// [`min_vertex_cut`](nectar_graph::connectivity::min_vertex_cut) to obtain
/// the witness nodes.
pub fn cut_byzantine_placement_with(
    oracle: &mut ConnectivityOracle,
    g: &Graph,
    t: usize,
    seed: u64,
) -> Vec<NodeId> {
    // t < κ (no cut of size ≤ t exists) or κ = 0 (already partitioned;
    // "key positions" are meaningless): fall back to a random cast.
    if !oracle.is_t_partitionable(g, t) || !traversal::is_connected(g) {
        return random_byzantine_placement(g, t, seed);
    }
    let cut = nectar_graph::connectivity::min_vertex_cut(g).unwrap_or_default();
    pad_from_largest_component(g, cut, t, seed)
}

/// Pads `chosen` to `t` nodes with extras drawn, seeded by `seed`, from the
/// most populous component left by removing `chosen`, so the padding can
/// never swallow a separated side whole; returns the set sorted.
fn pad_from_largest_component(
    g: &Graph,
    mut chosen: Vec<NodeId>,
    t: usize,
    seed: u64,
) -> Vec<NodeId> {
    if chosen.len() < t {
        let taken: std::collections::BTreeSet<NodeId> = chosen.iter().copied().collect();
        let (ids, count) = traversal::connected_components(&g.without_nodes(&chosen));
        let mut sizes = vec![0usize; count];
        for v in (0..g.node_count()).filter(|v| !taken.contains(v)) {
            sizes[ids[v]] += 1;
        }
        let largest = sizes.iter().enumerate().max_by_key(|&(_, s)| s).map(|(i, _)| i);
        let mut pool: Vec<NodeId> = (0..g.node_count())
            .filter(|v| !taken.contains(v) && largest.is_some_and(|c| ids[*v] == c))
            .collect();
        Rng::seed_from_u64(seed).shuffle(&mut pool);
        // Extras come off the back of the shuffled pool, the order every
        // pinned placement was drawn in; a short pool pads as far as it goes.
        let missing = t - chosen.len();
        chosen.extend(pool.into_iter().rev().take(missing));
    }
    chosen.sort_unstable();
    chosen
}

/// The tree/cut-aware Byzantine placement: liars sit on the graph's
/// *articulation set*. Articulation points are the size-1 vertex cuts, so
/// on tree-like, bridged and chained topologies (where the Kailkhura et al.
/// data-falsification literature places its adversaries) they are exactly
/// the positions from which a single liar controls every inter-component
/// path. The placement takes the articulation points most damaging first —
/// descending degree, then ascending id, both deterministic — and pads a
/// short set with random extras from the largest remaining component (the
/// same no-healing rule as [`cut_byzantine_placement`]). On a biconnected
/// graph (no articulation points at all) it falls back to
/// [`cut_byzantine_placement`] wholesale.
pub fn articulation_byzantine_placement(g: &Graph, t: usize, seed: u64) -> Vec<NodeId> {
    let mut points = connectivity::articulation_points(g);
    if points.is_empty() {
        return cut_byzantine_placement(g, t, seed);
    }
    points.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
    points.truncate(t);
    pad_from_largest_component(g, points, t, seed)
}

/// A full data-falsification cast on the articulation placement: each
/// placed liar runs [`ByzantineBehavior::FalsifyData`] with the given flip
/// probability, a per-node seed derived from `seed`, and every *other* cast
/// member as a colluding partner (fabricated "up" measurements are only
/// forgeable among Byzantine nodes, §II — the scenario runner enforces it).
pub fn articulation_falsifier_cast(
    g: &Graph,
    t: usize,
    flips_per_mille: u16,
    seed: u64,
) -> Vec<(NodeId, ByzantineBehavior)> {
    let placement = articulation_byzantine_placement(g, t, seed);
    placement
        .iter()
        .map(|&node| {
            let partners: Vec<NodeId> = placement.iter().copied().filter(|&p| p != node).collect();
            (node, ByzantineBehavior::FalsifyData { flips_per_mille, seed, partners })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_graph::traversal;

    #[test]
    fn insiders_are_balanced_across_parts() {
        let s = partitioned_with_insiders(20, 4, 1);
        assert!(!traversal::is_connected(&s.graph));
        let in_a = s.byzantine.iter().filter(|b| s.part_a.contains(b)).count();
        let in_b = s.byzantine.iter().filter(|b| s.part_b.contains(b)).count();
        assert_eq!(in_a, 2);
        assert_eq!(in_b, 2);
    }

    #[test]
    fn insider_byzantine_nodes_are_distinct() {
        let s = partitioned_with_insiders(30, 6, 7);
        let mut b = s.byzantine.clone();
        b.sort_unstable();
        b.dedup();
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn bridges_connect_the_graph_but_form_a_cut() {
        let s = bridged_partition(21, 2, 3, 3);
        assert!(traversal::is_connected(&s.graph), "bridges must reconnect the graph");
        assert!(
            traversal::is_partitioned_without(&s.graph, &s.byzantine),
            "removing the bridges must partition the correct nodes"
        );
        // Connectivity is at most t: the bridges are a vertex cut.
        let kappa = nectar_graph::connectivity::vertex_connectivity(&s.graph);
        assert!(kappa <= 2, "κ = {kappa} should not exceed the bridge count");
    }

    #[test]
    fn bridge_scenario_is_seeded_deterministic() {
        let a = bridged_partition(15, 1, 2, 9);
        let b = bridged_partition(15, 1, 2, 9);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.byzantine, b.byzantine);
    }

    #[test]
    fn clustered_fleet_places_insiders_in_distinct_clusters() {
        let s = clustered_fleet(10, 4, 5, 11);
        assert_eq!(s.graph.node_count(), 40);
        assert!(!traversal::is_connected(&s.graph));
        assert_eq!(s.byzantine.len(), 5);
        let mut clusters: Vec<usize> = s.byzantine.iter().map(|b| b / 4).collect();
        clusters.dedup();
        assert_eq!(clusters.len(), 5, "one insider per cluster");
        // Seeded determinism.
        assert_eq!(clustered_fleet(10, 4, 5, 11).byzantine, s.byzantine);
    }

    #[test]
    fn random_placement_is_distinct_and_in_range() {
        let g = gen::cycle(12);
        let byz = random_byzantine_placement(&g, 5, 4);
        assert_eq!(byz.len(), 5);
        assert!(byz.windows(2).all(|w| w[0] < w[1]));
        assert!(byz.iter().all(|&b| b < 12));
    }

    #[test]
    fn cut_placement_cuts_when_budget_allows() {
        let g = gen::star(10);
        let byz = cut_byzantine_placement(&g, 1, 2);
        assert_eq!(byz, vec![0], "the star's hub is the only min cut");
        let g = gen::cycle(8);
        let byz = cut_byzantine_placement(&g, 2, 2);
        assert!(traversal::is_partitioned_without(&g, &byz));
    }

    #[test]
    fn articulation_placement_takes_the_cut_vertices_first() {
        // A path's interior nodes are all articulation points; the highest
        // degree ties break by ascending id, so t = 2 takes nodes 1 and 2.
        let g = gen::path(6);
        assert_eq!(articulation_byzantine_placement(&g, 2, 0), vec![1, 2]);
        // The star's hub is the lone articulation point and a full cut.
        let g = gen::star(9);
        assert_eq!(articulation_byzantine_placement(&g, 1, 3), vec![0]);
        // Two triangles bridged through node 2: the bowtie centre wins over
        // the random fallback every time.
        let bowtie =
            Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]).unwrap();
        let placement = articulation_byzantine_placement(&bowtie, 1, 9);
        assert_eq!(placement, vec![2]);
        assert!(traversal::is_partitioned_without(&bowtie, &placement));
    }

    #[test]
    fn articulation_placement_pads_and_falls_back_deterministically() {
        // A lollipop (4-clique with a 2-edge tail) has two articulation
        // points; t = 3 pads the third from the largest remaining component
        // (the clique side), never healing the split.
        let g =
            Graph::from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
                .unwrap();
        let placement = articulation_byzantine_placement(&g, 3, 5);
        assert_eq!(placement.len(), 3);
        assert!(placement.contains(&3) && placement.contains(&4), "both cut vertices placed");
        assert!(placement.iter().any(|v| [0, 1, 2].contains(v)), "padding from the clique side");
        assert!(traversal::is_partitioned_without(&g, &placement));
        // Biconnected graph: identical to the min-cut placement.
        let ring = gen::cycle(8);
        assert_eq!(
            articulation_byzantine_placement(&ring, 2, 4),
            cut_byzantine_placement(&ring, 2, 4),
        );
        // Seeded determinism.
        assert_eq!(
            articulation_byzantine_placement(&g, 3, 5),
            articulation_byzantine_placement(&g, 3, 5),
        );
    }

    #[test]
    fn articulation_falsifier_cast_names_only_cast_partners() {
        let g = gen::path(7);
        let cast = articulation_falsifier_cast(&g, 3, 700, 11);
        assert_eq!(cast.len(), 3);
        let members: Vec<NodeId> = cast.iter().map(|(n, _)| *n).collect();
        for (node, behavior) in &cast {
            let ByzantineBehavior::FalsifyData { flips_per_mille, partners, .. } = behavior else {
                panic!("articulation cast must be falsifiers, got {behavior:?}");
            };
            assert_eq!(*flips_per_mille, 700);
            assert!(!partners.contains(node), "a falsifier cannot partner itself");
            assert!(partners.iter().all(|p| members.contains(p)));
            assert_eq!(partners.len(), 2);
        }
    }

    #[test]
    fn shared_oracle_placement_matches_the_transient_one() {
        // The oracle only answers the feasibility question; the placement
        // itself must stay bit-identical whether the oracle is shared
        // (resilience sweeps) or created per call.
        let mut oracle = ConnectivityOracle::new();
        for (g, ts) in [
            (gen::cycle(8), vec![0usize, 1, 2, 3]),
            (gen::harary(4, 10).unwrap(), vec![2, 4, 5]),
            (gen::star(6), vec![1, 2]),
        ] {
            for &t in &ts {
                for seed in 0..3 {
                    assert_eq!(
                        cut_byzantine_placement_with(&mut oracle, &g, t, seed),
                        cut_byzantine_placement(&g, t, seed),
                    );
                }
            }
        }
        assert!(oracle.stats().cache_hits > 0, "repeat feasibility checks must hit the cache");
    }
}
