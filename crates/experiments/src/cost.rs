//! Network-cost experiments: Figures 3–7 plus the in-text topology
//! comparison of §V-C.
//!
//! Each public function reproduces one figure: it sweeps the paper's
//! parameters, runs the protocol(s) on the deterministic engine, measures
//! *data sent per node* from serialized message sizes, and returns a
//! [`Table`] with the same series the paper plots.

use std::collections::{BTreeMap, BTreeSet};

use nectar_baselines::{run_mtg, run_mtg_v2, MtgConfig};
use nectar_graph::rng::Rng;
use nectar_graph::{gen, ConnectivityOracle, Graph};
use nectar_net::Metrics;
use nectar_protocol::{Runtime, Scenario};

use crate::matrix::FamilySpec;
use crate::table::{Series, Table};
use crate::{labelled, mix_seed, sweep, xs};

/// Mean kilobytes sent per node by one NECTAR execution on `g`.
fn nectar_kb_per_node(g: &Graph, t: usize) -> f64 {
    let metrics = Scenario::new(g.clone(), t).sim().metrics_only().run().into_metrics();
    metrics.mean_bytes_sent_per_node() / 1024.0
}

/// Mean kilobytes sent per node by one fault-free MtG execution on `g`.
fn mtg_kb_per_node(g: &Graph, n: usize) -> f64 {
    run_mtg(g, MtgConfig::new(n), &BTreeSet::new(), n - 1).mean_kb_sent_per_node()
}

/// Mean kilobytes sent per node by one fault-free MtGv2 execution on `g`.
fn mtgv2_kb_per_node(g: &Graph, n: usize, seed: u64) -> f64 {
    run_mtg_v2(g, &BTreeMap::new(), n - 1, seed).mean_kb_sent_per_node()
}

/// Debug-build guard for the deterministic cost figures: the §V-C sweeps
/// pick `t = k/2` on families advertised as k-connected, so `κ > t` must
/// hold or the series would silently measure a partitionable regime. The
/// oracle decides the threshold with bounded flows; in release sweeps
/// (the `figures` binary) the check compiles away.
fn debug_assert_supports_t(oracle: &mut ConnectivityOracle, label: &str, g: &Graph, t: usize) {
    if cfg!(debug_assertions) {
        assert!(
            !oracle.is_t_partitionable(g, t),
            "{label}: generated graph is {t}-partitionable, cost series would be misleading"
        );
    }
}

/// **Fig. 3** — data sent per node (KB) vs `n` on k-regular k-connected
/// (Harary) graphs, one series per `k`. The paper's grid: n ∈ {20, …, 100},
/// k ∈ {2, 10, 18, 26, 34}.
pub fn fig3_kregular_cost(quick: bool) -> Vec<Table> {
    let (ns, ks): (&[usize], &[usize]) = if quick {
        (&[12, 20], &[2, 6])
    } else {
        (&[20, 30, 40, 50, 60, 70, 80, 90, 100], &[2, 10, 18, 26, 34])
    };
    let mut oracle = ConnectivityOracle::new();
    let series = ks
        .iter()
        .map(|&k| {
            let ns: Vec<usize> = ns.iter().copied().filter(|&n| k < n).collect();
            let [points] = sweep(xs(&ns), 1, |i, _| {
                let g = gen::harary(k, ns[i]).expect("k < n checked");
                debug_assert_supports_t(&mut oracle, "fig3 harary", &g, k / 2);
                [nectar_kb_per_node(&g, k / 2)]
            });
            Series { label: format!("Nectar: k = {k}"), points }
        })
        .collect();
    vec![Table {
        id: "fig3".into(),
        title: "Fig. 3: data sent per node (KB) vs n, k-regular graphs".into(),
        x_label: "Number of Nodes (n)".into(),
        y_label: "Data sent per node (KBytes)".into(),
        series,
    }]
}

/// The §V-C family comparisons' grid — system sizes and the shared
/// connectivity parameter: n ∈ {40, …, 100} at k = 10, or n = 20 at k = 4.
fn family_grid(quick: bool) -> (&'static [usize], usize) {
    if quick {
        (&[20], 4)
    } else {
        (&[40, 60, 80, 100], 10)
    }
}

/// One NECTAR run on `family` at size `n` with `t = k/2`.
fn family_metrics(family: &FamilySpec, n: usize, k: usize) -> Metrics {
    let g = family.build(n, 0).expect("every paper family builds on the grid");
    Scenario::new(g, k / 2).sim().metrics_only().run().into_metrics()
}

/// **§V-C in-text** — NECTAR's cost on every §V-B topology family at equal
/// `(n, k)`, to compare against the k-regular baseline (the paper reports
/// ≈2× cheaper LHGs and ≈2.5× cheaper wheels).
pub fn topology_cost(quick: bool) -> Vec<Table> {
    let (ns, k) = family_grid(quick);
    let mut oracle = ConnectivityOracle::new();
    let series = FamilySpec::paper_families(k)
        .iter()
        .map(|family| {
            let [points] = sweep(xs(ns), 1, |i, _| {
                let g = family.build(ns[i], 0).expect("every paper family builds on the grid");
                debug_assert_supports_t(&mut oracle, &family.name(), &g, k / 2);
                [nectar_kb_per_node(&g, k / 2)]
            });
            Series { label: family.name(), points }
        })
        .collect();
    vec![Table {
        id: "text_topology_cost".into(),
        title: format!("§V-C: data sent per node (KB) across topology families, k = {k}"),
        x_label: "Number of Nodes (n)".into(),
        y_label: "Data sent per node (KBytes)".into(),
        series,
    }]
}

/// **§V-C mechanism** — quiescence and chain-length evidence behind the
/// topology-cost discussion: for each family at equal `(n, k)`, the number
/// of rounds with any traffic (dissemination stops at the diameter) and the
/// mean bytes per message (longer chains ⇒ bigger messages).
pub fn topology_quiescence(quick: bool) -> Vec<Table> {
    let (ns, k) = family_grid(quick);
    let mut series = Vec::new();
    for family in FamilySpec::paper_families(k) {
        let name = family.name();
        let curves = sweep(xs(ns), 1, |i, _| {
            let metrics = family_metrics(&family, ns[i], k);
            let rounds = metrics.bytes_per_round().iter().filter(|&&b| b > 0).count();
            let msgs: u64 = metrics.msgs_sent().iter().sum();
            let kb_per_msg = if msgs == 0 {
                0.0
            } else {
                metrics.total_bytes_sent() as f64 / msgs as f64 / 1024.0
            };
            [rounds as f64, kb_per_msg]
        });
        let labels = [format!("{name}: active rounds"), format!("{name}: KB/message")];
        series.extend(labelled(labels, curves));
    }
    vec![Table {
        id: "text_topology_quiescence".into(),
        title: format!("§V-C mechanism: active rounds and message size per family, k = {k}"),
        x_label: "Number of Nodes (n)".into(),
        y_label: "rounds / KB per message".into(),
        series,
    }]
}

/// **§IV-E in-text** — per-node cost disparity: "the communication cost can
/// also be very disparate through nodes since the complexity for each node
/// depends on the size of its neighborhood". Measured as min / mean / max
/// bytes sent per node on the hub-heavy generalized wheel vs the uniform
/// k-regular graph.
pub fn per_node_disparity(quick: bool) -> Vec<Table> {
    let (ns, k) = family_grid(quick);
    let mut series = Vec::new();
    for family in [FamilySpec::Harary { k }, FamilySpec::Wheel { k }] {
        let name = family.name();
        let kb = |b: u64| b as f64 / 1024.0;
        let curves = sweep(xs(ns), 1, |i, _| {
            let metrics = family_metrics(&family, ns[i], k);
            [
                kb(metrics.bytes_sent().iter().copied().min().unwrap_or(0)),
                metrics.mean_bytes_sent_per_node() / 1024.0,
                kb(metrics.max_bytes_sent_per_node()),
            ]
        });
        series.extend(labelled(["min", "mean", "max"].map(|s| format!("{name}: {s} KB")), curves));
    }
    vec![Table {
        id: "text_per_node_disparity".into(),
        title: format!("§IV-E: per-node cost disparity (min/mean/max KB sent), k = {k}"),
        x_label: "Number of Nodes (n)".into(),
        y_label: "Data sent per node (KBytes)".into(),
        series,
    }]
}

/// One drone-figure measurement: KB sent per node on `(graph, n, seed)`.
type Cost = fn(&Graph, usize, u64) -> f64;

fn drone_graph(n: usize, d: f64, radius: f64, seed: u64) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    gen::drone_scenario(n, d, radius, &mut rng).expect("valid drone parameters").graph
}

/// Shared body of Figs. 4 and 5: one `cost` series per radius over the
/// barycenter distance `d`, then the flat MtG reference curve (its cost
/// depends on neither `d` nor `radius`; we average over all of them per
/// `d`). The paper's setting: n = 20, d ∈ {0..6}, radius ∈ {1.2, 1.8, 2.4},
/// 50 runs.
fn drone_cost(quick: bool, (id, algorithm, label): (&str, &str, &str), cost: Cost) -> Vec<Table> {
    const BASE_SEED: u64 = 2024;
    let (n, ds, radii, runs): (usize, &[f64], &[f64], usize) = if quick {
        (10, &[0.0, 3.0, 6.0], &[1.2, 2.4], 3)
    } else {
        (20, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1.2, 1.8, 2.4], 50)
    };
    let graph = |ri: usize, di: usize, run: usize| {
        let seed = mix_seed(BASE_SEED, ri as u64, di as u64, run as u64);
        (drone_graph(n, ds[di], radii[ri], seed), seed)
    };
    let mut series: Vec<Series> = radii
        .iter()
        .enumerate()
        .map(|(ri, radius)| {
            let [points] = sweep(ds.iter().copied(), runs, |di, run| {
                let (g, seed) = graph(ri, di, run);
                [cost(&g, n, seed)]
            });
            Series { label: format!("{label}: radius = {radius}"), points }
        })
        .collect();
    let [points] = sweep(ds.iter().copied(), radii.len() * runs, |di, sample| {
        [mtg_kb_per_node(&graph(sample / runs, di, sample % runs).0, n)]
    });
    series.push(Series { label: "MtG".into(), points });
    vec![Table {
        id: id.into(),
        title: format!("{algorithm} data sent per node (KB) vs d, drone scenario (n = {n})"),
        x_label: "Distance between barycenters (d)".into(),
        y_label: "Data sent per node (KBytes)".into(),
        series,
    }]
}

/// **Fig. 4** — NECTAR's data sent per node vs barycenter distance `d` in
/// the drone scenario, one series per radius, plus the MtG reference line.
pub fn fig4_drone_nectar(quick: bool) -> Vec<Table> {
    drone_cost(quick, ("fig4", "Fig. 4: NECTAR", "Nectar (ours)"), |g, _n, _seed| {
        nectar_kb_per_node(g, 1)
    })
}

/// **Fig. 5** — MtGv2's data sent per node vs `d` (same setting as Fig. 4),
/// plus the MtG reference line.
pub fn fig5_drone_mtgv2(quick: bool) -> Vec<Table> {
    drone_cost(quick, ("fig5", "Fig. 5: MtGv2", "MtGv2"), mtgv2_kb_per_node)
}

/// Shared body of Figs. 6 and 7: one `cost` series per `d` over the system
/// size, then one MtG reference series per `d`. The paper's setting:
/// n ∈ {10..50}, d ∈ {0, 2.5, 5}, radius = 1.2, 50 runs.
fn drone_scaling(
    quick: bool,
    (id, algorithm, label): (&str, &str, &str),
    cost: Cost,
) -> Vec<Table> {
    const BASE_SEED: u64 = 2025;
    const RADIUS: f64 = 1.2;
    let (ns, ds, runs): (&[usize], &[f64], usize) = if quick {
        (&[10, 16], &[0.0, 5.0], 3)
    } else {
        (&[10, 20, 30, 40, 50], &[0.0, 2.5, 5.0], 50)
    };
    let mut series = Vec::new();
    for (label, cost) in [(label, cost), ("MtG", |g, n, _seed| mtg_kb_per_node(g, n))] {
        for (di, &d) in ds.iter().enumerate() {
            let [points] = sweep(xs(ns), runs, |ni, run| {
                let seed = mix_seed(BASE_SEED, di as u64, ni as u64, run as u64);
                [cost(&drone_graph(ns[ni], d, RADIUS, seed), ns[ni], seed)]
            });
            series.push(Series { label: format!("{label}: d = {d}"), points });
        }
    }
    vec![Table {
        id: id.into(),
        title: format!(
            "{algorithm} data sent per node (KB) vs n, drone scenario (radius = {RADIUS})"
        ),
        x_label: "Number of nodes (n)".into(),
        y_label: "Data sent per node (KBytes)".into(),
        series,
    }]
}

/// **Fig. 6** — NECTAR's data sent per node vs `n` in the drone scenario
/// (radius = 1.2), one series per `d`, plus the MtG reference.
pub fn fig6_drone_scaling_nectar(quick: bool) -> Vec<Table> {
    drone_scaling(quick, ("fig6", "Fig. 6: NECTAR", "Nectar (ours)"), |g, _n, _seed| {
        nectar_kb_per_node(g, 1)
    })
}

/// **Fig. 7** — MtGv2's data sent per node vs `n` (same setting as Fig. 6),
/// plus the MtG reference.
pub fn fig7_drone_scaling_mtgv2(quick: bool) -> Vec<Table> {
    drone_scaling(quick, ("fig7", "Fig. 7: MtGv2", "MtGv2"), mtgv2_kb_per_node)
}

/// **Beyond §V** — data sent per node on clustered fleets far past the
/// paper's 100-node evaluation ceiling: up to 10 000 nodes, clusters of 4
/// and 8. Each point runs NECTAR with its default `n − 1` round horizon
/// over a fleet of disjoint cliques ([`gen::disjoint_cliques`]); dissemination is cluster-local and
/// quiesces after ~`cluster size` rounds, so the event-driven runtime's
/// `O(active events)` scheduling makes 10 000-node sweeps routine where
/// the polling runtimes spend their time ticking silent nodes (and
/// thread-per-node cannot host the fleet at all). The measured cost per
/// node is flat in `n` — the per-cluster locality the table demonstrates.
pub fn large_scale_cost(quick: bool) -> Vec<Table> {
    // Every n is a multiple of every cluster size.
    let (ns, sizes): (&[usize], &[usize]) =
        if quick { (&[200, 400], &[4]) } else { (&[1_000, 4_000, 10_000], &[4, 8]) };
    let series = sizes
        .iter()
        .map(|&size| {
            let [points] = sweep(xs(ns), 1, |i, _| {
                let g = gen::disjoint_cliques(ns[i] / size, size);
                let t = (size / 2).max(1);
                let metrics = Scenario::new(g, t)
                    .sim()
                    .runtime(Runtime::Event)
                    .metrics_only()
                    .run()
                    .into_metrics();
                [metrics.mean_bytes_sent_per_node() / 1024.0]
            });
            Series { label: format!("clustered fleet: cluster size = {size}"), points }
        })
        .collect();
    vec![Table {
        id: "large_scale_cost".into(),
        title: format!(
            "Beyond §V: data sent per node (KB) vs n, clustered fleets ({} runtime)",
            Runtime::Event
        ),
        x_label: "Number of Nodes (n)".into(),
        y_label: "Data sent per node (KBytes)".into(),
        series,
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_quick_produces_monotone_series() {
        let t = &fig3_kregular_cost(true)[0];
        assert_eq!(t.series.len(), 2);
        for s in &t.series {
            assert!(!s.points.is_empty());
            // Cost grows with n within each k series.
            for w in s.points.windows(2) {
                assert!(w[1].mean > w[0].mean, "series {} not monotone: {w:?}", s.label);
            }
        }
        // Cost grows with k at fixed n.
        let k2_at_20 = t.series[0].points.iter().find(|p| p.x == 20.0).unwrap().mean;
        let k6_at_20 = t.series[1].points.iter().find(|p| p.x == 20.0).unwrap().mean;
        assert!(k6_at_20 > k2_at_20);
    }

    #[test]
    fn topology_cost_quick_covers_all_families() {
        let t = &topology_cost(true)[0];
        assert_eq!(t.series.len(), 5);
        for s in &t.series {
            assert!(!s.points.is_empty(), "family {} produced no points", s.label);
            assert!(s.points.iter().all(|p| p.mean > 0.0));
        }
    }

    #[test]
    fn fig4_quick_nectar_cost_drops_with_distance() {
        let t = &fig4_drone_nectar(true)[0];
        // Last series is the MtG reference.
        assert_eq!(t.series.len(), 3);
        for s in &t.series[..2] {
            let first = s.points.first().unwrap().mean;
            let last = s.points.last().unwrap().mean;
            assert!(last < first, "cost should drop once the graph partitions ({})", s.label);
        }
    }

    #[test]
    fn fig6_and_fig7_quick_grow_with_n() {
        for t in fig6_drone_scaling_nectar(true).into_iter().chain(fig7_drone_scaling_mtgv2(true)) {
            let dense = &t.series[0]; // d = 0
            assert!(
                dense.points.last().unwrap().mean > dense.points.first().unwrap().mean,
                "{}",
                t.title
            );
        }
    }
}

#[cfg(test)]
mod mechanism_tests {
    use super::*;

    #[test]
    fn large_scale_cost_is_flat_in_n() {
        // Cluster-local dissemination: per-node cost must not grow with the
        // fleet size (within float noise — the cost is deterministic).
        let t = &large_scale_cost(true)[0];
        assert_eq!(t.series.len(), 1);
        let points = &t.series[0].points;
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].x, 200.0);
        assert_eq!(points[1].x, 400.0);
        assert!(points[0].mean > 0.0);
        assert_eq!(points[0].mean, points[1].mean, "cost per node must be cluster-local");
    }

    #[test]
    fn quiescence_table_shows_low_diameter_families_finishing_early() {
        // Quick grid: n = 20, k = 4.
        let t = &topology_quiescence(true)[0];
        let rounds_of = |label: &str| {
            t.series
                .iter()
                .find(|s| s.label.starts_with(label) && s.label.contains("active rounds"))
                .and_then(|s| s.points.first())
                .map(|p| p.mean)
                .expect("series present")
        };
        assert!(rounds_of("pasted-tree") < rounds_of("harary"));
        assert!(rounds_of("wheel") < rounds_of("harary"));
    }

    #[test]
    fn disparity_is_wider_on_the_wheel() {
        // Quick grid: n = 20, k = 4.
        let t = &per_node_disparity(true)[0];
        let val = |label: &str| {
            t.series
                .iter()
                .find(|s| s.label == label)
                .and_then(|s| s.points.first())
                .map(|p| p.mean)
                .expect("series present")
        };
        let regular_spread = val("harary-k4: max KB") / val("harary-k4: min KB").max(1e-9);
        let wheel_spread = val("wheel-k4: max KB") / val("wheel-k4: min KB").max(1e-9);
        assert!(
            wheel_spread > regular_spread,
            "hub-heavy wheel spread {wheel_spread:.2} should exceed regular {regular_spread:.2}"
        );
    }
}
