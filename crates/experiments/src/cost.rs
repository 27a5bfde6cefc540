//! Network-cost experiments: Figures 3–7 plus the in-text topology
//! comparison of §V-C.
//!
//! Each function reproduces one figure: it sweeps the paper's parameters,
//! runs the protocol(s) on the deterministic engine, measures *data sent per
//! node* from serialized message sizes, and returns a [`Table`] with the
//! same series the paper plots.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use nectar_baselines::{run_mtg, run_mtg_v2, MtgConfig};
use nectar_graph::{gen, ConnectivityOracle, Graph};
use nectar_protocol::{Runtime, Scenario};

use crate::matrix::FamilySpec;
use crate::stats::summarize;
use crate::table::{Point, Series, Table};

/// Deterministic per-point seed mixing.
fn mix_seed(base: u64, a: u64, b: u64, c: u64) -> u64 {
    base ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ c.wrapping_mul(0x94d0_49bb_1331_11eb)
}

/// Mean kilobytes sent per node by one NECTAR execution on `g`.
fn nectar_kb_per_node(g: &Graph, t: usize) -> f64 {
    let metrics = Scenario::new(g.clone(), t).sim().metrics_only().run().into_metrics();
    metrics.mean_bytes_sent_per_node() / 1024.0
}

/// Debug-build guard for the deterministic cost figures: the §V-C sweeps
/// pick `t = k/2` on families advertised as k-connected, so `κ > t` must
/// hold or the series would silently measure a partitionable regime. The
/// oracle decides the threshold with bounded flows; in release sweeps
/// (`figures` binary, paper presets) the check compiles away.
fn debug_assert_supports_t(oracle: &mut ConnectivityOracle, label: &str, g: &Graph, t: usize) {
    if cfg!(debug_assertions) {
        assert!(
            !oracle.is_t_partitionable(g, t),
            "{label}: generated graph is {t}-partitionable, cost series would be misleading"
        );
    }
}

/// Parameters for Fig. 3 (k-regular graphs).
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// System sizes to sweep.
    pub ns: Vec<usize>,
    /// Connectivity parameters (one series each).
    pub ks: Vec<usize>,
}

impl Fig3Config {
    /// The paper's grid: n ∈ {20, …, 100}, k ∈ {2, 10, 18, 26, 34}.
    pub fn paper() -> Self {
        Fig3Config { ns: (20..=100).step_by(10).collect(), ks: vec![2, 10, 18, 26, 34] }
    }

    /// A darkly scaled-down grid for tests.
    pub fn quick() -> Self {
        Fig3Config { ns: vec![12, 20], ks: vec![2, 6] }
    }
}

/// **Fig. 3** — data sent per node (KB) vs `n` on k-regular k-connected
/// (Harary) graphs, one series per `k`.
pub fn fig3_kregular_cost(cfg: &Fig3Config) -> Table {
    let mut oracle = ConnectivityOracle::new();
    let series = cfg
        .ks
        .iter()
        .map(|&k| Series {
            label: format!("Nectar: k = {k}"),
            points: cfg
                .ns
                .iter()
                .filter(|&&n| k < n)
                .map(|&n| {
                    let g = gen::harary(k, n).expect("k < n checked");
                    debug_assert_supports_t(&mut oracle, "fig3 harary", &g, k / 2);
                    Point { x: n as f64, mean: nectar_kb_per_node(&g, k / 2), ci95: 0.0 }
                })
                .collect(),
        })
        .collect();
    Table {
        id: "fig3".into(),
        title: "Fig. 3: data sent per node (KB) vs n, k-regular graphs".into(),
        x_label: "Number of Nodes (n)".into(),
        y_label: "Data sent per node (KBytes)".into(),
        series,
    }
}

/// Parameters for the §V-C in-text topology-cost comparison.
#[derive(Debug, Clone)]
pub struct TopologyCostConfig {
    /// System sizes to sweep.
    pub ns: Vec<usize>,
    /// The shared connectivity parameter.
    pub k: usize,
}

impl TopologyCostConfig {
    /// Full-size comparison at k = 10.
    pub fn paper() -> Self {
        TopologyCostConfig { ns: (40..=100).step_by(20).collect(), k: 10 }
    }

    /// Scaled-down comparison for tests.
    pub fn quick() -> Self {
        TopologyCostConfig { ns: vec![20], k: 4 }
    }
}

/// **§V-C in-text** — NECTAR's cost on every §V-B topology family at equal
/// `(n, k)`, to compare against the k-regular baseline (the paper reports
/// ≈2× cheaper LHGs and ≈2.5× cheaper wheels).
pub fn topology_cost(cfg: &TopologyCostConfig) -> Table {
    let k = cfg.k;
    let mut oracle = ConnectivityOracle::new();
    let series = FamilySpec::paper_families(k)
        .iter()
        .map(|family| Series {
            label: family.name(),
            points: cfg
                .ns
                .iter()
                .filter_map(|&n| {
                    family.build(n, 0).ok().map(|g| {
                        debug_assert_supports_t(&mut oracle, &family.name(), &g, k / 2);
                        Point { x: n as f64, mean: nectar_kb_per_node(&g, k / 2), ci95: 0.0 }
                    })
                })
                .collect(),
        })
        .collect();
    Table {
        id: "text_topology_cost".into(),
        title: format!("§V-C: data sent per node (KB) across topology families, k = {k}"),
        x_label: "Number of Nodes (n)".into(),
        y_label: "Data sent per node (KBytes)".into(),
        series,
    }
}

/// Parameters for the drone-scenario cost figures (Figs. 4 and 5).
#[derive(Debug, Clone)]
pub struct DroneCostConfig {
    /// System size (the paper uses 20).
    pub n: usize,
    /// Barycenter distances to sweep.
    pub ds: Vec<f64>,
    /// Communication scopes (one series each).
    pub radii: Vec<f64>,
    /// Repetitions per point (the paper uses 50).
    pub runs: usize,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl DroneCostConfig {
    /// The paper's setting: n = 20, d ∈ {0..6}, radius ∈ {1.2, 1.8, 2.4},
    /// 50 runs.
    pub fn paper() -> Self {
        DroneCostConfig {
            n: 20,
            ds: (0..=6).map(|d| d as f64).collect(),
            radii: vec![1.2, 1.8, 2.4],
            runs: 50,
            base_seed: 2024,
        }
    }

    /// Scaled-down setting for tests.
    pub fn quick() -> Self {
        DroneCostConfig {
            n: 10,
            ds: vec![0.0, 3.0, 6.0],
            radii: vec![1.2, 2.4],
            runs: 3,
            base_seed: 2024,
        }
    }
}

fn drone_graph(n: usize, d: f64, radius: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    gen::drone_scenario(n, d, radius, &mut rng).expect("valid drone parameters").graph
}

/// **Fig. 4** — NECTAR's data sent per node vs barycenter distance `d` in
/// the drone scenario, one series per radius, plus the MtG reference line.
pub fn fig4_drone_nectar(cfg: &DroneCostConfig) -> Table {
    let mut series: Vec<Series> = Vec::new();
    for (ri, &radius) in cfg.radii.iter().enumerate() {
        let points = cfg
            .ds
            .iter()
            .enumerate()
            .map(|(di, &d)| {
                let samples: Vec<f64> = (0..cfg.runs)
                    .map(|run| {
                        let seed = mix_seed(cfg.base_seed, ri as u64, di as u64, run as u64);
                        let g = drone_graph(cfg.n, d, radius, seed);
                        nectar_kb_per_node(&g, 1)
                    })
                    .collect();
                let s = summarize(&samples);
                Point { x: d, mean: s.mean, ci95: s.ci95 }
            })
            .collect();
        series.push(Series { label: format!("Nectar (ours): radius = {radius}"), points });
    }
    series.push(mtg_reference_series(cfg));
    Table {
        id: "fig4".into(),
        title: format!(
            "Fig. 4: NECTAR data sent per node (KB) vs d, drone scenario (n = {})",
            cfg.n
        ),
        x_label: "Distance between barycenters (d)".into(),
        y_label: "Data sent per node (KBytes)".into(),
        series,
    }
}

/// **Fig. 5** — MtGv2's data sent per node vs `d` (same setting as Fig. 4),
/// plus the MtG reference line.
pub fn fig5_drone_mtgv2(cfg: &DroneCostConfig) -> Table {
    let mut series: Vec<Series> = Vec::new();
    for (ri, &radius) in cfg.radii.iter().enumerate() {
        let points = cfg
            .ds
            .iter()
            .enumerate()
            .map(|(di, &d)| {
                let samples: Vec<f64> = (0..cfg.runs)
                    .map(|run| {
                        let seed = mix_seed(cfg.base_seed, ri as u64, di as u64, run as u64);
                        let g = drone_graph(cfg.n, d, radius, seed);
                        run_mtg_v2(&g, &BTreeMap::new(), cfg.n - 1, seed).mean_kb_sent_per_node()
                    })
                    .collect();
                let s = summarize(&samples);
                Point { x: d, mean: s.mean, ci95: s.ci95 }
            })
            .collect();
        series.push(Series { label: format!("MtGv2: radius = {radius}"), points });
    }
    series.push(mtg_reference_series(cfg));
    Table {
        id: "fig5".into(),
        title: format!(
            "Fig. 5: MtGv2 data sent per node (KB) vs d, drone scenario (n = {})",
            cfg.n
        ),
        x_label: "Distance between barycenters (d)".into(),
        y_label: "Data sent per node (KBytes)".into(),
        series,
    }
}

/// The flat MtG reference curve of Figs. 4–7 (its cost depends on neither
/// `d` nor `radius`; we average over all of them per `d`).
fn mtg_reference_series(cfg: &DroneCostConfig) -> Series {
    let points = cfg
        .ds
        .iter()
        .enumerate()
        .map(|(di, &d)| {
            let mut samples = Vec::new();
            for (ri, &radius) in cfg.radii.iter().enumerate() {
                for run in 0..cfg.runs {
                    let seed = mix_seed(cfg.base_seed, ri as u64, di as u64, run as u64);
                    let g = drone_graph(cfg.n, d, radius, seed);
                    samples.push(
                        run_mtg(&g, MtgConfig::new(cfg.n), &BTreeMap::new(), cfg.n - 1)
                            .mean_kb_sent_per_node(),
                    );
                }
            }
            let s = summarize(&samples);
            Point { x: d, mean: s.mean, ci95: s.ci95 }
        })
        .collect();
    Series { label: "MtG".into(), points }
}

/// Parameters for the drone-scenario scaling figures (Figs. 6 and 7).
#[derive(Debug, Clone)]
pub struct DroneScalingConfig {
    /// System sizes to sweep.
    pub ns: Vec<usize>,
    /// Barycenter distances (one series each).
    pub ds: Vec<f64>,
    /// Fixed communication scope (the paper uses 1.2).
    pub radius: f64,
    /// Repetitions per point.
    pub runs: usize,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl DroneScalingConfig {
    /// The paper's setting: n ∈ {10..50}, d ∈ {0, 2.5, 5}, radius = 1.2.
    pub fn paper() -> Self {
        DroneScalingConfig {
            ns: (10..=50).step_by(10).collect(),
            ds: vec![0.0, 2.5, 5.0],
            radius: 1.2,
            runs: 50,
            base_seed: 2025,
        }
    }

    /// Scaled-down setting for tests.
    pub fn quick() -> Self {
        DroneScalingConfig {
            ns: vec![10, 16],
            ds: vec![0.0, 5.0],
            radius: 1.2,
            runs: 3,
            base_seed: 2025,
        }
    }
}

/// Shared sweep for Figs. 6 and 7.
fn drone_scaling(
    cfg: &DroneScalingConfig,
    label: &str,
    cost: impl Fn(&Graph, usize, u64) -> f64,
) -> Vec<Series> {
    let mut series = Vec::new();
    for (di, &d) in cfg.ds.iter().enumerate() {
        let points = cfg
            .ns
            .iter()
            .enumerate()
            .map(|(ni, &n)| {
                let samples: Vec<f64> = (0..cfg.runs)
                    .map(|run| {
                        let seed = mix_seed(cfg.base_seed, di as u64, ni as u64, run as u64);
                        let g = drone_graph(n, d, cfg.radius, seed);
                        cost(&g, n, seed)
                    })
                    .collect();
                let s = summarize(&samples);
                Point { x: n as f64, mean: s.mean, ci95: s.ci95 }
            })
            .collect();
        series.push(Series { label: format!("{label}: d = {d}"), points });
    }
    series
}

/// **Fig. 6** — NECTAR's data sent per node vs `n` in the drone scenario
/// (radius = 1.2), one series per `d`, plus the MtG reference.
pub fn fig6_drone_scaling_nectar(cfg: &DroneScalingConfig) -> Table {
    let mut series = drone_scaling(cfg, "Nectar (ours)", |g, _n, _seed| nectar_kb_per_node(g, 1));
    series.extend(drone_scaling(cfg, "MtG", |g, n, _seed| {
        run_mtg(g, MtgConfig::new(n), &BTreeMap::new(), n - 1).mean_kb_sent_per_node()
    }));
    Table {
        id: "fig6".into(),
        title: format!(
            "Fig. 6: NECTAR data sent per node (KB) vs n, drone scenario (radius = {})",
            cfg.radius
        ),
        x_label: "Number of nodes (n)".into(),
        y_label: "Data sent per node (KBytes)".into(),
        series,
    }
}

/// **Fig. 7** — MtGv2's data sent per node vs `n` (same setting as Fig. 6),
/// plus the MtG reference.
pub fn fig7_drone_scaling_mtgv2(cfg: &DroneScalingConfig) -> Table {
    let mut series = drone_scaling(cfg, "MtGv2", |g, n, seed| {
        run_mtg_v2(g, &BTreeMap::new(), n - 1, seed).mean_kb_sent_per_node()
    });
    series.extend(drone_scaling(cfg, "MtG", |g, n, _seed| {
        run_mtg(g, MtgConfig::new(n), &BTreeMap::new(), n - 1).mean_kb_sent_per_node()
    }));
    Table {
        id: "fig7".into(),
        title: format!(
            "Fig. 7: MtGv2 data sent per node (KB) vs n, drone scenario (radius = {})",
            cfg.radius
        ),
        x_label: "Number of nodes (n)".into(),
        y_label: "Data sent per node (KBytes)".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_quick_produces_monotone_series() {
        let t = fig3_kregular_cost(&Fig3Config::quick());
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
        let t = topology_cost(&TopologyCostConfig::quick());
        assert_eq!(t.series.len(), 5);
        for s in &t.series {
            assert!(!s.points.is_empty(), "family {} produced no points", s.label);
            assert!(s.points.iter().all(|p| p.mean > 0.0));
        }
    }

    #[test]
    fn fig4_quick_nectar_cost_drops_with_distance() {
        let t = fig4_drone_nectar(&DroneCostConfig::quick());
        // Last series is the MtG reference.
        assert_eq!(t.series.len(), 3);
        for s in &t.series[..2] {
            let first = s.points.first().unwrap().mean;
            let last = s.points.last().unwrap().mean;
            assert!(last < first, "cost should drop once the graph partitions ({})", s.label);
        }
    }

    #[test]
    fn fig5_quick_mtgv2_is_cheaper_than_nectar() {
        let cfg = DroneCostConfig::quick();
        let nectar = fig4_drone_nectar(&cfg);
        let v2 = fig5_drone_mtgv2(&cfg);
        let n_mean = nectar.series[1].points[0].mean; // radius 2.4, d = 0
        let v_mean = v2.series[1].points[0].mean;
        assert!(v_mean < n_mean, "MtGv2 ({v_mean}) must be cheaper than NECTAR ({n_mean})");
    }

    #[test]
    fn fig6_and_fig7_quick_grow_with_n() {
        let cfg = DroneScalingConfig::quick();
        for t in [fig6_drone_scaling_nectar(&cfg), fig7_drone_scaling_mtgv2(&cfg)] {
            let dense = &t.series[0]; // d = 0
            assert!(
                dense.points.last().unwrap().mean > dense.points.first().unwrap().mean,
                "{}",
                t.title
            );
        }
    }
}

/// **§V-C mechanism** — quiescence and chain-length evidence behind the
/// topology-cost discussion: for each family at equal `(n, k)`, the number
/// of rounds with any traffic (dissemination stops at the diameter) and the
/// mean bytes per message (longer chains ⇒ bigger messages).
pub fn topology_quiescence(cfg: &TopologyCostConfig) -> Table {
    let k = cfg.k;
    let mut series = Vec::new();
    for family in FamilySpec::paper_families(k) {
        let name = family.name();
        let mut active_rounds =
            Series { label: format!("{name}: active rounds"), points: Vec::new() };
        let mut per_msg = Series { label: format!("{name}: KB/message"), points: Vec::new() };
        for &n in &cfg.ns {
            let Ok(g) = family.build(n, 0) else { continue };
            let metrics = Scenario::new(g, k / 2).sim().metrics_only().run().into_metrics();
            let rounds = metrics.bytes_per_round().iter().filter(|&&b| b > 0).count();
            let msgs: u64 = metrics.msgs_sent().iter().sum();
            let kb_per_msg = if msgs == 0 {
                0.0
            } else {
                metrics.total_bytes_sent() as f64 / msgs as f64 / 1024.0
            };
            active_rounds.points.push(Point { x: n as f64, mean: rounds as f64, ci95: 0.0 });
            per_msg.points.push(Point { x: n as f64, mean: kb_per_msg, ci95: 0.0 });
        }
        series.push(active_rounds);
        series.push(per_msg);
    }
    Table {
        id: "text_topology_quiescence".into(),
        title: format!("§V-C mechanism: active rounds and message size per family, k = {k}"),
        x_label: "Number of Nodes (n)".into(),
        y_label: "rounds / KB per message".into(),
        series,
    }
}

/// Parameters for the large-n clustered-fleet cost sweep.
#[derive(Debug, Clone)]
pub struct LargeScaleConfig {
    /// System sizes to sweep (thousands of nodes are fine).
    pub ns: Vec<usize>,
    /// Cluster sizes (one series each).
    pub cluster_sizes: Vec<usize>,
    /// The runtime executing the sweeps.
    pub runtime: Runtime,
}

impl LargeScaleConfig {
    /// The beyond-the-paper scale: up to 10 000 nodes, clusters of 4 and 8,
    /// on the event-driven runtime.
    pub fn paper() -> Self {
        LargeScaleConfig {
            ns: vec![1_000, 4_000, 10_000],
            cluster_sizes: vec![4, 8],
            runtime: Runtime::Event,
        }
    }

    /// Scaled-down sweep for tests.
    pub fn quick() -> Self {
        LargeScaleConfig { ns: vec![200, 400], cluster_sizes: vec![4], runtime: Runtime::Event }
    }
}

/// **Beyond §V** — data sent per node on clustered fleets far past the
/// paper's 100-node evaluation ceiling. Each point runs NECTAR with its
/// default `n − 1` round horizon over a fleet of disjoint cliques
/// ([`gen::disjoint_cliques`]); dissemination is cluster-local and
/// quiesces after ~`cluster size` rounds, so the event-driven runtime's
/// `O(active events)` scheduling makes 10 000-node sweeps routine where
/// the polling runtimes spend their time ticking silent nodes (and
/// thread-per-node cannot host the fleet at all). The measured cost per
/// node is flat in `n` — the per-cluster locality the table demonstrates.
pub fn large_scale_cost(cfg: &LargeScaleConfig) -> Table {
    let series = cfg
        .cluster_sizes
        .iter()
        .map(|&size| Series {
            label: format!("clustered fleet: cluster size = {size}"),
            points: cfg
                .ns
                .iter()
                .filter(|&&n| n >= size)
                .map(|&n| {
                    let g = gen::disjoint_cliques(n / size, size);
                    let t = (size / 2).max(1);
                    let metrics = Scenario::new(g, t)
                        .sim()
                        .runtime(cfg.runtime)
                        .metrics_only()
                        .run()
                        .into_metrics();
                    Point {
                        x: (n / size * size) as f64,
                        mean: metrics.mean_bytes_sent_per_node() / 1024.0,
                        ci95: 0.0,
                    }
                })
                .collect(),
        })
        .collect();
    Table {
        id: "large_scale_cost".into(),
        title: format!(
            "Beyond §V: data sent per node (KB) vs n, clustered fleets ({} runtime)",
            cfg.runtime
        ),
        x_label: "Number of Nodes (n)".into(),
        y_label: "Data sent per node (KBytes)".into(),
        series,
    }
}

/// **§IV-E in-text** — per-node cost disparity: "the communication cost can
/// also be very disparate through nodes since the complexity for each node
/// depends on the size of its neighborhood". Measured as min / mean / max
/// bytes sent per node on the hub-heavy generalized wheel vs the uniform
/// k-regular graph.
pub fn per_node_disparity(cfg: &TopologyCostConfig) -> Table {
    let k = cfg.k;
    let mut series = Vec::new();
    for family in [FamilySpec::Harary { k }, FamilySpec::Wheel { k }] {
        let name = family.name();
        let mut min_s = Series { label: format!("{name}: min KB"), points: Vec::new() };
        let mut mean_s = Series { label: format!("{name}: mean KB"), points: Vec::new() };
        let mut max_s = Series { label: format!("{name}: max KB"), points: Vec::new() };
        for &n in &cfg.ns {
            let Ok(g) = family.build(n, 0) else { continue };
            let metrics = Scenario::new(g, k / 2).sim().metrics_only().run().into_metrics();
            let kb = |b: u64| b as f64 / 1024.0;
            let min = metrics.bytes_sent().iter().copied().min().unwrap_or(0);
            min_s.points.push(Point { x: n as f64, mean: kb(min), ci95: 0.0 });
            mean_s.points.push(Point {
                x: n as f64,
                mean: metrics.mean_bytes_sent_per_node() / 1024.0,
                ci95: 0.0,
            });
            max_s.points.push(Point {
                x: n as f64,
                mean: kb(metrics.max_bytes_sent_per_node()),
                ci95: 0.0,
            });
        }
        series.extend([min_s, mean_s, max_s]);
    }
    Table {
        id: "text_per_node_disparity".into(),
        title: format!("§IV-E: per-node cost disparity (min/mean/max KB sent), k = {k}"),
        x_label: "Number of Nodes (n)".into(),
        y_label: "Data sent per node (KBytes)".into(),
        series,
    }
}

#[cfg(test)]
mod mechanism_tests {
    use super::*;

    #[test]
    fn large_scale_cost_is_flat_in_n() {
        // Cluster-local dissemination: per-node cost must not grow with the
        // fleet size (within float noise — the cost is deterministic).
        let t = large_scale_cost(&LargeScaleConfig::quick());
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
        let t = topology_quiescence(&TopologyCostConfig { ns: vec![48], k: 4 });
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
        let t = per_node_disparity(&TopologyCostConfig { ns: vec![30], k: 4 });
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
