//! Byzantine-resilience experiments: Fig. 8 and the §V-D in-text topology
//! study.
//!
//! Fig. 8 plots the *decision success rate* — the fraction of correct nodes
//! reaching the correct conclusion — against the number of Byzantine nodes,
//! in a drone system whose correct subgraph is partitioned in two:
//!
//! * **MtG** faces insiders gossiping all-ones Bloom filters;
//! * **MtGv2** and **NECTAR** face two-faced bridge nodes that carry all
//!   inter-part edges, act correctly toward part A and crashed toward
//!   part B.
//!
//! The paper's result: NECTAR stays at success 1.0 for every `t`, MtG
//! collapses to 0 from two Byzantine nodes, MtGv2 plateaus near 0.5.

use std::collections::BTreeMap;

use nectar_baselines::{
    run_mtg, run_mtg_v2, BaselineVerdict, MtgBehavior, MtgConfig, MtgV2Behavior,
};
use nectar_graph::{traversal, ConnectivityOracle, Graph};
use nectar_net::NodeId;
use nectar_protocol::{ByzantineBehavior, RunReport, Runtime, Scenario, Verdict};

use crate::matrix::FamilySpec;
use crate::placements::{
    bridged_partition, clustered_fleet, cut_byzantine_placement_with, partitioned_with_insiders,
};
use crate::stats::summarize;
use crate::table::{Point, Series, Table};

/// Parameters for Fig. 8.
#[derive(Debug, Clone)]
pub struct Fig8Config {
    /// System size (the paper uses 35; 20 and 50 "exhibit the same
    /// tendencies").
    pub n: usize,
    /// Byzantine counts to sweep.
    pub ts: Vec<usize>,
    /// Bridge edges per part per Byzantine node.
    pub links_per_part: usize,
    /// Repetitions per point.
    pub runs: usize,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Fig8Config {
    /// The paper's setting: n = 35, t ∈ {0..6}, 50 runs.
    pub fn paper() -> Self {
        Fig8Config { n: 35, ts: (0..=6).collect(), links_per_part: 3, runs: 50, base_seed: 88 }
    }

    /// Scaled-down setting for tests.
    pub fn quick() -> Self {
        Fig8Config { n: 14, ts: vec![0, 1, 2], links_per_part: 2, runs: 3, base_seed: 88 }
    }
}

fn mix(base: u64, a: u64, b: u64) -> u64 {
    base ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

/// One NECTAR bridge-attack run; returns the success rate (fraction of
/// correct nodes deciding PARTITIONABLE, the correct answer since the
/// correct subgraph is disconnected).
fn nectar_bridge_run(cfg: &Fig8Config, t: usize, seed: u64) -> f64 {
    if t == 0 {
        let s = partitioned_with_insiders(cfg.n, 0, seed);
        let out = Scenario::new(s.graph, 0).with_key_seed(seed).sim().run();
        return out.success_rate(Verdict::Partitionable);
    }
    let s = bridged_partition(cfg.n, t, cfg.links_per_part, seed);
    let mut scenario = Scenario::new(s.graph, t).with_key_seed(seed);
    for &b in &s.byzantine {
        scenario = scenario.with_byzantine(
            b,
            ByzantineBehavior::TwoFaced { silent_toward: s.part_b.iter().copied().collect() },
        );
    }
    scenario.sim().run().success_rate(Verdict::Partitionable)
}

/// One MtGv2 bridge-attack run.
fn mtgv2_bridge_run(cfg: &Fig8Config, t: usize, seed: u64) -> f64 {
    let (graph, byzantine, part_b) = if t == 0 {
        let s = partitioned_with_insiders(cfg.n, 0, seed);
        (s.graph, Vec::new(), s.part_b)
    } else {
        let s = bridged_partition(cfg.n, t, cfg.links_per_part, seed);
        (s.graph, s.byzantine, s.part_b)
    };
    let byz: BTreeMap<NodeId, MtgV2Behavior> = byzantine
        .into_iter()
        .map(|b| (b, MtgV2Behavior::TwoFaced { silent_toward: part_b.iter().copied().collect() }))
        .collect();
    run_mtg_v2(&graph, &byz, cfg.n - 1, seed).success_rate(BaselineVerdict::Partitioned)
}

/// One MtG insider-attack run.
fn mtg_insider_run(cfg: &Fig8Config, t: usize, seed: u64) -> f64 {
    let s = partitioned_with_insiders(cfg.n, t, seed);
    let byz: BTreeMap<NodeId, MtgBehavior> =
        s.byzantine.into_iter().map(|b| (b, MtgBehavior::SaturateFilter)).collect();
    run_mtg(&s.graph, MtgConfig::new(cfg.n), &byz, cfg.n - 1)
        .success_rate(BaselineVerdict::Partitioned)
}

/// **Fig. 8** — decision success rate vs number of Byzantine nodes, for
/// NECTAR, MtG and MtGv2 in the drone scenario.
pub fn fig8_byzantine_resilience(cfg: &Fig8Config) -> Table {
    let algos: Vec<(&str, fn(&Fig8Config, usize, u64) -> f64)> = vec![
        ("Nectar (ours)", nectar_bridge_run),
        ("MtG", mtg_insider_run),
        ("MtGv2", mtgv2_bridge_run),
    ];
    let series = algos
        .into_iter()
        .map(|(label, runner)| Series {
            label: label.into(),
            points: cfg
                .ts
                .iter()
                .map(|&t| {
                    let samples: Vec<f64> = (0..cfg.runs)
                        .map(|run| runner(cfg, t, mix(cfg.base_seed, t as u64, run as u64)))
                        .collect();
                    let s = summarize(&samples);
                    Point { x: t as f64, mean: s.mean, ci95: s.ci95 }
                })
                .collect(),
        })
        .collect();
    Table {
        id: "fig8".into(),
        title: format!("Fig. 8: decision success rate vs Byzantine count (drone, n = {})", cfg.n),
        x_label: "Number of Byzantine nodes (t)".into(),
        y_label: "Decision success rate".into(),
        series,
    }
}

/// Whether a NECTAR outcome complies with Definition 3 given the ground
/// truth (used when the "correct" verdict is not unique):
///
/// * Agreement must hold;
/// * if the Byzantine cast cuts the correct subgraph, the verdict must be
///   PARTITIONABLE (Safety);
/// * if `κ(G) ≥ 2t`, the verdict must be NOT_PARTITIONABLE
///   (2t-Sensitivity);
/// * any `confirmed = true` requires some subset of the cast to really be
///   a vertex cut of `G` (Validity, in Theorem 2's reading — a Byzantine
///   node with no correct neighbors counts as cut off);
/// * otherwise both verdicts are acceptable.
pub fn nectar_spec_compliant(out: &RunReport, t: usize) -> bool {
    nectar_spec_compliant_with(&mut ConnectivityOracle::new(), out, t)
}

/// [`nectar_spec_compliant`] with a caller-supplied oracle: the
/// 2t-Sensitivity check `κ(G) ≥ 2t` is a threshold decision, so sweeps that
/// test many runs over the same topology resolve it from cache after the
/// first (and with bounded flows even on the first).
pub fn nectar_spec_compliant_with(
    oracle: &mut ConnectivityOracle,
    out: &RunReport,
    t: usize,
) -> bool {
    if !out.agreement() {
        return false;
    }
    let verdict = match out.unanimous_verdict() {
        Some(v) => v,
        None => return out.decisions().is_empty(),
    };
    if out.byzantine_cast_is_vertex_cut() && verdict != Verdict::Partitionable {
        return false;
    }
    if oracle.kappa_at_least(&out.topology, 2 * t) && verdict != Verdict::NotPartitionable {
        return false;
    }
    if out.decisions().values().any(|d| d.confirmed) && !out.byzantine_cast_can_cut() {
        return false;
    }
    true
}

/// Parameters for the §V-D in-text topology-resilience study.
#[derive(Debug, Clone)]
pub struct TopologyResilienceConfig {
    /// System size.
    pub n: usize,
    /// Connectivity parameter of the topology families.
    pub k: usize,
    /// Byzantine counts to sweep.
    pub ts: Vec<usize>,
    /// Repetitions per point.
    pub runs: usize,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl TopologyResilienceConfig {
    /// Full-size study.
    pub fn paper() -> Self {
        TopologyResilienceConfig { n: 30, k: 4, ts: (0..=6).collect(), runs: 20, base_seed: 99 }
    }

    /// Scaled-down study for tests.
    pub fn quick() -> Self {
        TopologyResilienceConfig { n: 16, k: 4, ts: vec![0, 4], runs: 2, base_seed: 99 }
    }
}

/// **§V-D in-text** — success rates on the connectivity-dependent topology
/// families under worst-case ("key position") Byzantine placement: the
/// Byzantine nodes sit on a minimum vertex cut whenever `t ≥ κ`, play
/// two-faced against NECTAR/MtGv2 and saturate filters against MtG.
/// Returns one table per family.
pub fn topology_resilience(cfg: &TopologyResilienceConfig) -> Vec<Table> {
    FamilySpec::paper_families(cfg.k)
        .iter()
        .filter_map(|family| {
            let g = family.build(cfg.n, 0).ok()?;
            Some(family_resilience(cfg, &family.name(), &g))
        })
        .collect()
}

fn family_resilience(cfg: &TopologyResilienceConfig, family: &str, g: &Graph) -> Table {
    let mut nectar_series = Series { label: "Nectar (ours)".into(), points: Vec::new() };
    let mut mtg_series = Series { label: "MtG".into(), points: Vec::new() };
    let mut v2_series = Series { label: "MtGv2".into(), points: Vec::new() };
    // One oracle per family: every run of the sweep places casts on (and
    // spec-checks against) the same topology, so the per-run feasibility
    // and 2t-sensitivity queries all resolve from the shared verdict cache
    // after their first occurrence.
    let mut oracle = ConnectivityOracle::new();
    for &t in &cfg.ts {
        let mut nectar_samples = Vec::new();
        let mut mtg_samples = Vec::new();
        let mut v2_samples = Vec::new();
        for run in 0..cfg.runs {
            let seed = mix(cfg.base_seed, t as u64, run as u64);
            let byz = cut_byzantine_placement_with(&mut oracle, g, t, seed);
            let correct_partitioned = traversal::is_partitioned_without(g, &byz);
            // The silenced side: nodes outside the component of the
            // smallest correct node (empty if the correct subgraph stays
            // connected).
            let silenced = silenced_side(g, &byz);

            // NECTAR: two-faced Byzantine nodes; success = spec compliance.
            let mut scenario = Scenario::new(g.clone(), t).with_key_seed(seed);
            for &b in &byz {
                scenario = scenario.with_byzantine(
                    b,
                    if silenced.is_empty() {
                        ByzantineBehavior::Silent
                    } else {
                        ByzantineBehavior::TwoFaced {
                            silent_toward: silenced.iter().copied().collect(),
                        }
                    },
                );
            }
            let out = scenario.sim().oracle(&mut oracle).run();
            nectar_samples.push(if nectar_spec_compliant_with(&mut oracle, &out, t) {
                1.0
            } else {
                0.0
            });

            // MtG: saturating insiders; the correct answer tracks the
            // correct subgraph.
            let mtg_byz: BTreeMap<NodeId, MtgBehavior> =
                byz.iter().map(|&b| (b, MtgBehavior::SaturateFilter)).collect();
            let mtg_out = run_mtg(g, MtgConfig::new(cfg.n), &mtg_byz, cfg.n - 1);
            let expected = if correct_partitioned {
                BaselineVerdict::Partitioned
            } else {
                BaselineVerdict::Connected
            };
            mtg_samples.push(mtg_out.success_rate(expected));

            // MtGv2: two-faced bridges.
            let v2_byz: BTreeMap<NodeId, MtgV2Behavior> = byz
                .iter()
                .map(|&b| {
                    (
                        b,
                        if silenced.is_empty() {
                            MtgV2Behavior::Silent
                        } else {
                            MtgV2Behavior::TwoFaced {
                                silent_toward: silenced.iter().copied().collect(),
                            }
                        },
                    )
                })
                .collect();
            let v2_out = run_mtg_v2(g, &v2_byz, cfg.n - 1, seed);
            // A silent/two-faced Byzantine node makes its own attestation
            // reachable only partially; the fair expected verdict is about
            // the correct subgraph.
            v2_samples.push(v2_out.success_rate(expected));
        }
        let t_f = t as f64;
        let s = summarize(&nectar_samples);
        nectar_series.points.push(Point { x: t_f, mean: s.mean, ci95: s.ci95 });
        let s = summarize(&mtg_samples);
        mtg_series.points.push(Point { x: t_f, mean: s.mean, ci95: s.ci95 });
        let s = summarize(&v2_samples);
        v2_series.points.push(Point { x: t_f, mean: s.mean, ci95: s.ci95 });
    }
    Table {
        id: format!("text_resilience_{family}"),
        title: format!(
            "§V-D: decision success rate vs t on {family} (n = {}, k = {})",
            cfg.n, cfg.k
        ),
        x_label: "Number of Byzantine nodes (t)".into(),
        y_label: "Decision success rate".into(),
        series: vec![nectar_series, mtg_series, v2_series],
    }
}

/// Parameters for the large-n clustered-fleet resilience sweep.
#[derive(Debug, Clone)]
pub struct ClusteredResilienceConfig {
    /// Number of disjoint clusters.
    pub clusters: usize,
    /// Nodes per cluster.
    pub size: usize,
    /// Byzantine insider counts to sweep.
    pub ts: Vec<usize>,
    /// Repetitions per point.
    pub runs: usize,
    /// Base RNG seed.
    pub base_seed: u64,
    /// The runtime executing the sweep.
    pub runtime: Runtime,
}

impl ClusteredResilienceConfig {
    /// The beyond-the-paper scale: 2 000 nodes (500 clusters of 4) on the
    /// event-driven runtime.
    pub fn paper() -> Self {
        ClusteredResilienceConfig {
            clusters: 500,
            size: 4,
            ts: vec![0, 4, 16],
            runs: 3,
            base_seed: 424,
            runtime: Runtime::Event,
        }
    }

    /// Scaled-down sweep for tests.
    pub fn quick() -> Self {
        ClusteredResilienceConfig {
            clusters: 10,
            size: 4,
            ts: vec![0, 3],
            runs: 2,
            base_seed: 424,
            runtime: Runtime::Event,
        }
    }
}

/// **Beyond §V** — decision success rate on large clustered fleets
/// ([`clustered_fleet`]): the ground truth is a `confirmed` partition
/// everywhere (the fleet is maximally partitioned), so success is the
/// fraction of correct nodes deciding PARTITIONABLE even with silent
/// Byzantine insiders scattered across clusters. Feasible at thousands of
/// nodes only because the event-driven runtime schedules `O(active
/// events)`: every cluster quiesces after ~`size` rounds of the `n − 1`
/// round horizon.
pub fn clustered_resilience(cfg: &ClusteredResilienceConfig) -> Table {
    let mut series = Series { label: "Nectar (ours)".into(), points: Vec::new() };
    // One oracle across the sweep: correct nodes see only their own
    // cluster, so the per-cluster views repeat across runs and epochs and
    // the decision phase resolves from the verdict cache.
    let mut oracle = ConnectivityOracle::new();
    for &t in &cfg.ts {
        let samples: Vec<f64> = (0..cfg.runs)
            .map(|run| {
                let seed = mix(cfg.base_seed, t as u64, run as u64);
                let s = clustered_fleet(cfg.clusters, cfg.size, t, seed);
                let mut scenario = Scenario::new(s.graph, t).with_key_seed(seed);
                for &b in &s.byzantine {
                    scenario = scenario.with_byzantine(b, ByzantineBehavior::Silent);
                }
                let out = scenario.sim().runtime(cfg.runtime).oracle(&mut oracle).run();
                debug_assert!(out.decisions().values().all(|d| d.confirmed));
                out.success_rate(Verdict::Partitionable)
            })
            .collect();
        let s = summarize(&samples);
        series.points.push(Point { x: t as f64, mean: s.mean, ci95: s.ci95 });
    }
    Table {
        id: "large_scale_resilience".into(),
        title: format!(
            "Beyond §V: success rate on a {}-node clustered fleet ({} runtime)",
            cfg.clusters * cfg.size,
            cfg.runtime
        ),
        x_label: "Number of Byzantine insiders (t)".into(),
        y_label: "Decision success rate".into(),
        series: vec![series],
    }
}

/// Nodes cut off from the smallest-id correct node once `byz` is removed.
fn silenced_side(g: &Graph, byz: &[NodeId]) -> Vec<NodeId> {
    let n = g.node_count();
    let byz_set: std::collections::BTreeSet<NodeId> = byz.iter().copied().collect();
    let anchor = match (0..n).find(|v| !byz_set.contains(v)) {
        Some(a) => a,
        None => return Vec::new(),
    };
    let without = g.without_nodes(byz);
    let reach = traversal::reachable_from(&without, anchor);
    (0..n).filter(|&v| !byz_set.contains(&v) && !reach[v]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_graph::gen;

    #[test]
    fn fig8_quick_shapes_match_the_paper() {
        let t = fig8_byzantine_resilience(&Fig8Config::quick());
        let nectar = &t.series[0];
        let mtg = &t.series[1];
        let v2 = &t.series[2];
        // NECTAR: 100% accuracy at every t.
        for p in &nectar.points {
            assert_eq!(p.mean, 1.0, "NECTAR must stay at success 1.0 (t = {})", p.x);
        }
        // Everyone is correct with no Byzantine nodes.
        assert_eq!(mtg.points[0].mean, 1.0);
        assert_eq!(v2.points[0].mean, 1.0);
        // MtG: two insiders (one per side) fool everyone.
        let mtg_t2 = mtg.points.iter().find(|p| p.x == 2.0).unwrap();
        assert_eq!(mtg_t2.mean, 0.0, "MtG must collapse at t = 2");
        // MtGv2: bridge attack leaves roughly half the nodes wrong.
        let v2_t1 = v2.points.iter().find(|p| p.x == 1.0).unwrap();
        assert!(v2_t1.mean < 0.8, "MtGv2 must lose accuracy at t = 1 (got {})", v2_t1.mean);
        assert!(v2_t1.mean > 0.2, "MtGv2 should not collapse entirely (got {})", v2_t1.mean);
    }

    #[test]
    fn spec_compliance_accepts_clean_runs() {
        let g = gen::harary(4, 10).unwrap();
        let out = Scenario::new(g, 2).sim().run();
        assert!(nectar_spec_compliant(&out, 2));
    }

    #[test]
    fn topology_resilience_quick_runs_all_families() {
        let tables = topology_resilience(&TopologyResilienceConfig::quick());
        assert_eq!(tables.len(), 5);
        for table in &tables {
            // NECTAR stays spec-compliant everywhere.
            let nectar = &table.series[0];
            for p in &nectar.points {
                assert_eq!(p.mean, 1.0, "{}: NECTAR failed at t = {}", table.title, p.x);
            }
        }
    }

    #[test]
    fn clustered_resilience_quick_stays_at_full_success() {
        let t = clustered_resilience(&ClusteredResilienceConfig::quick());
        assert_eq!(t.series.len(), 1);
        for p in &t.series[0].points {
            assert_eq!(p.mean, 1.0, "every correct node must confirm the partition (t = {})", p.x);
        }
    }

    #[test]
    fn silenced_side_identifies_cut_components() {
        let g = gen::star(5);
        let side = silenced_side(&g, &[0]);
        // Removing the hub: nodes 2, 3, 4 are cut from anchor node 1.
        assert_eq!(side, vec![2, 3, 4]);
        let g = gen::cycle(5);
        assert!(silenced_side(&g, &[0]).is_empty());
    }
}
