//! Ablation studies over the reproduction's design knobs.
//!
//! * [`wire_format_ablation`]: faithful per-edge signature chains vs the
//!   batched-chain encoding — quantifies how much of NECTAR's cost is chain
//!   signatures (and connects our absolute numbers to the paper's ~500 KB
//!   ceiling);
//! * [`rounds_ablation`]: sweeps the round budget `R` and reports view
//!   completeness, showing why `n − 1` rounds is the safe general-purpose
//!   choice (§IV-B) while `diameter(G)` rounds already suffice on a known
//!   topology.

use nectar_graph::{gen, traversal, Graph};
use nectar_protocol::{NectarConfig, Scenario, WireFormat};

use crate::table::{Point, Series, Table};

/// Parameters for the wire-format ablation.
#[derive(Debug, Clone)]
pub struct WireFormatConfig {
    /// System sizes to sweep.
    pub ns: Vec<usize>,
    /// Connectivity parameter.
    pub k: usize,
}

impl WireFormatConfig {
    /// Full-size sweep.
    pub fn paper() -> Self {
        WireFormatConfig { ns: (20..=100).step_by(20).collect(), k: 10 }
    }

    /// Scaled-down sweep for tests.
    pub fn quick() -> Self {
        WireFormatConfig { ns: vec![12, 20], k: 4 }
    }
}

/// **E9a** — NECTAR's cost per node under both wire formats, on k-regular
/// graphs.
pub fn wire_format_ablation(cfg: &WireFormatConfig) -> Table {
    let formats = [
        ("per-edge chains", WireFormat::PerEdgeChains),
        ("batched chain", WireFormat::BatchedChain),
    ];
    let series = formats
        .into_iter()
        .map(|(label, format)| Series {
            label: label.into(),
            points: cfg
                .ns
                .iter()
                .filter(|&&n| cfg.k < n)
                .map(|&n| {
                    let g = gen::harary(cfg.k, n).expect("k < n checked");
                    let config = NectarConfig::new(n, cfg.k / 2).with_wire_format(format);
                    let metrics = Scenario::new(g, cfg.k / 2)
                        .with_config(config)
                        .sim()
                        .metrics_only()
                        .run()
                        .into_metrics();
                    Point {
                        x: n as f64,
                        mean: metrics.mean_bytes_sent_per_node() / 1024.0,
                        ci95: 0.0,
                    }
                })
                .collect(),
        })
        .collect();
    Table {
        id: "ablation_wire_format".into(),
        title: format!("Ablation: wire format impact on data sent per node (k = {})", cfg.k),
        x_label: "Number of Nodes (n)".into(),
        y_label: "Data sent per node (KBytes)".into(),
        series,
    }
}

/// Parameters for the round-budget ablation.
#[derive(Debug, Clone)]
pub struct RoundsConfig {
    /// The topology to study.
    pub graph: Graph,
    /// Byzantine budget (affects only the decision, not propagation).
    pub t: usize,
}

impl RoundsConfig {
    /// A ring of 24 nodes — diameter 12, so the sweep shows a sharp
    /// completeness knee at `R = 12` while the paper's default would be 23.
    pub fn paper() -> Self {
        RoundsConfig { graph: gen::cycle(24), t: 1 }
    }

    /// Scaled-down version.
    pub fn quick() -> Self {
        RoundsConfig { graph: gen::cycle(8), t: 1 }
    }
}

/// **E9b** — view completeness and cost as a function of the round budget
/// `R ∈ [1, n − 1]`.
pub fn rounds_ablation(cfg: &RoundsConfig) -> Table {
    let n = cfg.graph.node_count();
    let total_edges = cfg.graph.edge_count() as f64;
    let mut completeness = Series { label: "view completeness".into(), points: Vec::new() };
    let mut cost = Series { label: "data sent per node (KB)".into(), points: Vec::new() };
    for rounds in 1..n {
        let config = NectarConfig::new(n, cfg.t).with_rounds(rounds);
        let scenario = Scenario::new(cfg.graph.clone(), cfg.t).with_config(config);
        let out = scenario.sim().run();
        // Completeness: mean fraction of edges discovered across nodes.
        let mean_edges: f64 = out
            .decisions()
            .keys()
            .map(|_| 0.0) // decisions do not expose edge counts; recompute below
            .sum::<f64>();
        let _ = mean_edges;
        // Re-run collecting node views (cheap at these sizes).
        let frac = completeness_fraction(&scenario, total_edges);
        completeness.points.push(Point { x: rounds as f64, mean: frac, ci95: 0.0 });
        cost.points.push(Point {
            x: rounds as f64,
            mean: out.metrics().mean_bytes_sent_per_node() / 1024.0,
            ci95: 0.0,
        });
    }
    Table {
        id: "ablation_rounds".into(),
        title: format!(
            "Ablation: round budget R vs view completeness and cost (cycle n = {}, diameter = {})",
            n,
            traversal::diameter(&cfg.graph).map(|d| d.to_string()).unwrap_or_else(|| "∞".into()),
        ),
        x_label: "Propagation rounds (R)".into(),
        y_label: "fraction / KBytes".into(),
        series: vec![completeness, cost],
    }
}

fn completeness_fraction(scenario: &Scenario, total_edges: f64) -> f64 {
    let participants = scenario.sim().participants();
    let n = participants.len() as f64;
    participants.iter().map(|p| p.nectar().known_edge_count() as f64 / total_edges).sum::<f64>() / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_format_is_cheaper() {
        let t = wire_format_ablation(&WireFormatConfig::quick());
        let per_edge = &t.series[0];
        let batched = &t.series[1];
        for (a, b) in per_edge.points.iter().zip(&batched.points) {
            assert!(b.mean < a.mean, "batched must be cheaper at n = {}", a.x);
        }
    }

    #[test]
    fn completeness_saturates_at_the_diameter() {
        let t = rounds_ablation(&RoundsConfig::quick());
        let completeness = &t.series[0];
        // Cycle of 8: diameter 4. Below 4 rounds the view is incomplete,
        // from 4 rounds on it is complete.
        let at = |r: f64| completeness.points.iter().find(|p| p.x == r).unwrap().mean;
        assert!(at(2.0) < 1.0);
        assert!((at(4.0) - 1.0).abs() < 1e-12);
        assert!((at(7.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cost_stops_growing_after_the_diameter() {
        let t = rounds_ablation(&RoundsConfig::quick());
        let cost = &t.series[1];
        let at = |r: f64| cost.points.iter().find(|p| p.x == r).unwrap().mean;
        // Extra rounds beyond the diameter are silent: same cost.
        assert!((at(4.0) - at(7.0)).abs() < 1e-9);
        assert!(at(2.0) < at(4.0));
    }
}
