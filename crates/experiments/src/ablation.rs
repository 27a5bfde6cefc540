//! Ablation study over the reproduction's one design knob with a choice
//! in it: [`rounds_ablation`] sweeps the round budget `R` and reports view
//! completeness, showing why `n − 1` rounds is the safe general-purpose
//! choice (§IV-B) while `diameter(G)` rounds already suffice on a known
//! topology.

use nectar_graph::{gen, traversal, Graph};
use nectar_protocol::{NectarConfig, Scenario};

use crate::table::{Point, Series, Table};

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
        // Decisions do not expose edge counts, so re-run collecting node
        // views (cheap at these sizes).
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
