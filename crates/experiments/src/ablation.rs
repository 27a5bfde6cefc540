//! Ablation study over the reproduction's one design knob with a choice
//! in it: [`rounds_ablation`] sweeps the round budget `R` and reports view
//! completeness, showing why `n − 1` rounds is the safe general-purpose
//! choice (§IV-B) while `diameter(G)` rounds already suffice on a known
//! topology.

use nectar_graph::{gen, traversal};
use nectar_protocol::{NectarConfig, Scenario};

use crate::table::Table;
use crate::{labelled, sweep};

/// **E9b** — view completeness and cost as a function of the round budget
/// `R ∈ [1, n − 1]`. The full study runs a ring of 24 nodes — diameter 12,
/// so the sweep shows a sharp completeness knee at `R = 12` while the
/// paper's default would be 23; the quick one a ring of 8.
pub fn rounds_ablation(quick: bool) -> Vec<Table> {
    const T: usize = 1;
    let graph = gen::cycle(if quick { 8 } else { 24 });
    let n = graph.node_count();
    let total_edges = graph.edge_count() as f64;
    let curves = sweep((1..n).map(|r| r as f64), 1, |i, _| {
        let config = NectarConfig::new(n, T).with_rounds(i + 1);
        let scenario = Scenario::new(graph.clone(), T).with_config(config);
        let out = scenario.sim().run();
        // Completeness: mean fraction of edges discovered across nodes.
        // Decisions do not expose edge counts, so re-run collecting node
        // views (cheap at these sizes).
        [
            completeness_fraction(&scenario, total_edges),
            out.metrics().mean_bytes_sent_per_node() / 1024.0,
        ]
    });
    vec![Table {
        id: "ablation_rounds".into(),
        title: format!(
            "Ablation: round budget R vs view completeness and cost (cycle n = {}, diameter = {})",
            n,
            traversal::diameter(&graph).map(|d| d.to_string()).unwrap_or_else(|| "∞".into()),
        ),
        x_label: "Propagation rounds (R)".into(),
        y_label: "fraction / KBytes".into(),
        series: labelled(["view completeness", "data sent per node (KB)"], curves),
    }]
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
        let t = &rounds_ablation(true)[0];
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
        let t = &rounds_ablation(true)[0];
        let cost = &t.series[1];
        let at = |r: f64| cost.points.iter().find(|p| p.x == r).unwrap().mean;
        // Extra rounds beyond the diameter are silent: same cost.
        assert!((at(4.0) - at(7.0)).abs() < 1e-9);
        assert!(at(2.0) < at(4.0));
    }
}
