//! Signed vs unsigned cost comparison (the paper's conclusion conjecture).
//!
//! NECTAR needs signatures; §VII posits a signature-free synchronous
//! solution "albeit at a significant cost". This experiment pits NECTAR
//! against the Dolev-style unsigned detector of `nectar-dolev` at equal
//! `(graph, t)` and reports messages and kilobytes per node for both.

use nectar_dolev::{UnsignedConfig, UnsignedNode};
use nectar_graph::gen;
use nectar_net::SyncNetwork;
use nectar_protocol::Scenario;

use crate::table::Table;
use crate::{labelled, sweep, xs};

/// **E11** — messages per node, NECTAR vs the unsigned Dolev-style variant,
/// on k-regular graphs (Harary k = 4, t = 1). System sizes stay modest: the
/// unsigned message count grows with the number of simple paths.
pub fn unsigned_cost(quick: bool) -> Vec<Table> {
    const K: usize = 4;
    const T: usize = 1;
    let ns: &[usize] = if quick { &[8, 10] } else { &[8, 10, 12, 14, 16] };
    let curves = sweep(xs(ns), 1, |i, _| {
        let n = ns[i];
        let g = gen::harary(K, n).expect("K < n");
        let nectar = Scenario::new(g.clone(), T).sim().metrics_only().run().into_metrics();
        let ucfg = UnsignedConfig::new(n, T);
        let nodes: Vec<UnsignedNode> =
            (0..n).map(|v| UnsignedNode::new(v, ucfg, g.neighborhood(v))).collect();
        let mut net = SyncNetwork::new(nodes, g);
        net.run_rounds(ucfg.rounds());
        let unsigned = net.metrics();
        let per_node = |total: u64| total as f64 / n as f64;
        [
            per_node(nectar.msgs_sent().iter().sum()),
            per_node(unsigned.msgs_sent().iter().sum()),
            nectar.mean_bytes_sent_per_node() / 1024.0,
            unsigned.mean_bytes_sent_per_node() / 1024.0,
        ]
    });
    vec![Table {
        id: "unsigned_cost".into(),
        title: format!(
            "Conclusion conjecture: signed vs unsigned detection cost (Harary k = {K}, t = {T})"
        ),
        x_label: "Number of Nodes (n)".into(),
        y_label: "messages / KB per node".into(),
        series: labelled(
            [
                "NECTAR messages/node",
                "unsigned messages/node",
                "NECTAR KB/node",
                "unsigned KB/node",
            ],
            curves,
        ),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsigned_message_count_dwarfs_nectar() {
        let t = &unsigned_cost(true)[0];
        let nectar = &t.series[0];
        let unsigned = &t.series[1];
        for (a, b) in nectar.points.iter().zip(&unsigned.points) {
            assert!(
                b.mean > 2.0 * a.mean,
                "n = {}: unsigned {} should dwarf NECTAR {}",
                a.x,
                b.mean,
                a.mean
            );
        }
    }

    #[test]
    fn unsigned_growth_is_steeper_than_nectar() {
        let t = &unsigned_cost(true)[0];
        let ratio_at = |s: &crate::table::Series, i: usize| s.points[i].mean;
        let nectar_growth = ratio_at(&t.series[0], 1) / ratio_at(&t.series[0], 0);
        let unsigned_growth = ratio_at(&t.series[1], 1) / ratio_at(&t.series[1], 0);
        assert!(
            unsigned_growth > nectar_growth,
            "unsigned growth {unsigned_growth:.2} vs NECTAR {nectar_growth:.2}"
        );
    }
}
