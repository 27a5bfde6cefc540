//! The metric tables: every name the benchmark emits, with its unit. The
//! same tables are written down in `../BENCHMARK.json` (with the bounds and
//! directions the driver gates on); a test keeps the two in step.

use std::collections::BTreeMap;

use crate::json;

/// End-to-end metrics `(name, unit, bound)`: what an operator or a
/// researcher pays. `bound` is the share by which the metric may worsen
/// before it counts as a regression.
pub const END_TO_END: &[(&str, &str, f64)] = &[
    ("setup_s", "s", 0.25),
    ("run_ms_min", "ms", 0.25),
    ("run_ms_p25", "ms", 0.25),
    ("kb_per_node", "KiB", 0.02),
    ("peak_rss_mb", "MiB", 0.10),
    ("ok_share", "ratio", 0.01),
];

/// Per-layer metrics `(name, unit)`, from the traced run. Layers are this
/// repository's modules. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // scenario (experiments::scenario)
    ("scenario.parse_ms", "ms"),
    ("scenario.compile_ms", "ms"),
    ("scenario.lines", "count"),
    // keys (crypto::keys) / runner (protocol::runner)
    ("keys.keygen_ms", "ms"),
    ("runner.build_participants_ms", "ms"),
    ("runner.proofs_signed", "count"),
    // node (protocol::node, protocol::byzantine)
    ("node.send_ms", "ms"),
    ("node.receive_ms", "ms"),
    ("node.sends", "count"),
    ("node.receives", "count"),
    ("node.receive_us_per_msg", "us"),
    ("node.edges_received", "count"),
    ("node.accept_ratio", "ratio"),
    ("node.rejections", "count"),
    // chain / proof (crypto::chain, crypto::proof)
    ("chain.links_delivered", "count"),
    ("chain.mean_len", "count"),
    ("chain.verify_naive_ms", "ms"),
    ("chain.memo_leverage", "ratio"),
    // codec / frame (protocol::codec, crypto::codec, crypto::frame)
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.bytes", "count"),
    ("frame.roundtrip_ms", "ms"),
    // engine (net::sync, net::event, net::parallel)
    ("engine.self_ms", "ms"),
    ("engine.events", "count"),
    ("engine.active_rounds", "count"),
    ("engine.parallel2_over_event", "ratio"),
    // schedule (net::schedule)
    ("schedule.compile_ms", "ms"),
    ("schedule.self_ms", "ms"),
    ("schedule.transitions", "count"),
    ("schedule.drops", "count"),
    // transport (net::transport)
    ("transport.self_ms", "ms"),
    ("transport.frames", "count"),
    ("transport.loopback_over_sync", "ratio"),
    ("transport.uds_round_us", "us"),
    // decision (protocol::runner) / oracle, graph (graph::oracle, graph::graph)
    ("decision.collect_ms", "ms"),
    ("decision.classes", "count"),
    ("decision.us_per_class", "us"),
    ("decision.allocs", "count"),
    ("graph.discovered_graph_ms", "ms"),
    ("oracle.queries", "count"),
    ("oracle.cache_hits", "count"),
    ("oracle.hit_ratio", "ratio"),
    ("oracle.shortcuts", "count"),
    ("oracle.bounded_flows", "count"),
    ("oracle.cold_ms", "ms"),
    ("oracle.warm_ms", "ms"),
    // report (protocol::report)
    ("report.to_json_ms", "ms"),
    ("report.json_bytes", "count"),
    // matrix (experiments::matrix) and what it calls per trial
    ("matrix.trial_us", "us"),
    ("graph.gen_ms", "ms"),
    ("matrix.cast_ms", "ms"),
    ("matrix.sim_ms", "ms"),
    ("graph.truth_ms", "ms"),
    ("matrix.overhead_ratio", "ratio"),
    // process
    ("alloc.count", "count"),
    ("alloc.mb", "MiB"),
    ("proc.cpu_over_wall", "ratio"),
    // the trace itself
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Named measurements being accumulated. `None` is a measurement the
/// platform cannot take (printed `null`).
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, Option<f64>>);

impl Values {
    /// Adds `value` to `name` (sums over trials and repeated stages).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let slot = self.0.entry(name).or_insert(Some(0.0));
        *slot = slot.map(|v| v + value);
    }

    /// Sets `name`, replacing what was there.
    pub fn set(&mut self, name: &'static str, value: Option<f64>) {
        self.0.insert(name, value);
    }

    /// The value of `name`; 0 when never recorded.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().flatten().unwrap_or(0.0)
    }

    /// `numerator ÷ denominator` of two recorded values, 0 when the
    /// denominator is 0 (a layer that did no work has no ratio).
    pub fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        let d = self.get(denominator);
        if d == 0.0 {
            0.0
        } else {
            self.get(numerator) / d
        }
    }

    /// The `"metrics"` object of a result line: exactly the names of
    /// `table`, in table order, each with its unit.
    ///
    /// # Panics
    ///
    /// Panics if a value was recorded under a name `table` does not list —
    /// a typo would otherwise silently report 0.
    pub fn render(&self, table: impl IntoIterator<Item = (&'static str, &'static str)>) -> String {
        let table: Vec<_> = table.into_iter().collect();
        for name in self.0.keys() {
            assert!(table.iter().any(|(n, _)| n == name), "metric {name} is not in the table");
        }
        json::object(table.into_iter().map(|(name, unit)| {
            let value = self.0.get(name).copied().unwrap_or(Some(0.0));
            (name, json::object([("value", json::num(value)), ("unit", json::string(unit))]))
        }))
    }
}

/// [`END_TO_END`] as `(name, unit)` pairs, for [`Values::render`].
pub fn end_to_end_units() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END.iter().map(|&(name, unit, _)| (name, unit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_emits_every_table_name_once_with_its_unit() {
        let mut v = Values::default();
        v.add("node.sends", 2.0);
        v.add("node.sends", 3.0);
        v.set("alloc.mb", None);
        let parsed = json::parse(&v.render(PER_LAYER.iter().copied())).unwrap();
        let fields = parsed.as_obj().unwrap();
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, PER_LAYER.iter().map(|(n, _)| *n).collect::<Vec<_>>());
        assert_eq!(parsed.get("node.sends").unwrap().get("value").unwrap().as_f64(), Some(5.0));
        assert_eq!(parsed.get("node.sends").unwrap().get("unit").unwrap().as_str(), Some("count"));
        assert_eq!(parsed.get("alloc.mb").unwrap().get("value"), Some(&json::Value::Null));
        assert_eq!(parsed.get("node.receives").unwrap().get("value").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn a_misspelt_metric_is_caught() {
        let mut v = Values::default();
        v.add("node.sendz", 1.0);
        let _ = v.render(PER_LAYER.iter().copied());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> =
            END_TO_END.iter().map(|m| m.0).chain(PER_LAYER.iter().map(|m| m.0)).collect();
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
