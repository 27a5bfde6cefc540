//! Smoke test for the workspace wiring itself: every facade re-export path
//! must resolve and the one-paragraph quick-start must run. If a manifest
//! change drops a crate from the facade (or renames a package a re-export
//! relies on), this file fails to compile — catching the regression in
//! tier-1 instead of in a downstream consumer.

use nectar::prelude::*;

/// The crate-level quick-start, via the prelude alone.
#[test]
fn prelude_quick_start_runs() {
    let graph = nectar::graph::gen::harary(4, 12).expect("valid harary parameters");
    let report = Scenario::new(graph, 2).with_byzantine(5, ByzantineBehavior::Silent).sim().run();
    assert!(report.agreement());
    assert_eq!(report.unanimous_verdict(), Some(Verdict::NotPartitionable));
}

/// Every `pub use` in the facade root must stay importable.
#[test]
fn all_facade_reexports_resolve() {
    // graph = nectar_graph
    let ring: nectar::graph::Graph = nectar::graph::gen::cycle(6);
    assert_eq!(nectar::graph::connectivity::vertex_connectivity(&ring), 2);
    assert!(nectar::graph::traversal::is_connected(&ring));

    // crypto = nectar_crypto
    let keys = nectar::crypto::KeyStore::generate(4, 7);
    let proof = nectar::crypto::NeighborhoodProof::new(&keys.signer(0), &keys.signer(1));
    assert!(proof.verify(&keys.verifier()));

    // net = nectar_net
    let metrics = nectar::net::Metrics::new(3);
    assert_eq!(metrics.total_bytes_sent(), 0);

    // protocol = nectar_protocol
    let config = nectar::protocol::NectarConfig::new(6, 1);
    let _ = config;

    // baselines = nectar_baselines
    let g = nectar::graph::gen::complete(4);
    let out =
        nectar::baselines::run_mtg(&g, MtgConfig::new(4), &std::collections::BTreeSet::new(), 3);
    assert_eq!(out.success_rate(BaselineVerdict::Connected), 1.0);

    // experiments = nectar_experiments
    let summary = nectar::experiments::summarize(&[1.0, 2.0, 3.0]);
    assert_eq!(summary.mean, 2.0);

    // unsigned = nectar_dolev
    let store: nectar::unsigned::PathStore = nectar::unsigned::PathStore::new();
    assert_eq!(store.total_paths(), 0);
}

/// The prelude covers the names the README and examples lean on.
#[test]
fn prelude_exports_the_documented_names() {
    // Construction compiles == the names exist with the documented shapes.
    let _behavior = ByzantineBehavior::Silent;
    let _verdict = Verdict::Partitionable;
    let _config: NectarConfig = NectarConfig::new(6, 1);
    let _mtg_cfg = MtgConfig::new(5);
    let graph: Graph = gen::star(5);
    let scenario = Scenario::new(graph, 1);
    let report: RunReport = scenario.sim().run();
    let _decisions: &std::collections::BTreeMap<usize, Decision> = report.decisions();
}
