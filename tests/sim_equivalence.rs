//! Builder equivalence: `scenario.sim()…run()` pinned against paths that
//! share none of its plumbing, over the shared zoo of `tests/common` (all
//! eight Byzantine behaviours).
//!
//! This suite is the named `builder-equivalence` CI step:
//!
//! * **Ground truth** — the builder's decisions and oracle counters equal
//!   deciding node by node (`NectarNode::decide_with` over the raw
//!   participants), which shares none of `Simulation::run`'s
//!   epoch/collect/report plumbing.
//! * **Builder axes against their long-hand form** — `.epochs(k)` equals k
//!   independently constructed sessions sharing one oracle, and
//!   `.metrics_only()` changes nothing but the skipped decision phase.

mod common;

use proptest::prelude::*;

use common::{arb_scenario, build_scenario};
use nectar::prelude::*;
use nectar::protocol::ConnectivityOracle;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A metrics-only run skips the decision phase and nothing else: its
    /// traffic counters equal the full run's on every runtime, over the
    /// topology and behaviour zoos, at a case-varied parallel worker count.
    #[test]
    fn metrics_only_runs_report_the_full_runs_metrics(
        (g, t, cast) in arb_scenario(),
        workers in 1usize..4,
    ) {
        let scenario = build_scenario(&g, t, &cast);
        for runtime in [Runtime::Sync, Runtime::Event, Runtime::Parallel { workers }] {
            let full = scenario.sim().runtime(runtime).run();
            let metrics_only = scenario.sim().runtime(runtime).metrics_only().run();
            prop_assert_eq!(metrics_only.metrics(), full.metrics(), "{}", runtime);
            prop_assert!(metrics_only.decisions().is_empty(), "{}", runtime);
        }
    }

    /// Ground truth: the builder's decisions and oracle counters must
    /// equal deciding node by node via `NectarNode::decide_with` on the raw
    /// participants — the reference path that shares no code with
    /// `Simulation::run`'s collect/report plumbing.
    #[test]
    fn builder_decisions_match_the_per_node_reference((g, t, cast) in arb_scenario()) {
        let scenario = build_scenario(&g, t, &cast);
        let report = scenario.sim().run();
        let byzantine = scenario.byzantine_nodes();
        let participants = scenario.sim().participants();
        let mut oracle = ConnectivityOracle::new();
        let mut checked = 0;
        for p in &participants {
            let node = p.nectar();
            if byzantine.contains(&node.node_id()) {
                continue;
            }
            let expected = node.decide_with(&mut oracle);
            prop_assert_eq!(
                report.decisions().get(&node.node_id()),
                Some(&expected),
                "node {}", node.node_id()
            );
            checked += 1;
        }
        prop_assert_eq!(report.decisions().len(), checked);
        prop_assert_eq!(report.oracle().queries, oracle.stats().queries);
        prop_assert_eq!(report.oracle().cache_hits, oracle.stats().cache_hits);
    }
}

/// `.epochs(k)` equals its long-hand form: k single-epoch sessions with
/// key seeds `base + e` sharing one oracle.
#[test]
fn epochs_equal_sessions_with_consecutive_key_seeds_sharing_one_oracle() {
    let g = gen::harary(4, 10).unwrap();
    let scenario =
        Scenario::new(g.clone(), 2).with_key_seed(31).with_byzantine(4, ByzantineBehavior::Silent);
    let report = scenario.sim().runtime(Runtime::Event).epochs(3).run();
    let mut oracle = ConnectivityOracle::new();
    for epoch in 0..3 {
        let session = Scenario::new(g.clone(), 2)
            .with_key_seed(31 + epoch as u64)
            .with_byzantine(4, ByzantineBehavior::Silent)
            .sim()
            .runtime(Runtime::Event)
            .oracle(&mut oracle)
            .run();
        let (e, long_hand) = (&report.epochs[epoch], session.last());
        assert_eq!(e.key_seed, long_hand.key_seed, "epoch {epoch}");
        assert_eq!(e.decisions, long_hand.decisions, "epoch {epoch}");
        assert_eq!(e.metrics, long_hand.metrics, "epoch {epoch}");
        assert_eq!(e.oracle, long_hand.oracle, "epoch {epoch}");
    }
}
