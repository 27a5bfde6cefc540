//! Cross-runtime equivalence and scale properties.
//!
//! Every runtime — deterministic sync, event-driven, and the event loop
//! fanned out over workers (`parallel:W`) — promises *bit-identical*
//! [`RunReport`]s for any scenario
//! (same decisions, same traffic metrics, same oracle counters); the
//! contract each upholds is written down in `docs/DETERMINISM.md`.
//! This suite enforces that promise over the shared zoo of `tests/common`
//! (every §V-B topology family, casts over all eight Byzantine
//! behaviours) — the parallel runtime at several worker counts, since worker count must never
//! leak into results — and pins down the scale claim: the event-driven
//! runtime hosts a 10 000-node scenario in one process, on one or two
//! workers.

mod common;

use proptest::prelude::*;

use common::{arb_scenario, assert_reports_identical, build_scenario};
use nectar::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// sync == event == parallel, bit for bit, across the generator zoo
    /// and the Byzantine behaviour zoo. The parallel runtime
    /// runs at a case-varied worker count: results must not depend on how
    /// the pool is sized (or on which worker stole which node).
    #[test]
    fn all_runtimes_produce_identical_outcomes(
        (g, t, cast) in arb_scenario(),
        workers in 1usize..5,
    ) {
        let scenario = build_scenario(&g, t, &cast);
        let sync = scenario.sim().runtime(Runtime::Sync).run();
        let event = scenario.sim().runtime(Runtime::Event).run();
        let parallel = scenario.sim().runtime(Runtime::Parallel { workers }).run();
        assert_reports_identical(&sync, &event, "sync vs event");
        assert_reports_identical(&sync, &parallel, "sync vs parallel");
    }
}

/// Fixed colluding casts, as a deterministic anchor beside the random ones
/// — LateReveal in particular sends *spontaneously*, the hard case for
/// event and parallel scheduling alike.
#[test]
fn colluding_casts_agree_across_runtimes() {
    let g = gen::cycle(8);
    let build = || {
        Scenario::new(g.clone(), 2)
            .with_key_seed(13)
            .with_byzantine(0, ByzantineBehavior::LateReveal { partner: 1, others: vec![] })
            .with_byzantine(1, ByzantineBehavior::FictitiousEdges { partners: vec![0] })
    };
    let sync = build().sim().run();
    let event = build().sim().runtime(Runtime::Event).run();
    let parallel = build().sim().runtime(Runtime::Parallel { workers: 3 }).run();
    assert_reports_identical(&sync, &event, "sync vs event");
    assert_reports_identical(&sync, &parallel, "sync vs parallel");

    // The colluding data-falsifying cast (matrix attack zoo): partnered
    // falsifiers on the articulation placement fabricate "up" measurements
    // at build time and suppress real ones per coin flip — the
    // announcement stream itself depends on the cast, so every engine
    // must reproduce it byte for byte.
    let g = gen::path(8);
    let build = || {
        let mut scenario = Scenario::new(g.clone(), 2).with_key_seed(13);
        for (node, behavior) in nectar_experiments::articulation_falsifier_cast(&g, 2, 700, 13) {
            scenario = scenario.with_byzantine(node, behavior);
        }
        scenario
    };
    let sync = build().sim().run();
    let event = build().sim().runtime(Runtime::Event).run();
    let parallel = build().sim().runtime(Runtime::Parallel { workers: 3 }).run();
    assert_reports_identical(&sync, &event, "falsifier: sync vs event");
    assert_reports_identical(&sync, &parallel, "falsifier: sync vs parallel");
}

const TEN_THOUSAND: usize = 10_000;

/// The 10 000-node scale scenario: 2 500 disjoint 4-cliques, t = 2.
fn ten_thousand_node_scenario() -> Scenario {
    Scenario::new(gen::disjoint_cliques(TEN_THOUSAND / 4, 4), 2)
        .with_key_seed(42)
        .with_byzantine(0, ByzantineBehavior::Silent)
        .with_byzantine(4, ByzantineBehavior::TwoFaced { silent_toward: [5].into() })
}

/// The scenario's event-runtime report, run once and shared by both scale
/// tests.
fn ten_thousand_node_event_report() -> &'static RunReport {
    static REPORT: std::sync::OnceLock<RunReport> = std::sync::OnceLock::new();
    REPORT.get_or_init(|| ten_thousand_node_scenario().sim().runtime(Runtime::Event).run())
}

/// The scale claim of the event-driven runtime: an n = 10 000 node scenario
/// completes in one process, with the paper's full `n − 1 = 9 999` round horizon, because
/// dissemination quiesces cluster-locally and the scheduler only pays for
/// active events.
#[test]
fn ten_thousand_node_scenario_completes_on_the_event_runtime() {
    let n = TEN_THOUSAND;
    let out = ten_thousand_node_event_report();
    assert_eq!(out.decisions().len(), n - 2);
    assert!(out.agreement());
    // Ground truth: the fleet is maximally partitioned; every correct node
    // sees only its own cluster and confirms the partition.
    assert_eq!(out.unanimous_verdict(), Some(Verdict::Partitionable));
    assert!(out.decisions().values().all(|d| d.confirmed));
    assert!(out.decisions().values().all(|d| d.reachable <= 4));
    assert!(out.metrics().total_bytes_sent() > 0);
}

/// The same 10 000-node scenario on two workers. Every round is past the
/// pool's inline threshold, so this is the NECTAR fleet on which the fanned
/// rounds really run threaded, and its report must equal the event one.
#[test]
fn ten_thousand_node_scenario_completes_on_the_parallel_runtime() {
    let parallel =
        ten_thousand_node_scenario().sim().runtime(Runtime::Parallel { workers: 2 }).run();
    assert_reports_identical(ten_thousand_node_event_report(), &parallel, "event vs parallel:2");
}

/// `Runtime`'s `Display`/`FromStr` pair is the CLI `--runtime` vocabulary
/// *and* the name persisted in `RunReport`/`MatrixReport` JSON — it must
/// round-trip for every variant, worker counts included, so the flag and
/// the report format cannot silently drift apart.
#[test]
fn runtime_display_fromstr_round_trips_every_variant() {
    let variants = [
        Runtime::Sync,
        Runtime::Event,
        Runtime::Parallel { workers: 0 },
        Runtime::Parallel { workers: 1 },
        Runtime::Parallel { workers: 2 },
        Runtime::Parallel { workers: 7 },
        Runtime::Parallel { workers: 64 },
    ];
    for rt in variants {
        let name = rt.to_string();
        assert_eq!(name.parse::<Runtime>().unwrap(), rt, "{name} does not round-trip");
    }
    // The canonical spellings are pinned: a worker count is carried as
    // `parallel:<W>`, while the match-the-machine pool keeps the
    // historical bare name (so old persisted reports still parse).
    assert_eq!(Runtime::Sync.to_string(), "sync");
    assert_eq!(Runtime::Event.to_string(), "event");
    assert_eq!(Runtime::parallel().to_string(), "parallel");
    assert_eq!(Runtime::Parallel { workers: 3 }.to_string(), "parallel:3");
    assert_eq!("parallel".parse::<Runtime>().unwrap(), Runtime::Parallel { workers: 0 });
    assert_eq!("parallel:12".parse::<Runtime>().unwrap(), Runtime::Parallel { workers: 12 });
    // Malformed names are errors, not defaults.
    // ("threaded" named a retired engine.)
    for bad in
        ["", "warp", "threaded", "Parallel", "parallel:", "parallel:x", "parallel:-1", "sync "]
    {
        assert!(bad.parse::<Runtime>().is_err(), "{bad:?} was accepted");
    }
}
