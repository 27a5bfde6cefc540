//! Cross-runtime equivalence and scale: the one suite that pins the
//! runtimes against each other.
//!
//! Every runtime — deterministic sync, event-driven, and the event loop
//! fanned out over workers (`parallel:W`) — promises *bit-identical*
//! [`RunReport`]s for any scenario (same decisions, same traffic metrics,
//! same oracle counters, same rejection tallies); the contract each
//! upholds is written down in `docs/DETERMINISM.md`. That is also the
//! observable the hot-path caches must leave untouched (the relay batch,
//! the proof's digest cache, the rolling view fingerprints and the
//! oracle's edge-list layer 1; `tests/hot_path_equivalence.rs` lists
//! their per-value pins), so one sweep serves both.
//! This suite enforces the promise
//!
//! * over the shared zoo of `tests/common` (every §V-B topology family,
//!   casts over all eight Byzantine behaviours), with the parallel
//!   runtime on the worker grid {0, 2, 3, 4, 7} (0 = auto-detect, so
//!   the grid also sweeps whatever the host resolves to), since worker
//!   count must never leak into results;
//! * on fixed anchors that fail loudly (no shrinking, stable names): a
//!   scheduled multi-epoch Byzantine run, a partitioned fleet of many
//!   view classes, and fixed colluding casts;
//!
//! and pins down the scale claim: the event-driven runtime hosts a
//! 10 000-node scenario in one process, on one or two workers, and two
//! workers really spawn threads on that fleet.

mod common;

use proptest::prelude::*;

use common::{arb_scenario, assert_reports_identical, build_scenario};
use nectar::prelude::*;

/// Every engine but the sync reference, with the parallel one on the
/// {0, 2, 3, 4, 7} worker grid (0 = auto-detect, so this also sweeps
/// whatever the host machine resolves to; `parallel:1` is `event`).
const OTHER_RUNTIMES: [Runtime; 6] = [
    Runtime::Event,
    Runtime::Parallel { workers: 0 },
    Runtime::Parallel { workers: 2 },
    Runtime::Parallel { workers: 3 },
    Runtime::Parallel { workers: 4 },
    Runtime::Parallel { workers: 7 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// sync == event == parallel, bit for bit, across the generator zoo
    /// and the Byzantine behaviour zoo, with the parallel runtime at every
    /// worker count of [`OTHER_RUNTIMES`]: the full report must not depend
    /// on the engine, on how the pool is sized or on which worker took
    /// which block — nor on any hot-path cache.
    #[test]
    fn reports_are_bit_identical_across_runtimes_and_worker_counts(
        (g, t, cast) in arb_scenario(),
    ) {
        let scenario = build_scenario(&g, t, &cast);
        let reference = scenario.sim().run();
        for runtime in OTHER_RUNTIMES {
            let report = scenario.sim().runtime(runtime).run();
            assert_reports_identical(&report, &reference, &format!("{runtime}"));
        }
    }
}

/// A fixed multi-epoch, scheduled, Byzantine scenario swept across every
/// runtime and the {0, 2, 3, 4, 7} worker grid — the deterministic anchor
/// that fails loudly (no shrinking, stable name) if any cache ever leaks
/// into decisions, metrics, oracle counters, or rejection tallies.
#[test]
fn scheduled_multi_epoch_runs_are_bit_identical_everywhere() {
    let g = gen::harary(4, 12).expect("valid harary");
    let scenario = Scenario::new(g, 2)
        .with_key_seed(77)
        .with_byzantine(2, ByzantineBehavior::Silent)
        .with_byzantine(9, ByzantineBehavior::TwoFaced { silent_toward: [0, 4].into() });
    let schedule = TopologySchedule::new()
        .drop_edge(1, 0, 1)
        .heal_edge(3, 0, 1)
        .drop_edge(2, 4, 5)
        .heal_edge(4, 4, 5);
    let run = |runtime: Runtime| {
        scenario.sim().runtime(runtime).schedule(schedule.clone()).epochs(2).run()
    };
    let reference = run(Runtime::Sync);
    assert_eq!(reference.epochs.len(), 2);
    assert!(!reference.decisions().is_empty());
    for runtime in OTHER_RUNTIMES {
        let report = run(runtime);
        assert_reports_identical(&report, &reference, &format!("{runtime}"));
        // The JSON projection agrees too, once the legitimate runtime/
        // workers header line is dropped — a codec-level restatement of
        // the same pin.
        let normalize = |r: &RunReport| {
            r.to_json()
                .lines()
                .filter(|l| !l.contains("\"runtime\":"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(normalize(&report), normalize(&reference), "{runtime}: JSON drifted");
    }
}

/// The regime the edge-list layer 1 exists for: a partitioned fleet whose
/// every view is a small island in the fleet's id space. Disjoint cliques
/// plus connected islands with `δ ≤ t` (path, star) and with `δ > t`
/// (cycle, Harary), one of them split further by a Byzantine member —
/// a dozen-odd view classes, each settled without a view graph — pinned
/// bit-identical on every runtime and the {0, 2, 3, 4, 7} worker grid.
#[test]
fn many_class_partitioned_fleets_are_bit_identical_everywhere() {
    let islands = [
        gen::disjoint_cliques(6, 4),
        gen::path(5),
        gen::star(6),
        gen::cycle(7),
        gen::harary(4, 9).expect("valid harary"),
        Graph::empty(2),
    ];
    let n = islands.iter().map(Graph::node_count).sum();
    let mut fleet = Graph::empty(n);
    let mut base = 0;
    for island in &islands {
        for (u, v) in island.edges() {
            fleet.add_edge(base + u, base + v).expect("offsets stay in range");
        }
        base += island.node_count();
    }
    let harary_base = n - 2 - 9;
    let scenario = Scenario::new(fleet, 1).with_key_seed(91).with_byzantine(
        harary_base,
        ByzantineBehavior::TwoFaced { silent_toward: [harary_base + 1].into() },
    );
    let reference = scenario.sim().run();
    let oracle = reference.oracle();
    assert!(oracle.queries - oracle.cache_hits >= 11, "one cold query per view class");
    assert_eq!(oracle.bounded_flows, 0, "every class is settled by layer 1");
    assert!(reference.decisions().values().all(|d| d.confirmed));
    for runtime in OTHER_RUNTIMES {
        let report = scenario.sim().runtime(runtime).run();
        assert_reports_identical(&report, &reference, &format!("{runtime}"));
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
