//! The transport conformance harness (headline of the socket-transport
//! PR): the real multi-process socket path must deliver the same protocol
//! behaviour as the deterministic in-memory engines.
//!
//! Two layers, matching the two transports:
//!
//! * **Loopback** (in-process, still fully framed): bit-level
//!   equivalence. A proptest over the shared zoo of `tests/common`
//!   (topology families × all eight Byzantine behaviours) checks
//!   that driving the participants over [`run_over_loopback`] reproduces
//!   `Runtime::Sync`'s decisions *and* traffic metrics exactly.
//! * **UDS fleet** (one OS process per node via `nectar-cli node`):
//!   *delivered-message equivalence*, the contract `docs/DETERMINISM.md`
//!   assigns to the socket path. A seeded fleet must reach the same
//!   per-node verdicts, confirmations and accepted-edge sets as the sync
//!   run, and the union of the fleet's `DeliveryLog`s must equal the
//!   in-memory capture — honest and Byzantine casts alike.

mod common;

use std::process::{Child, Command, Stdio};

use proptest::prelude::*;

use common::{arb_scenario, build_scenario};
use nectar::graph::{gen, ConnectivityOracle};
use nectar::net::transport::{DeliveryLog, NodeDriver, Recorded};
use nectar::net::LoopbackHub;
use nectar::prelude::*;
use nectar::protocol::{sync_fleet_reports, NodeReport};

// ---------------------------------------------------------------------------
// Loopback: decision- and metrics-equivalence across the zoos.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Driving the unchanged participants over the loopback transport —
    /// every message round-tripped through the frame codec — reproduces
    /// the sync engine's decisions and metrics bit for bit, across the
    /// topology and behaviour zoos.
    #[test]
    fn loopback_simulation_matches_sync((g, t, cast) in arb_scenario()) {
        let scenario = build_scenario(&g, t, &cast);
        let reference = scenario.sim().run();

        let rounds = scenario.config().effective_rounds();
        let participants = scenario.build_participants();
        let (participants, metrics, ()) =
            nectar::net::run_over_loopback(participants, scenario.topology(), rounds)
                .expect("loopback run");
        let mut oracle = ConnectivityOracle::new();
        let (decisions, _) = scenario.collect_decisions(&participants, &mut oracle, 1);

        prop_assert_eq!(&decisions, reference.decisions(), "decisions diverge over loopback");
        prop_assert_eq!(&metrics, reference.metrics(), "metrics diverge over loopback");
    }
}

// ---------------------------------------------------------------------------
// UDS fleet: delivered-message equivalence, one OS process per node.
// ---------------------------------------------------------------------------

/// The seeded conformance scenario: harary(2, 6) is the 6-cycle, and with
/// `t = 2` its κ = 2 ≤ t makes every correct node decide PARTITIONABLE
/// (unconfirmed) — a verdict that actually depends on full dissemination,
/// so a transport that loses or duplicates messages fails loudly.
const FLEET_N: usize = 6;
const FLEET_SEED: u64 = 1207;

fn fleet_scenario(byz: &[(usize, ByzantineBehavior)]) -> Scenario {
    let g = gen::harary(2, FLEET_N).expect("harary(2, 6)");
    let mut scenario = Scenario::new(g, 2).with_key_seed(FLEET_SEED);
    for (node, behavior) in byz {
        scenario = scenario.with_byzantine(*node, behavior.clone());
    }
    scenario
}

/// Spawns the full `nectar-cli node` fleet for [`fleet_scenario`] over
/// UDS and parses every member's report. The fleet is described the only
/// way a fleet can be: one scenario file, written here and handed to
/// every process as `--scenario <file> --node i`; `byz` holds its `byz`
/// directive values.
fn run_uds_fleet(tag: &str, byz: &[&str]) -> Vec<NodeReport> {
    let dir = std::env::temp_dir().join(format!("nectar-conf-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create socket dir");
    let file = dir.join("fleet.scn");
    let byz_lines: String = byz.iter().map(|spec| format!("byz {spec}\n")).collect();
    std::fs::write(
        &file,
        format!(
            "name conformance fleet {tag}\n\
             topology harary-k2 {FLEET_N}\n\
             t 2\n\
             seed {FLEET_SEED}\n\
             {byz_lines}\
             transport uds\n\
             sock-dir {}\n\
             connect-timeout-ms 20000\n\
             recv-timeout-ms 20000\n",
            dir.display()
        ),
    )
    .expect("write scenario file");

    let children: Vec<(usize, Child)> = (0..FLEET_N)
        .map(|i| {
            let child = Command::new(env!("CARGO_BIN_EXE_nectar-cli"))
                .args([
                    "node",
                    "--scenario",
                    file.to_str().expect("utf-8 temp dir"),
                    "--node",
                    &i.to_string(),
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn nectar-cli node");
            (i, child)
        })
        .collect();

    let mut reports = Vec::with_capacity(FLEET_N);
    for (i, child) in children {
        let output = child.wait_with_output().expect("collect node process");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "node {i} failed (status {:?}):\nstdout: {stdout}\nstderr: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr),
        );
        let report = NodeReport::parse(&stdout)
            .unwrap_or_else(|e| panic!("node {i} emitted an unparseable report: {e}\n{stdout}"));
        assert_eq!(report.node, i, "process {i} reported as node {}", report.node);
        reports.push(report);
    }
    let _ = std::fs::remove_dir_all(&dir);
    reports
}

/// Asserts the fleet's reports are delivered-message equivalent to the
/// in-memory sync run of the same scenario: identical per-node decisions
/// and accepted-edge sets for every *correct* node, identical traffic
/// counters, and an identical fleet-wide delivery set.
fn assert_fleet_conforms(scenario: &Scenario, fleet: &[NodeReport]) {
    let (reference, reference_log) = sync_fleet_reports(scenario);
    let byzantine = scenario.byzantine_nodes();
    let mut fleet_log = DeliveryLog::new();
    for report in fleet {
        let expected = &reference[&report.node];
        fleet_log.merge(&report.deliveries);
        if byzantine.contains(&report.node) {
            // A Byzantine node's verdict carries no guarantee; its traffic
            // still must match (the wrappers are deterministic).
            assert_eq!(
                (report.bytes_sent, report.msgs_sent),
                (expected.bytes_sent, expected.msgs_sent),
                "byzantine node {} traffic diverges",
                report.node
            );
            continue;
        }
        assert_eq!(report, expected, "correct node {} diverges from the sync run", report.node);
    }
    assert_eq!(
        fleet_log, reference_log,
        "the fleet's delivered-message set diverges from the in-memory capture"
    );
}

#[test]
fn uds_fleet_matches_sync_on_an_honest_cast() {
    let scenario = fleet_scenario(&[]);
    let fleet = run_uds_fleet("honest", &[]);
    // Sanity: the seeded verdict itself, before any cross-checking.
    for report in &fleet {
        assert_eq!(report.decision.verdict, Verdict::Partitionable, "node {}", report.node);
        assert!(!report.decision.confirmed, "node {}", report.node);
        assert_eq!(report.decision.reachable, FLEET_N, "node {}", report.node);
    }
    assert_fleet_conforms(&scenario, &fleet);
}

#[test]
fn uds_fleet_matches_sync_on_a_byzantine_cast() {
    let byz = [
        (1usize, ByzantineBehavior::Silent),
        (4usize, ByzantineBehavior::TwoFaced { silent_toward: [2, 3].into_iter().collect() }),
    ];
    let scenario = fleet_scenario(&byz);
    let fleet = run_uds_fleet("byz", &["1:silent", "4:two-faced@2-3"]);
    assert_fleet_conforms(&scenario, &fleet);
    // The cast must have had an observable effect, or the test proves
    // nothing. Both faults filter *sends*, so they are visible in the
    // delivered-message sets: the silent node delivers nothing anywhere,
    // and the two-faced node delivers nothing to its victim neighbor 3.
    assert_eq!(fleet[1].msgs_sent, 0, "the silent node sent traffic");
    for report in &fleet {
        assert!(
            report.deliveries.entries().all(|&(from, _, _)| from != 1),
            "node {} received from the silent node",
            report.node
        );
    }
    assert!(
        fleet[3].deliveries.entries().all(|&(from, _, _)| from != 4),
        "the two-faced node delivered to its victim"
    );
    assert!(
        fleet[5].deliveries.entries().any(|&(from, _, _)| from == 4),
        "the two-faced node should still talk to non-victims"
    );
}

/// The scenario-file front door's own conformance pin: every fleet here
/// is launched as `--scenario <file> --node i`, and this one holds the
/// Byzantine cast to the delivered-message contract and nothing else.
#[test]
fn uds_fleet_launched_via_a_scenario_file_matches_sync() {
    let byz = [
        (1usize, ByzantineBehavior::Silent),
        (4usize, ByzantineBehavior::TwoFaced { silent_toward: [2, 3].into_iter().collect() }),
    ];
    let fleet = run_uds_fleet("scn", &["1:silent", "4:two-faced@2-3"]);
    assert_fleet_conforms(&fleet_scenario(&byz), &fleet);
}

/// In-process twin of the UDS fleet on the same seeded scenario, driving
/// [`NodeDriver`]s over loopback around the same [`Recorded`] capture
/// layer `nectar-cli node` uses: pins that the *driver* layer (round
/// barrier, ascending-sender delivery, decode) — not just the sync
/// engine — is the behaviour the multi-process fleet must match.
#[test]
fn loopback_fleet_matches_sync_on_the_conformance_scenario() {
    let byz = [
        (1usize, ByzantineBehavior::Silent),
        (4usize, ByzantineBehavior::TwoFaced { silent_toward: [2, 3].into_iter().collect() }),
    ];
    let scenario = fleet_scenario(&byz);
    let (reference, reference_log) = sync_fleet_reports(&scenario);
    let g = scenario.topology().clone();
    let hub = LoopbackHub::new(g.node_count());
    let mut drivers: Vec<_> = scenario
        .build_participants()
        .into_iter()
        .enumerate()
        .map(|(i, p)| NodeDriver::new(Recorded::new(p), hub.transport(i, g.neighborhood(i))))
        .collect();
    for round in 1..=scenario.config().effective_rounds() {
        for d in drivers.iter_mut() {
            d.begin_round(round).expect("send phase");
        }
        for d in drivers.iter_mut() {
            d.finish_round(round).expect("deliver phase");
        }
    }
    let mut fleet_log = DeliveryLog::new();
    for (i, driver) in drivers.into_iter().enumerate() {
        let (recorded, sent, _) = driver.into_parts();
        let log = recorded.delivery_log();
        let bytes: u64 = sent.iter().map(|r| r.wire_bytes as u64).sum();
        assert_eq!(bytes, reference[&i].bytes_sent, "node {i} bytes");
        assert_eq!(sent.len() as u64, reference[&i].msgs_sent, "node {i} msgs");
        fleet_log.merge(log);
    }
    assert_eq!(fleet_log, reference_log);
}
