//! Smoke harness for the curated `scenarios/` library: every checked-in
//! scenario file must parse, round-trip through its canonical text form,
//! compile at full scale, and — in its reduced form — actually run on the
//! sync runtime.
//! A scenario that rots (bad directive, stale family name, schedule
//! that no longer validates against its base graph) fails here, not in
//! a user's terminal.

use std::path::PathBuf;

use nectar::ScenarioSpec;

/// The repo's curated scenario directory.
fn scenario_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

/// All `.scn` files, sorted for deterministic iteration order.
fn scenario_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenario_dir())
        .expect("scenarios/ directory exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "scn"))
        .collect();
    files.sort();
    files
}

#[test]
fn the_curated_library_is_present() {
    let names: Vec<String> = scenario_files()
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    for expected in
        ["harary-cut.scn", "split-heal.scn", "falsify-colluding.scn", "waypoint-swarm.scn"]
    {
        assert!(names.iter().any(|n| n == expected), "missing {expected}; have {names:?}");
    }
}

#[test]
fn every_scenario_parses_round_trips_and_compiles() {
    for file in scenario_files() {
        let spec = ScenarioSpec::load(&file)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", file.display()));
        // The canonical text form re-parses to the same spec — the same
        // round-trip law the conformance proptest pins for generated
        // specs, applied to the human-authored library.
        let reparsed = ScenarioSpec::parse(&spec.to_text(), "round-trip")
            .unwrap_or_else(|e| panic!("{} canonical form does not re-parse: {e}", file.display()));
        assert_eq!(reparsed, spec, "{} round-trip drifted", file.display());
        // Full-scale compile: cross-field constraints hold, casts place,
        // schedules validate against their base graph.
        spec.compile().unwrap_or_else(|e| panic!("{} does not compile: {e}", file.display()));
    }
}

/// The mobility generator scales far beyond the curated swarm's
/// paper-faithful size: scale `waypoint-swarm.scn` to 10 000 drones and
/// the whole pipeline — waypoint motion, schedule emission, base-graph
/// construction, schedule compilation against it — still goes through.
/// (Only compile: *running* a full-view swarm that size costs O(n·m)
/// signature checks per node, i.e. hours — the file's header says so.)
#[test]
fn the_waypoint_generator_compiles_at_ten_thousand_nodes() {
    let mut spec = ScenarioSpec::load(&scenario_dir().join("waypoint-swarm.scn"))
        .expect("waypoint-swarm.scn parses");
    match spec.mobility.as_mut() {
        Some(nectar::MobilitySpec::Waypoint { nodes, .. }) => *nodes = 10_000,
        other => panic!("waypoint-swarm.scn lost its waypoint mobility: {other:?}"),
    }
    let compiled = spec.compile().expect("10k-node waypoint swarm compiles");
    assert_eq!(compiled.graph.node_count(), 10_000);
    assert!(compiled.schedule.is_some(), "mobility must emit a schedule");
}

#[test]
fn every_scenario_runs_in_reduced_form_on_the_sync_runtime() {
    for file in scenario_files() {
        let reduced = ScenarioSpec::load(&file)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", file.display()))
            .reduced(24);
        let compiled = reduced
            .compile()
            .unwrap_or_else(|e| panic!("{} (reduced) does not compile: {e}", file.display()));
        assert!(compiled.graph.node_count() <= 24, "{} not reduced", file.display());
        let report = compiled.run_report();
        assert!(!report.epochs.is_empty(), "{} ran no epochs", file.display());
        for outcome in &report.epochs {
            assert!(
                outcome.unanimous_verdict().is_some(),
                "{} broke verdict agreement (Lemma 2)",
                file.display()
            );
        }
    }
}
