//! Conformance suite for the scenario layer (the CI step
//! `scenario-conformance`), pinning its three contracts — plus the
//! flag front door's: `nectar-cli detect` lowers onto the same
//! `ScenarioSpec` a `.scn` file parses to (contract 2e).
//!
//! 1. **Round-trip**: `ScenarioSpec::parse(spec.to_text()) == spec` over
//!    a generated scenario zoo — the canonical text form loses nothing,
//!    so a scenario can be saved, shared and re-run.
//! 2. **Lowering bit-identity**: a scenario-file run produces a
//!    `RunReport` byte-for-byte equal to the equivalently hand-built
//!    `Simulation` run, on all three runtimes. The scenario layer adds
//!    vocabulary, never semantics.
//! 3. **Mobility determinism**: the generators are pure functions of
//!    their seed — same seed ⇒ same topology and schedule, and the
//!    schedule always validates against its base graph.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use nectar::prelude::*;
use nectar_experiments::matrix::{CastSpec, FamilySpec};

/// One member of the scenario zoo: a random but valid, compilable,
/// canonically-expressible spec derived purely from `seed`.
fn zoo_spec(seed: u64) -> ScenarioSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut spec = ScenarioSpec::default();
    if rng.random::<bool>() {
        let words = ["split", "cut", "swarm", "fleet", "heal", "probe", "zoo"];
        let count = rng.random_range(1usize..=3);
        let name: Vec<&str> =
            (0..count).map(|_| *words.choose(&mut rng).expect("non-empty")).collect();
        spec.name = name.join(" ");
    }
    spec.seed = rng.random_range(0u64..10_000);

    // Transport first: it decides which execution keys stay legal.
    let transport = match rng.random_range(0usize..10) {
        0..=6 => TransportKind::Sync,
        7 => TransportKind::Loopback,
        8 => TransportKind::Uds,
        _ => TransportKind::Tcp,
    };
    spec.transport = transport;
    let sync = transport == TransportKind::Sync;

    // Topology: a family, an explicit edge list, or (sync only, since a
    // schedule comes with it) waypoint mobility generating its own.
    let n = match rng.random_range(0usize..if sync { 3 } else { 2 }) {
        0 => {
            let families = [
                FamilySpec::Harary { k: 2 },
                FamilySpec::Harary { k: 4 },
                FamilySpec::Wheel { k: 4 },
                FamilySpec::Grid,
                FamilySpec::Torus,
                FamilySpec::TwoCluster,
                FamilySpec::PastedTree { k: 2 },
                FamilySpec::Diamond { k: 3 },
                FamilySpec::MultipartiteWheel { k: 4 },
                FamilySpec::Cycle,
                FamilySpec::Path,
                FamilySpec::Star,
                FamilySpec::Complete,
                FamilySpec::Cliques,
            ];
            let family = families.choose(&mut rng).expect("non-empty").clone();
            // Whole 4-cliques only: 12..=24 in steps of 4.
            let n = match family {
                FamilySpec::Cliques => 4 * rng.random_range(3usize..=6),
                _ => rng.random_range(9usize..=24),
            };
            spec.family = Some((family, n));
            // Sync scenarios may ride a rolling-churn schedule, which is
            // valid on any base graph.
            if sync && rng.random::<bool>() {
                spec.mobility = Some(MobilitySpec::Churn {
                    period: rng.random_range(1usize..=2),
                    down: rng.random_range(1usize..=3),
                    rounds: 6,
                });
            }
            n
        }
        1 => {
            let n = rng.random_range(4usize..=8);
            spec.nodes = Some(n);
            spec.edges = gen::cycle(n).edges().collect();
            // Inline schedule lines against known cycle edges.
            if sync && rng.random::<bool>() {
                spec.schedule_lines = vec!["drop 1 0 1".into(), "heal 3 0 1".into()];
            }
            n
        }
        _ => {
            let n = rng.random_range(9usize..=24);
            spec.mobility = Some(MobilitySpec::Waypoint {
                nodes: n,
                radius_milli: 2000,
                speed_milli: rng.random_range(200u64..=600),
                density_milli: 6000,
                rounds: rng.random_range(4usize..=8),
            });
            n
        }
    };
    spec.t = rng.random_range(1usize..=2.min(n - 1));

    // Byzantine side: a cast by name, explicit byz lines, or honest.
    match rng.random_range(0usize..3) {
        0 => {
            let casts = [
                CastSpec::Honest,
                CastSpec::SilentRandom,
                CastSpec::SilentCut,
                CastSpec::EquivocateRandom,
                CastSpec::FalsifyArticulation { flips_per_mille: 800 },
                CastSpec::FalsifyColluding { flips_per_mille: 500 },
            ];
            spec.cast = Some(casts.choose(&mut rng).expect("non-empty").clone());
        }
        1 => {
            // Two distinct nodes with canonically-expressible behaviors.
            for node in [0, n / 2] {
                let behavior = match rng.random_range(0usize..4) {
                    0 => ByzantineBehavior::Silent,
                    1 => ByzantineBehavior::CrashAfter { round: rng.random_range(1usize..=4) },
                    2 => ByzantineBehavior::TwoFaced {
                        silent_toward: (1..=rng.random_range(1usize..n)).collect(),
                    },
                    _ => ByzantineBehavior::HideEdges {
                        toward: (1..=rng.random_range(1usize..n)).collect(),
                    },
                };
                spec.byzantine.push((node, behavior));
            }
        }
        _ => {}
    }

    if sync {
        spec.epochs = rng.random_range(1usize..=3);
        spec.runtime = match rng.random_range(0usize..4) {
            0 => None,
            1 => Some(Runtime::Sync),
            2 => Some(Runtime::Event),
            _ => Some(Runtime::Parallel { workers: 2 }),
        };
        if rng.random::<bool>() {
            spec.report = Some("out/report.json".into());
        }
        if rng.random::<bool>() {
            spec.csv = Some("out/decisions.csv".into());
        }
        spec.profile = rng.random::<bool>();
    } else {
        match transport {
            TransportKind::Uds => {
                if rng.random::<bool>() {
                    spec.sock_dir = Some("/tmp/zoo-fleet".into());
                }
                spec.recv_timeout_ms = rng.random_range(1_000u64..=60_000);
            }
            TransportKind::Tcp => {
                spec.base_port = rng.random_range(4_000u16..=9_000);
                spec.connect_timeout_ms = rng.random_range(1_000u64..=60_000);
            }
            _ => {}
        }
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Contract 1: every zoo member round-trips through its canonical
    /// text form losslessly, and compiles (the zoo is valid by
    /// construction, so a compile error is a scenario-layer bug).
    #[test]
    fn zoo_specs_round_trip_and_compile(seed in proptest::num::u64::ANY) {
        let spec = zoo_spec(seed);
        let text = spec.to_text();
        let reparsed = ScenarioSpec::parse(&text, "zoo.scn")
            .map_err(|e| TestCaseError::fail(format!("zoo seed {seed} does not re-parse: {e}\n{text}")))?;
        prop_assert_eq!(&reparsed, &spec, "round-trip drifted for zoo seed {}:\n{}", seed, text);
        // Canonicalization is idempotent.
        prop_assert_eq!(reparsed.to_text(), text);
        if let Err(e) = spec.compile() {
            return Err(TestCaseError::fail(format!("zoo seed {seed} does not compile: {e}\n{text}")));
        }
    }
}

/// The bit-identity fixtures: scenario text plus a hand-built
/// `Simulation` closure producing the report the file run must equal.
const RUNTIMES: [Runtime; 3] = [Runtime::Sync, Runtime::Event, Runtime::Parallel { workers: 2 }];

fn file_report(text: &str, runtime: Runtime) -> RunReport {
    let full = format!("{text}runtime {runtime}\n");
    ScenarioSpec::parse(&full, "fixture.scn")
        .expect("fixture parses")
        .compile()
        .expect("fixture compiles")
        .run_report()
}

/// Contract 2a: a family + cast scenario equals the hand-built
/// simulation, on every runtime.
#[test]
fn cast_scenarios_lower_bit_identically_on_all_runtimes() {
    let text = "topology harary-k2 10\nt 2\nseed 5\ncast silent-cut\nepochs 2\n";
    for runtime in RUNTIMES {
        let graph = FamilySpec::Harary { k: 2 }.build(10, 5).expect("harary builds");
        let mut scenario = Scenario::new(graph, 2).with_key_seed(5);
        let cast = CastSpec::SilentCut.cast(scenario.topology(), 2, 5);
        for (node, behavior) in cast {
            scenario = scenario.with_byzantine(node, behavior);
        }
        let hand_built = scenario.sim().runtime(runtime).epochs(2).run();
        assert_eq!(file_report(text, runtime), hand_built, "runtime {runtime}");
    }
}

/// Contract 2b: inline schedule lines lower onto `Simulation::schedule`
/// exactly, on every runtime.
#[test]
fn scheduled_scenarios_lower_bit_identically_on_all_runtimes() {
    let text = "topology harary-k4 12\nt 1\nseed 9\nbyz 3:two-faced@6-8\n\
                schedule drop 1 0 1\nschedule heal 3 0 1\n";
    for runtime in RUNTIMES {
        let graph = FamilySpec::Harary { k: 4 }.build(12, 9).expect("harary builds");
        let scenario = Scenario::new(graph, 1)
            .with_key_seed(9)
            .with_byzantine(3, ByzantineBehavior::TwoFaced { silent_toward: (6..=8).collect() });
        let schedule = TopologySchedule::parse("drop 1 0 1\nheal 3 0 1").expect("schedule parses");
        let hand_built = scenario.sim().runtime(runtime).schedule(schedule).run();
        assert_eq!(file_report(text, runtime), hand_built, "runtime {runtime}");
    }
}

/// Contract 2b, negative side: a schedule line that parses but has no
/// meaning — a delay whose delivery round overflows the round counter —
/// is refused at compile time with its `file:line`, never lowered onto a
/// run that would panic (debug) or deliver a round early (release).
#[test]
fn a_delay_overflowing_the_round_counter_is_refused_with_its_file_and_line() {
    let text = format!("topology harary-k2 8\nt 1\nschedule delay 0 1 1..3 {}\n", usize::MAX);
    let err = ScenarioSpec::parse(&text, "overflow.scn")
        .expect("the count is a valid number")
        .compile()
        .expect_err("no delivery round exists");
    let shown = err.to_string();
    assert!(shown.starts_with("overflow.scn:3: "), "{shown}");
    assert!(shown.contains("overflows the round counter"), "{shown}");
}

/// A fleet too large for `u16` node ids is refused on the directive that
/// sized it — whichever of the three it was — never built and truncated.
#[test]
fn a_fleet_beyond_the_node_id_space_is_refused_with_its_file_and_line() {
    for (text, line) in [
        ("t 1\ntopology cliques 65540\n", 2),
        ("nodes 70000\nedge 0 1\nt 1\n", 1),
        ("t 1\nseed 3\nmobility waypoint nodes=65537\n", 3),
    ] {
        let err = ScenarioSpec::parse(text, "fleet.scn")
            .expect("the size is a valid number")
            .compile()
            .expect_err("node 65536 has no wire id");
        let shown = err.to_string();
        assert!(shown.starts_with(&format!("fleet.scn:{line}: ")), "{shown}");
        assert!(shown.contains("exceed the 65536-node limit"), "{shown}");
    }
    // The limit itself is a legal size.
    let fits = ScenarioSpec::parse("topology cliques 65536\nt 1\n", "fleet.scn").unwrap();
    assert!(fits.compile().is_ok());
}

/// Contract 2c: a mobility directive lowers onto the exact schedule its
/// generator emits, on every runtime.
#[test]
fn mobility_scenarios_lower_bit_identically_on_all_runtimes() {
    let text = "topology harary-k2 10\nt 1\nseed 13\nmobility churn period=2 down=2 rounds=6\n";
    for runtime in RUNTIMES {
        let graph = FamilySpec::Harary { k: 2 }.build(10, 13).expect("harary builds");
        let mobility = MobilitySpec::Churn { period: 2, down: 2, rounds: 6 };
        let (generated, schedule) = mobility.generate(Some(&graph), 13).expect("churn generates");
        assert!(generated.is_none(), "churn rides the declared topology");
        let scenario = Scenario::new(graph, 1).with_key_seed(13);
        let hand_built = scenario.sim().runtime(runtime).schedule(schedule).run();
        assert_eq!(file_report(text, runtime), hand_built, "runtime {runtime}");
    }
}

/// Contract 2d: explicit edge-list topologies lower onto the same graph
/// a hand-built `Graph` produces, on every runtime.
#[test]
fn edge_list_scenarios_lower_bit_identically_on_all_runtimes() {
    let mut text = String::from("nodes 6\n");
    for (u, v) in gen::cycle(6).edges() {
        text.push_str(&format!("edge {u} {v}\n"));
    }
    text.push_str("t 1\nseed 21\nbyz 2:crash@2\n");
    for runtime in RUNTIMES {
        let scenario = Scenario::new(gen::cycle(6), 1)
            .with_key_seed(21)
            .with_byzantine(2, ByzantineBehavior::CrashAfter { round: 2 });
        let hand_built = scenario.sim().runtime(runtime).run();
        assert_eq!(file_report(&text, runtime), hand_built, "runtime {runtime}");
    }
}

/// Contract 2e: the flag front door is the file front door. `detect`
/// fills a `ScenarioSpec` from its flags, so the report it writes is
/// byte-for-byte the one `run` writes for the file `spec.to_text()`
/// spells — static topology + `--byz`, a seeded family over `--epochs`,
/// an inline `--schedule` — on every runtime.
#[test]
fn detect_writes_the_report_its_spelled_out_scenario_file_writes() {
    use nectar::cli::{parse, run, Command};
    let dir = std::env::temp_dir().join("nectar-detect-lowering");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let at = |name: String| dir.join(name).display().to_string();
    let flag_sets: [&[&str]; 3] = [
        &["--topology", "harary-k4", "--n", "12", "--t", "2", "--seed", "5", "--byz", "3:hide@6-8"],
        &["--topology", "small-world", "--n", "12", "--seed", "9", "--epochs", "2"],
        &["--topology", "cycle", "--n", "6", "--schedule", "drop 1 0 1; heal 3 0 1"],
    ];
    for (i, flags) in flag_sets.iter().enumerate() {
        for runtime in RUNTIMES {
            let (by_detect, by_run) = (at(format!("detect-{i}.json")), at(format!("run-{i}.json")));
            let runtime = runtime.to_string();
            let mut args = vec!["detect", "--runtime", &runtime, "--report", &by_detect];
            args.extend_from_slice(flags);
            let args: Vec<String> = args.into_iter().map(String::from).collect();
            let Command::Detect(detect) = parse(&args).expect("flags parse") else {
                panic!("detect parses to Command::Detect");
            };
            // The file the flags spell, its sink pointed next door.
            let mut spelled = detect.spec.clone();
            spelled.report = Some(by_run.clone());
            let file = at(format!("spelled-{i}.scn"));
            std::fs::write(&file, spelled.to_text()).expect("scenario file writes");
            run(Command::Detect(detect)).expect("detect runs");
            run(Command::Run { file }).expect("the spelled-out file runs");
            let (a, b) = (std::fs::read(&by_detect).unwrap(), std::fs::read(&by_run).unwrap());
            assert!(!a.is_empty() && a == b, "flag set {i} on {runtime}: reports differ");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Contract 3: mobility generators are pure functions of their seed.
#[test]
fn mobility_generators_are_deterministic_in_their_seed() {
    // Waypoint: same seed ⇒ same geometric graph and same schedule;
    // the schedule validates against the graph it came with.
    let spec = MobilitySpec::Waypoint {
        nodes: 40,
        radius_milli: 2000,
        speed_milli: 400,
        density_milli: 6000,
        rounds: 8,
    };
    let (g1, s1) = spec.generate(None, 99).expect("waypoint generates");
    let (g2, s2) = spec.generate(None, 99).expect("waypoint generates");
    let g1 = g1.expect("waypoint supplies a topology");
    let g2 = g2.expect("waypoint supplies a topology");
    assert_eq!(g1, g2, "same seed, different graphs");
    assert_eq!(s1.to_script(), s2.to_script(), "same seed, different schedules");
    s1.compile(&g1).expect("waypoint schedule validates against its own base graph");
    // A different seed moves the swarm differently.
    let (g3, s3) = spec.generate(None, 100).expect("waypoint generates");
    assert!(
        g3.expect("waypoint supplies a topology") != g1 || s3.to_script() != s1.to_script(),
        "seeds 99 and 100 produced identical waypoint scenarios"
    );

    // Churn: same determinism law on a declared base graph.
    let base = gen::harary(4, 16).expect("harary builds");
    let churn = MobilitySpec::Churn { period: 1, down: 2, rounds: 8 };
    let (none1, c1) = churn.generate(Some(&base), 7).expect("churn generates");
    let (_, c2) = churn.generate(Some(&base), 7).expect("churn generates");
    assert!(none1.is_none());
    assert_eq!(c1.to_script(), c2.to_script(), "same seed, different churn");
    c1.compile(&base).expect("churn schedule validates against its base graph");
    let (_, c3) = churn.generate(Some(&base), 8).expect("churn generates");
    assert_ne!(c1.to_script(), c3.to_script(), "seeds 7 and 8 shuffled edges identically");
}
