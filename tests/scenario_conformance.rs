//! Conformance suite for the scenario layer, pinning its three contracts
//! — plus the flag front door's: `nectar-cli detect` lowers onto the same
//! `ScenarioSpec` a `.scn` file parses to, and `detect --report A` writes
//! byte for byte the report `run` writes for the file its flags spell
//! (USAGE's flag-to-directive mapping), on all three runtimes (contract
//! 2e) — and a reader that stops reading ends the binary's output, not
//! the command. `tests/parser_fuzz.rs` keeps the scenario parser
//! panic-free on damaged files.
//!
//! 1. **Compile coverage**: every member of a generated scenario zoo —
//!    each key, each topology source, each transport — compiles, so a
//!    compile error on a valid spec is a scenario-layer bug.
//! 2. **Lowering bit-identity**: a scenario-file run produces a
//!    `RunReport` byte-for-byte equal to the equivalently hand-built
//!    `Simulation` run, on all three runtimes. The scenario layer adds
//!    vocabulary, never semantics.
//! 3. **Mobility determinism**: the generators are pure functions of
//!    their seed — same seed ⇒ same topology and schedule, and the
//!    schedule always validates against its base graph.

use proptest::prelude::*;

use nectar::graph::rng::Rng;
use nectar::prelude::*;
use nectar_experiments::matrix::{CastSpec, FamilySpec};

/// One member of the scenario zoo: a random but valid, compilable spec
/// derived purely from `seed`.
fn zoo_spec(seed: u64) -> ScenarioSpec {
    let mut rng = Rng::seed_from_u64(seed);
    let mut spec = ScenarioSpec::default();
    if rng.next_bool() {
        let words = ["split", "cut", "swarm", "fleet", "heal", "probe", "zoo"];
        let count = rng.range_inclusive(1..=3);
        let name: Vec<&str> = (0..count).map(|_| *rng.choose(&words).expect("non-empty")).collect();
        spec.name = name.join(" ");
    }
    spec.seed = rng.range(0..10_000) as u64;

    // Transport first: it decides which execution keys stay legal.
    let transport = match rng.range(0..10) {
        0..=6 => TransportKind::Sync,
        7 => TransportKind::Loopback,
        8 => TransportKind::Uds,
        _ => TransportKind::Tcp,
    };
    spec.transport = transport;
    let sync = transport == TransportKind::Sync;

    // Topology: a family, an explicit edge list, or (sync only, since a
    // schedule comes with it) waypoint mobility generating its own.
    let n = match rng.range(0..if sync { 3 } else { 2 }) {
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
            let family = rng.choose(&families).expect("non-empty").clone();
            // Whole 4-cliques only: 12..=24 in steps of 4.
            let n = match family {
                FamilySpec::Cliques => 4 * rng.range_inclusive(3..=6),
                _ => rng.range_inclusive(9..=24),
            };
            spec.family = Some((family, n));
            // Sync scenarios may ride a rolling-churn schedule, which is
            // valid on any base graph.
            if sync && rng.next_bool() {
                spec.mobility = Some(MobilitySpec::Churn {
                    period: rng.range_inclusive(1..=2),
                    down: rng.range_inclusive(1..=3),
                    rounds: 6,
                });
            }
            n
        }
        1 => {
            let n = rng.range_inclusive(4..=8);
            spec.nodes = Some(n);
            spec.edges = gen::cycle(n).edges().collect();
            // Inline schedule lines against known cycle edges.
            if sync && rng.next_bool() {
                spec.schedule = Some(TopologySchedule::new().drop_edge(1, 0, 1).heal_edge(3, 0, 1));
            }
            n
        }
        _ => {
            let n = rng.range_inclusive(9..=24);
            spec.mobility = Some(MobilitySpec::Waypoint {
                nodes: n,
                radius_milli: 2000,
                speed_milli: rng.range_inclusive(200..=600) as u64,
                density_milli: 6000,
                rounds: rng.range_inclusive(4..=8),
            });
            n
        }
    };
    spec.t = rng.range_inclusive(1..=2.min(n - 1));

    // Byzantine side: a cast by name, explicit byz lines, or honest.
    match rng.range(0..3) {
        0 => {
            let casts = [
                CastSpec::Honest,
                CastSpec::SilentRandom,
                CastSpec::SilentCut,
                CastSpec::EquivocateRandom,
                CastSpec::FalsifyArticulation { flips_per_mille: 800 },
                CastSpec::FalsifyColluding { flips_per_mille: 500 },
            ];
            spec.cast = Some(rng.choose(&casts).expect("non-empty").clone());
        }
        1 => {
            // Two distinct nodes with behaviors a `byz` line can name.
            for node in [0, n / 2] {
                let behavior = match rng.range(0..4) {
                    0 => ByzantineBehavior::Silent,
                    1 => ByzantineBehavior::CrashAfter { round: rng.range_inclusive(1..=4) },
                    2 => ByzantineBehavior::TwoFaced {
                        silent_toward: (1..=rng.range(1..n)).collect(),
                    },
                    _ => ByzantineBehavior::HideEdges { toward: (1..=rng.range(1..n)).collect() },
                };
                spec.byzantine.push((node, behavior));
            }
        }
        _ => {}
    }

    if sync {
        spec.epochs = rng.range_inclusive(1..=3);
        spec.runtime = match rng.range(0..4) {
            0 => None,
            1 => Some(Runtime::Sync),
            2 => Some(Runtime::Event),
            _ => Some(Runtime::Parallel { workers: 2 }),
        };
        if rng.next_bool() {
            spec.report = Some("out/report.json".into());
        }
        if rng.next_bool() {
            spec.csv = Some("out/decisions.csv".into());
        }
        spec.profile = rng.next_bool();
    } else {
        match transport {
            TransportKind::Uds => {
                if rng.next_bool() {
                    spec.sock_dir = Some("/tmp/zoo-fleet".into());
                }
                spec.recv_timeout_ms = rng.range_inclusive(1_000..=60_000) as u64;
            }
            TransportKind::Tcp => {
                spec.base_port = rng.range_inclusive(4_000..=9_000) as u16;
                spec.connect_timeout_ms = rng.range_inclusive(1_000..=60_000) as u64;
            }
            _ => {}
        }
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Contract 1: every zoo member compiles (the zoo is valid by
    /// construction, so a compile error is a scenario-layer bug).
    #[test]
    fn zoo_specs_compile(seed in proptest::num::u64::ANY) {
        let spec = zoo_spec(seed);
        if let Err(e) = spec.compile() {
            return Err(TestCaseError::fail(format!("zoo seed {seed} does not compile: {e}\n{spec:?}")));
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

/// The `.scn` file a `detect` flag set spells, by USAGE's mapping:
/// `--topology F --n N` is `topology F N`, `--schedule 'a; b'` is one
/// `schedule` line per directive, and every other `--key value` is the
/// directive `key value` (`--byz` a `byz` line, `--report` the sink).
fn spelled_out(flags: &[&str]) -> String {
    let (mut family, mut n, mut lines) = ("", "", String::new());
    for pair in flags.chunks(2) {
        match *pair {
            ["--topology", name] => family = name,
            ["--n", size] => n = size,
            ["--schedule", script] => {
                for directive in script.split(';') {
                    lines += &format!("schedule {}\n", directive.trim());
                }
            }
            [flag, value] => lines += &format!("{} {value}\n", flag.trim_start_matches("--")),
            _ => panic!("detect flags here come in pairs: {flags:?}"),
        }
    }
    format!("topology {family} {n}\n{lines}")
}

/// Contract 2e: the flag front door is the file front door. `detect`
/// fills a `ScenarioSpec` from its flags, so the report it writes is
/// byte-for-byte the one `run` writes for the file those flags spell —
/// static topology + `--byz`, a seeded family over `--epochs`, an inline
/// `--schedule` — on every runtime.
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
            let flags = [&["--runtime", runtime.as_str()], *flags].concat();
            let mut args = vec!["detect", "--report", &by_detect];
            args.extend_from_slice(&flags);
            let args: Vec<String> = args.into_iter().map(String::from).collect();
            let file = at(format!("spelled-{i}.scn"));
            let spelled = [flags.as_slice(), &["--report", &by_run]].concat();
            std::fs::write(&file, spelled_out(&spelled)).expect("scenario file writes");
            run(parse(&args).expect("flags parse")).expect("detect runs");
            run(Command::Run { file }).expect("the spelled-out file runs");
            let (a, b) = (std::fs::read(&by_detect).unwrap(), std::fs::read(&by_run).unwrap());
            assert!(!a.is_empty() && a == b, "flag set {i} on {runtime}: reports differ");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The front door's output goes to a reader that may stop reading
/// (`nectar-cli … | head`): spawned with the read end of its stdout pipe
/// already closed, `nectar-cli` — `help` as much as a whole `detect` run
/// — exits 0 instead of panicking on the `BrokenPipe`.
#[test]
fn a_closed_stdout_ends_the_output_not_the_command() {
    for args in [&["help"][..], &["detect", "--topology", "cycle", "--n", "6", "--json"]] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nectar-cli"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("nectar-cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "nectar-cli {args:?}:\n{stderr}");
        assert!(stderr.is_empty(), "nectar-cli {args:?}:\n{stderr}");
    }
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
