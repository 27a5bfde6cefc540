//! Argument parsing and command execution for the `nectar-cli` binary.
//!
//! The binary is a thin wrapper; everything here is library code so the
//! parsing rules and command behaviour are unit-tested.

use std::fmt::Write as _;

use nectar_experiments::matrix::{CastSpec, FamilySpec, MatrixSpec};
use nectar_experiments::{CompiledScenario, ScenarioSpec, TransportKind};
use nectar_graph::{connectivity, gen, traversal, Graph};
use nectar_net::transport::{ConnectConfig, SocketTransport};
use nectar_protocol::{
    run_scenario_node, ByzantineBehavior, Decision, EpochOutcome, NodeReport, RunObserver,
    RunReport, Runtime, Scenario, TopologySchedule, Verdict,
};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Execute a whole scenario file (`nectar-cli run <file>`): topology,
    /// cast, schedule, runtime, transport and sinks all come from the
    /// scenario layer (`nectar_experiments::scenario`).
    Run {
        /// Path of the scenario file.
        file: String,
    },
    /// Run NECTAR on a generated topology and report the decision.
    Detect(DetectArgs),
    /// Sweep the topology-zoo × attack-zoo experiment matrix and report
    /// per-cell statistics.
    Matrix(MatrixArgs),
    /// Run ONE node of a scenario over a real socket transport and print
    /// its `NodeReport` — the per-process half of multi-process detection.
    Node(NodeArgs),
    /// Print structural facts (κ, diameter, edges) for every topology
    /// family at the given size.
    Families {
        /// Connectivity parameter.
        k: usize,
        /// System size.
        n: usize,
        /// Emit the table as CSV instead of aligned text.
        csv: bool,
    },
    /// Show usage.
    Help,
}

/// Arguments of the `detect` command.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectArgs {
    /// Topology family name (as accepted by [`build_topology`]).
    pub topology: String,
    /// Connectivity parameter (families that need one).
    pub k: usize,
    /// System size.
    pub n: usize,
    /// Byzantine budget.
    pub t: usize,
    /// Byzantine cast: `(node, behaviour)` pairs.
    pub byzantine: Vec<(usize, ByzantineBehavior)>,
    /// Which runtime executes the scenario (`--runtime`; `--workers N`
    /// sizes the `parallel` runtime's pool). Outcomes are bit-identical
    /// across all three.
    pub runtime: Runtime,
    /// Seed for keys and randomized topologies.
    pub seed: u64,
    /// Emit the result as a JSON document instead of human-readable text.
    pub json: bool,
    /// Emit the per-epoch results as CSV rows instead of text.
    pub csv: bool,
    /// Number of monitoring epochs to run (same topology, fresh keys per
    /// epoch, one shared connectivity oracle across all of them).
    pub epochs: usize,
    /// Report every node's verdict (streamed through the `RunObserver`
    /// hooks) instead of the epoch summaries.
    pub per_node: bool,
    /// Persist the full `RunReport` as JSON to this path.
    pub report: Option<String>,
    /// Topology schedule (`--schedule`): a path to a schedule script, or
    /// the script itself inline with `;` separating lines.
    pub schedule: Option<String>,
    /// Record a per-phase wall-clock breakdown (dissemination plus the four
    /// decision stages) into each epoch's outcome, printed with the text
    /// output and persisted in `--report` JSON.
    pub profile: bool,
}

/// Arguments of the `node` command: one OS process hosting one scenario
/// node over sockets. Every fleet member is launched with the *same*
/// scenario file — the topology generators and the key universe are pure
/// functions of its seed, so each process rebuilds the identical scenario
/// locally and drives only its own node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeArgs {
    /// Which node this process hosts.
    pub node: usize,
    /// Scenario file supplying everything but `--node` (`--scenario`): the
    /// whole fleet shares the one file.
    pub scenario: String,
}

/// Arguments of the `matrix` command (the topology-zoo × attack-zoo
/// sweep; see `nectar_experiments::matrix`).
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixArgs {
    /// Family identifiers (`FamilySpec::parse` vocabulary).
    pub families: Vec<String>,
    /// System sizes.
    pub sizes: Vec<usize>,
    /// Cast identifiers (`CastSpec::parse` vocabulary).
    pub casts: Vec<String>,
    /// Byzantine budget per trial.
    pub t: usize,
    /// Trials per cell.
    pub trials: usize,
    /// Base seed of the per-trial streams.
    pub seed: u64,
    /// The engine every trial runs on (results are engine-independent).
    pub runtime: Runtime,
    /// Emit the full MatrixReport JSON to stdout instead of the table.
    pub json: bool,
    /// Emit the per-cell CSV to stdout instead of the table.
    pub csv: bool,
    /// Persist the MatrixReport JSON to this path.
    pub out: Option<String>,
    /// Persist the per-cell CSV to this path.
    pub out_csv: Option<String>,
}

impl Default for MatrixArgs {
    /// The reduced sweep of `MatrixSpec::reduced()`: three families × two
    /// sizes × three casts, 100 trials per cell at `t = 2`.
    fn default() -> Self {
        let spec = MatrixSpec::reduced();
        MatrixArgs {
            families: spec.families.iter().map(FamilySpec::name).collect(),
            sizes: spec.sizes,
            casts: spec.casts.iter().map(CastSpec::name).collect(),
            t: spec.t,
            trials: spec.trials,
            seed: spec.base_seed,
            runtime: spec.runtime,
            json: false,
            csv: false,
            out: None,
            out_csv: None,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
nectar-cli — Byzantine-resilient partition detection

USAGE:
  nectar-cli run <scenario-file>
  nectar-cli detect --topology <family> --n <N> [--k <K>] [--t <T>]
             [--byz <node>:<behavior> ...] [--runtime <R>] [--workers <W>]
             [--seed <S>] [--epochs <E>] [--per-node] [--report <path>]
             [--schedule <path-or-script>] [--profile] [--json | --csv]
  nectar-cli matrix [--families f1,f2,..] [--sizes n1,n2,..] [--casts c1,c2,..]
             [--t <T>] [--trials <N>] [--seed <S>] [--runtime <R>]
             [--workers <W>] [--out <path.json>] [--out-csv <path.csv>]
             [--json | --csv]
  nectar-cli node --scenario <file> --node <I>
  nectar-cli families --k <K> --n <N> [--csv]
  nectar-cli help

SCENARIO (run / node --scenario):
  A scenario file describes a whole experiment declaratively — one
  directive per line, `#` comments, defaults for everything omitted:
  `name <words>`, `topology <family> <n>` (FamilySpec vocabulary:
  harary-k4, wheel-k4, scale-free-m2, small-world-k4-p100, grid, torus,
  random-regular-d4, two-cluster) or an explicit edge list
  (`nodes <N>` + `edge U V` lines), `t <T>`, `seed <S>`,
  `cast <CastSpec>` (honest | silent-random | silent-cut |
  equivocate-random | falsify-articulation[-pP] | falsify-colluding[-pP])
  or explicit `byz <node>:<behavior>` lines, `epochs <E>`,
  `runtime sync|event|parallel[:W]`, `schedule @<file>` or
  inline `schedule <directive>` lines (drop/heal/partition/... grammar),
  `mobility waypoint|churn|split-heal key=value...` (generates the
  schedule — and, for waypoint, the geometric topology — from the seed),
  `transport sync|loopback|uds|tcp`, `sock-dir <dir>`, `base-port <P>`,
  `connect-timeout-ms <MS>`, `recv-timeout-ms <MS>`, `report <path>`,
  `csv <path>`, `profile`. `run` executes sync/loopback scenarios in
  one process; for uds/tcp scenarios launch one process per node with
  `node --scenario <file> --node I` — the file is the only description
  of the fleet, so its processes can never disagree about their
  scenario. Errors carry file:line context. Curated examples live in
  scenarios/; the format is specified in nectar_experiments::scenario.

RUNTIME (--runtime, default sync):
  sync      deterministic single-threaded round engine — the baseline for
            tests and small sweeps
  event     event-driven loop, O(active events) scheduling — large n
            (10k+ nodes in one process) on a single core
  parallel  the event runtime's active-set scheduling plus a work-stealing
            worker pool committing deliveries once per round — large n on
            many cores; size the pool with --workers <W> (default:
            match the machine; only wall-clock depends on it). Reports
            name this runtime `parallel:<W>` when W is explicit.
  All three produce bit-identical outcomes (docs/DETERMINISM.md).

NODE (multi-process detection):
  `node` is the real-transport counterpart of `run`: every process of a
  fleet is launched with the same --scenario file plus its own --node I,
  rebuilds the scenario locally (topologies and keys are pure functions
  of the file's seed), and drives node I over a framed socket transport
  with round-barrier pacing. Under `transport uds` (Unix only) node I
  listens on <sock-dir>/node-I.sock and dials its topology neighbors'
  files with retry-and-backoff; under `transport tcp` it listens on
  127.0.0.1:<base-port>+I. When the rounds complete it prints a
  `nectar-node-report v1` block — verdict, accepted edges, traffic
  counters and the delivered-message log — which the conformance harness
  (tests/transport_conformance.rs) compares against the in-memory sync
  run: same verdicts, confirmations, accepted edges and fleet-wide
  delivery set (docs/DETERMINISM.md covers why the socket contract is
  delivered-message equivalence, not bit-identity).

SCHEDULE (--schedule):
  Runs detection on a dynamic network: a schedule scripts deterministic
  topology faults — `drop R U V` / `heal R U V` (edge down/up before
  round R's sends), `crash R NODE` / `rejoin R NODE` (node churn),
  `partition R a b c` / `heal-partition R a b c` (cut/restore every edge
  crossing {a,b,c}), `loss U V A..B P` and `delay U V A..B D` (per-link
  loss probability / fixed delay over rounds A..B; append `-one-way` for
  asymmetric links), `seed S` (loss-roll seed), `#` comments. The value
  is a file path, or the script itself inline with `;` separating lines
  (e.g. --schedule 'drop 1 0 1; heal 3 0 1'). Applied identically on
  every runtime at any worker count, and recorded in --report output.

OUTPUT:
  --json emits one machine-readable document with the per-epoch verdicts
  and connectivity-oracle statistics (cache hits, bounded flows, early
  exits); --csv emits the same per-epoch results as CSV rows with the
  header `epoch,verdict,confirmed,agreement,mean_kb_per_node,\
oracle_queries,oracle_cache_hits`. --per-node switches both (and the
  text form) to one row per correct node per epoch — streamed live from
  the run's observer hooks — with the columns `epoch,node,verdict,\
confirmed,reachable,connectivity`. --report <path> additionally persists
  the complete RunReport (parameters, topology, per-epoch decisions,
  traffic and oracle counters) as JSON to <path>. For `families`, --csv
  emits `family,nodes,edges,kappa,diameter`. --epochs E re-runs detection
  E times on the same topology with fresh keys, sharing one oracle so
  unchanged graphs decide from cache. --profile records a per-phase
  wall-clock breakdown (dissemination, then the decision phase's classify /
  derive / materialize / decide stages) per epoch: printed with the text
  output and persisted in --report JSON. The timings are wall clock —
  nondeterministic across runs and runtimes; all other outputs stay
  bit-identical. (The experiment runners emit CSV too: `cargo run -p
  nectar-bench --bin figures` writes results/<id>.csv for every figure.)

MATRIX:
  Sweeps topology families × sizes × adversary casts × seeded trials
  through the simulation and aggregates each cell: detection and
  false-positive/false-negative counts against ground truth (κ(G) ≤ t),
  median rounds-to-verdict, message/byte cost, oracle counters. Defaults
  to the reduced sweep (harary-k4, wheel-k4, small-world-k4-p100 ×
  12,16 × honest, silent-cut, falsify-articulation-p800; 100 trials per
  cell at t = 2). Output: a per-cell table (default), the full
  MatrixReport JSON (--json) or per-cell CSV (--csv) on stdout;
  --out / --out-csv additionally persist both forms. Families:
  harary[-kK] | wheel[-kK] | scale-free[-mM] | small-world[-kK-pP] |
  grid | torus | random-regular[-dD] | two-cluster (P is the rewiring
  probability in per-mille). Casts: honest | silent-random | silent-cut |
  equivocate-random | falsify-articulation[-pP] | falsify-colluding[-pP]
  (P is the per-measurement flip probability in per-mille; placements
  use the full budget t, falsifiers sit on articulation points). Every
  cell is bit-identical across runtimes and worker counts.

FAMILIES:
  harary | random-regular | pasted-tree | diamond | wheel |
  multipartite-wheel | cycle | path | star | complete | drone |
  torus | small-world | scale-free |
  cliques (disjoint 4-cliques; --n must be a positive multiple of 4)

BEHAVIORS (for --byz):
  silent | crash@<round> | two-faced@<a>-<b> (silent toward nodes a..=b) |
  hide@<a>-<b> (hide own edges toward a..=b)

EXAMPLES:
  nectar-cli run scenarios/harary-cut.scn
  nectar-cli node --scenario scenarios/harary-cut.scn --node 2
  nectar-cli matrix --families harary-k4,grid --sizes 12,16 --trials 100
  nectar-cli matrix --casts honest,falsify-colluding-p800 --out matrix.json
  nectar-cli detect --topology harary --k 4 --n 20 --t 2 --byz 3:silent
  nectar-cli detect --topology star --n 8 --t 1 --byz 0:two-faced@4-7
  nectar-cli detect --topology cliques --n 10000 --t 2 --runtime event
  nectar-cli detect --topology cliques --n 10000 --t 2 --runtime parallel --workers 4
  nectar-cli detect --topology star --n 8 --t 1 --byz 0:silent --per-node --csv
  nectar-cli detect --topology cycle --n 6 --t 1 --schedule 'drop 1 0 1; drop 1 3 4'
  nectar-cli families --k 4 --n 24 --csv
";

/// Parses a CLI argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message on malformed input.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("families") => {
            let (mut k, mut n, mut csv) = (4usize, 20usize, false);
            let rest: Vec<String> = it.cloned().collect();
            parse_flags(&rest, &["--csv"], |flag, value| match (flag, value) {
                ("--csv", _) => {
                    csv = true;
                    Ok(())
                }
                ("--k", Some(v)) => set_usize(&mut k, v, "--k"),
                ("--n", Some(v)) => set_usize(&mut n, v, "--n"),
                (other, _) => Err(format!("unknown flag {other}")),
            })?;
            Ok(Command::Families { k, n, csv })
        }
        Some("matrix") => {
            let mut out = MatrixArgs::default();
            let mut workers: Option<usize> = None;
            let rest: Vec<String> = it.cloned().collect();
            parse_flags(&rest, &["--json", "--csv"], |flag, value| {
                match (flag, value) {
                    ("--json", _) => out.json = true,
                    ("--csv", _) => out.csv = true,
                    ("--families", Some(v)) => {
                        out.families = v.split(',').map(str::to_string).collect();
                    }
                    ("--casts", Some(v)) => {
                        out.casts = v.split(',').map(str::to_string).collect();
                    }
                    ("--sizes", Some(v)) => {
                        out.sizes = v
                            .split(',')
                            .map(|s| s.parse().map_err(|_| format!("bad --sizes value {s}")))
                            .collect::<Result<_, _>>()?;
                    }
                    ("--t", Some(v)) => set_usize(&mut out.t, v, "--t")?,
                    ("--trials", Some(v)) => set_usize(&mut out.trials, v, "--trials")?,
                    ("--runtime", Some(v)) => out.runtime = v.parse()?,
                    ("--workers", Some(v)) => {
                        let mut w = 0;
                        set_usize(&mut w, v, "--workers")?;
                        workers = Some(w);
                    }
                    ("--seed", Some(v)) => {
                        out.seed = v.parse().map_err(|_| format!("bad --seed value {v}"))?;
                    }
                    ("--out", Some(v)) => out.out = Some(v.into()),
                    ("--out-csv", Some(v)) => out.out_csv = Some(v.into()),
                    (other, _) => return Err(format!("unknown flag {other}")),
                }
                Ok(())
            })?;
            if let Some(w) = workers {
                match out.runtime {
                    Runtime::Parallel { .. } => out.runtime = Runtime::Parallel { workers: w },
                    other => {
                        return Err(format!(
                            "--workers only applies to --runtime parallel (got {other})"
                        ));
                    }
                }
            }
            if out.trials == 0 {
                return Err("--trials must be at least 1".into());
            }
            if out.families.is_empty() || out.sizes.is_empty() || out.casts.is_empty() {
                return Err("--families, --sizes and --casts must all be non-empty".into());
            }
            if out.json && out.csv {
                return Err("--json and --csv are mutually exclusive".into());
            }
            Ok(Command::Matrix(out))
        }
        Some("run") => {
            let rest: Vec<String> = it.cloned().collect();
            match rest.as_slice() {
                [file] if !file.starts_with("--") => Ok(Command::Run { file: file.clone() }),
                [] => Err("run needs a scenario file: nectar-cli run <scenario-file>".into()),
                _ => Err("run takes exactly one scenario file".into()),
            }
        }
        Some("node") => {
            let mut node: Option<usize> = None;
            let mut scenario: Option<String> = None;
            let rest: Vec<String> = it.cloned().collect();
            parse_flags(&rest, &[], |flag, value| match (flag, value) {
                ("--node", Some(v)) => {
                    let mut i = 0;
                    set_usize(&mut i, v, "--node")?;
                    node = Some(i);
                    Ok(())
                }
                ("--scenario", Some(v)) => {
                    scenario = Some(v.into());
                    Ok(())
                }
                (other, _) => Err(format!("unknown flag {other}")),
            })?;
            Ok(Command::Node(NodeArgs {
                node: node.ok_or("node needs --node <I>")?,
                scenario: scenario.ok_or("node needs --scenario <file>")?,
            }))
        }
        Some("detect") => {
            let mut out = DetectArgs {
                topology: "harary".into(),
                k: 4,
                n: 20,
                t: 1,
                byzantine: Vec::new(),
                runtime: Runtime::Sync,
                seed: 42,
                json: false,
                csv: false,
                epochs: 1,
                per_node: false,
                report: None,
                schedule: None,
                profile: false,
            };
            let mut workers: Option<usize> = None;
            let rest: Vec<String> = it.cloned().collect();
            parse_flags(&rest, &["--json", "--csv", "--per-node", "--profile"], |flag, value| {
                match (flag, value) {
                    ("--json", _) => out.json = true,
                    ("--csv", _) => out.csv = true,
                    ("--per-node", _) => out.per_node = true,
                    ("--profile", _) => out.profile = true,
                    ("--report", Some(v)) => out.report = Some(v.into()),
                    ("--schedule", Some(v)) => out.schedule = Some(v.into()),
                    ("--topology", Some(v)) => out.topology = v.into(),
                    ("--n", Some(v)) => set_usize(&mut out.n, v, "--n")?,
                    ("--k", Some(v)) => set_usize(&mut out.k, v, "--k")?,
                    ("--t", Some(v)) => set_usize(&mut out.t, v, "--t")?,
                    ("--epochs", Some(v)) => set_usize(&mut out.epochs, v, "--epochs")?,
                    ("--runtime", Some(v)) => out.runtime = v.parse()?,
                    ("--workers", Some(v)) => {
                        let mut w = 0;
                        set_usize(&mut w, v, "--workers")?;
                        workers = Some(w);
                    }
                    ("--seed", Some(v)) => {
                        out.seed = v.parse().map_err(|_| format!("bad --seed value {v}"))?;
                    }
                    ("--byz", Some(v)) => out.byzantine.push(parse_byz(v)?),
                    (other, _) => return Err(format!("unknown flag {other}")),
                }
                Ok(())
            })?;
            if let Some(w) = workers {
                match out.runtime {
                    Runtime::Parallel { .. } => out.runtime = Runtime::Parallel { workers: w },
                    other => {
                        return Err(format!(
                            "--workers only applies to --runtime parallel (got {other})"
                        ));
                    }
                }
            }
            if out.epochs == 0 {
                return Err("--epochs must be at least 1".into());
            }
            if out.json && out.csv {
                return Err("--json and --csv are mutually exclusive".into());
            }
            Ok(Command::Detect(out))
        }
        Some(other) => Err(format!("unknown command {other}; try `nectar-cli help`")),
    }
}

/// Walks a flag stream: flags named in `boolean` consume no value (the
/// callback sees `None`), every other `--flag` consumes the next argument
/// (the callback sees `Some(value)`). Shared by both subcommands so a new
/// flag is wired up in exactly one parsing path.
fn parse_flags(
    rest: &[String],
    boolean: &[&str],
    mut set: impl FnMut(&str, Option<&str>) -> Result<(), String>,
) -> Result<(), String> {
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        if boolean.contains(&flag) {
            set(flag, None)?;
            i += 1;
        } else {
            let value = rest.get(i + 1).ok_or_else(|| format!("flag {flag} needs a value"))?;
            set(flag, Some(value))?;
            i += 2;
        }
    }
    Ok(())
}

fn set_usize(slot: &mut usize, value: &str, flag: &str) -> Result<(), String> {
    *slot = value.parse().map_err(|_| format!("bad {flag} value {value}"))?;
    Ok(())
}

/// Parses `node:behavior` descriptors, e.g. `3:silent`, `0:two-faced@4-7`,
/// `2:crash@3`, `1:hide@0-2` — the same grammar scenario files use for
/// their `byz` directive (`nectar_experiments::scenario::parse_behavior`),
/// so a flag incantation and a scenario line never drift apart.
pub fn parse_byz(spec: &str) -> Result<(usize, ByzantineBehavior), String> {
    nectar_experiments::scenario::parse_behavior(spec)
}

/// Builds the requested topology.
///
/// # Errors
///
/// Returns a message for unknown families or invalid parameters.
pub fn build_topology(name: &str, k: usize, n: usize, seed: u64) -> Result<Graph, String> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let err = |e: nectar_graph::GraphError| e.to_string();
    match name {
        "harary" => gen::harary(k, n).map_err(err),
        "random-regular" => gen::random_regular_connected(k, n, &mut rng, 100).map_err(err),
        "pasted-tree" => gen::k_pasted_tree(k, n).map_err(err),
        "diamond" => gen::k_diamond(k, n).map_err(err),
        "wheel" => gen::generalized_wheel(k, n).map_err(err),
        "multipartite-wheel" => gen::multipartite_wheel(k, n, 2).map_err(err),
        "cycle" => Ok(gen::cycle(n)),
        "path" => Ok(gen::path(n)),
        "star" => Ok(gen::star(n)),
        "complete" => Ok(gen::complete(n)),
        "drone" => gen::drone_scenario(n, 3.0, 1.8, &mut rng).map(|p| p.graph).map_err(err),
        "torus" => {
            let side = (n as f64).sqrt().round() as usize;
            gen::torus(side.max(3), side.max(3)).map_err(err)
        }
        "small-world" => gen::watts_strogatz(n, k.max(2) & !1, 0.2, &mut rng).map_err(err),
        "scale-free" => gen::barabasi_albert(n, k.max(1).min(n - 1), &mut rng).map_err(err),
        // A maximally partitioned fleet of 4-cliques — the large-n workload
        // of the event runtime (dissemination is cluster-local).
        "cliques" => {
            if n == 0 || n % 4 != 0 {
                return Err(format!("cliques needs --n to be a positive multiple of 4, got {n}"));
            }
            Ok(gen::disjoint_cliques(n / 4, 4))
        }
        other => Err(format!("unknown topology family {other}; try `nectar-cli help`")),
    }
}

/// Executes a command, returning the text to print.
///
/// # Errors
///
/// Returns a human-readable message on invalid parameters.
pub fn run(cmd: Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Families { k, n, csv } => {
            let mut out = String::new();
            if csv {
                writeln!(out, "family,nodes,edges,kappa,diameter")
                    .expect("writing to String cannot fail");
            } else {
                writeln!(
                    out,
                    "{:<22} {:>6} {:>6} {:>9} {:>9}",
                    "family", "nodes", "edges", "kappa", "diameter"
                )
                .expect("writing to String cannot fail");
            }
            for family in
                ["harary", "pasted-tree", "diamond", "wheel", "multipartite-wheel", "cycle", "star"]
            {
                match build_topology(family, k, n, 0) {
                    Ok(g) => {
                        let kappa = connectivity::vertex_connectivity(&g);
                        let diameter = traversal::diameter(&g)
                            .map(|d| d.to_string())
                            .unwrap_or_else(|| if csv { "inf".into() } else { "∞".into() });
                        if csv {
                            writeln!(
                                out,
                                "{family},{},{},{kappa},{diameter}",
                                g.node_count(),
                                g.edge_count()
                            )
                            .expect("writing to String cannot fail");
                        } else {
                            writeln!(
                                out,
                                "{:<22} {:>6} {:>6} {:>9} {:>9}",
                                family,
                                g.node_count(),
                                g.edge_count(),
                                kappa,
                                diameter
                            )
                            .expect("writing to String cannot fail");
                        }
                    }
                    Err(e) if csv => {
                        // CSV stays machine-readable: unconstructible
                        // families are simply omitted (stderr is for humans).
                        eprintln!("[families] {family} not constructible: {e}");
                    }
                    Err(e) => {
                        writeln!(out, "{family:<22} (not constructible: {e})")
                            .expect("writing to String cannot fail");
                    }
                }
            }
            Ok(out)
        }
        Command::Node(args) => run_node(&args).map(|report| report.to_text()),
        Command::Run { file } => {
            let compiled = load_scenario(&file)?;
            match compiled.transport {
                TransportKind::Sync => {
                    let report = compiled.run_report();
                    if let Some(path) = &compiled.report {
                        report
                            .save_json(path)
                            .map_err(|e| format!("writing report {path}: {e}"))?;
                    }
                    if let Some(path) = &compiled.csv {
                        std::fs::write(path, report.to_csv())
                            .map_err(|e| format!("writing CSV {path}: {e}"))?;
                    }
                    Ok(render_scenario_text(&file, &compiled, &report))
                }
                TransportKind::Loopback => {
                    let (decisions, metrics, _log) =
                        compiled.run_loopback().map_err(|e| format!("{file}: {e}"))?;
                    Ok(render_scenario_loopback(&file, &compiled, &decisions, &metrics))
                }
                TransportKind::Uds | TransportKind::Tcp => Err(format!(
                    "scenario {file} declares a socket fleet (transport {}); launch one \
                     process per node instead: `nectar-cli node --scenario {file} --node <I>`",
                    compiled.transport.name()
                )),
            }
        }
        Command::Matrix(args) => {
            let spec = MatrixSpec {
                families: args
                    .families
                    .iter()
                    .map(|f| FamilySpec::parse(f))
                    .collect::<Result<_, _>>()?,
                sizes: args.sizes.clone(),
                casts: args.casts.iter().map(|c| CastSpec::parse(c)).collect::<Result<_, _>>()?,
                t: args.t,
                trials: args.trials,
                base_seed: args.seed,
                runtime: args.runtime,
            };
            let report = spec.run()?;
            if let Some(path) = &args.out {
                report.save_json(path).map_err(|e| format!("writing report {path}: {e}"))?;
            }
            if let Some(path) = &args.out_csv {
                std::fs::write(path, report.to_csv())
                    .map_err(|e| format!("writing CSV {path}: {e}"))?;
            }
            if args.json {
                Ok(report.to_json())
            } else if args.csv {
                Ok(report.to_csv())
            } else {
                Ok(report.to_string())
            }
        }
        Command::Detect(args) => {
            let graph = build_topology(&args.topology, args.k, args.n, args.seed)?;
            let kappa = connectivity::vertex_connectivity(&graph);
            for (node, _) in &args.byzantine {
                if *node >= args.n {
                    return Err(format!("byzantine node {node} out of range (n = {})", args.n));
                }
            }
            let schedule = match &args.schedule {
                Some(spec) => Some(load_schedule(spec, &graph)?),
                None => None,
            };
            let mut scenario = Scenario::new(graph, args.t).with_key_seed(args.seed);
            for (node, behavior) in &args.byzantine {
                scenario = scenario.with_byzantine(*node, behavior.clone());
            }
            // One session runs all epochs: the builder re-seeds the keys
            // per epoch and shares one oracle, so epochs after the first
            // decide from cache. Per-node rows are not read back off the
            // report — they stream live through the observer hooks.
            let mut stream = PerNodeStream::default();
            let mut sim = scenario.sim().runtime(args.runtime).epochs(args.epochs);
            if let Some(schedule) = schedule {
                sim = sim.schedule(schedule);
            }
            if args.profile {
                sim = sim.profile();
            }
            if args.per_node {
                sim = sim.observe(&mut stream);
            }
            let report = sim.run();
            if let Some(path) = &args.report {
                report.save_json(path).map_err(|e| format!("writing report {path}: {e}"))?;
            }
            if args.per_node {
                Ok(render_per_node(&args, kappa, &stream.rows))
            } else if args.json {
                Ok(render_detect_json(&args, kappa, &report.epochs))
            } else if args.csv {
                Ok(render_detect_csv(&report.epochs))
            } else {
                Ok(render_detect_text(&args, kappa, &report.epochs))
            }
        }
    }
}

/// Loads and compiles a scenario file; parse and compile errors already
/// carry `file:line` context in their Display form.
fn load_scenario(file: &str) -> Result<CompiledScenario, String> {
    let spec = ScenarioSpec::load(std::path::Path::new(file)).map_err(|e| e.to_string())?;
    spec.compile().map_err(|e| e.to_string())
}

/// The `node` command: hosts node `args.node` of the socket fleet that
/// `args.scenario` describes. Everything but the node id comes out of the
/// compiled scenario, so every fleet process shares one file instead of
/// re-deriving seeded state from flags.
fn run_node(args: &NodeArgs) -> Result<NodeReport, String> {
    let (file, node) = (args.scenario.as_str(), args.node);
    let compiled = load_scenario(file)?;
    let n = compiled.graph.node_count();
    if node >= n {
        return Err(format!("--node {node} out of range (n = {n})"));
    }
    let config = ConnectConfig {
        connect_timeout: std::time::Duration::from_millis(compiled.connect_timeout_ms),
        recv_timeout: std::time::Duration::from_millis(compiled.recv_timeout_ms),
        ..ConnectConfig::default()
    };
    let scenario = compiled.scenario();
    match compiled.transport {
        TransportKind::Uds => {
            run_node_uds(node, compiled.sock_dir.as_deref().unwrap_or(""), &scenario, &config)
        }
        TransportKind::Tcp => {
            let base_port = compiled.base_port;
            let addr = |i: usize| -> Result<std::net::SocketAddr, String> {
                let port = u16::try_from(base_port as usize + i)
                    .map_err(|_| format!("base port {base_port} + node {i} overflows a port"))?;
                Ok(std::net::SocketAddr::from(([127, 0, 0, 1], port)))
            };
            let peers = scenario
                .topology()
                .neighborhood(node)
                .into_iter()
                .map(|p| Ok((p, addr(p)?)))
                .collect::<Result<Vec<_>, String>>()?;
            let transport = SocketTransport::tcp(node, addr(node)?, &peers, &config)
                .map_err(|e| format!("node {node}: {e}"))?;
            run_scenario_node(&scenario, node, transport).map_err(|e| format!("node {node}: {e}"))
        }
        other => Err(format!(
            "scenario {file} declares transport {}; `node` hosts one process of a \
             socket fleet — use `nectar-cli run {file}` for in-process transports",
            other.name()
        )),
    }
}

/// The `transport uds` body of the `node` command: socket files follow
/// the `<sock-dir>/node-<id>.sock` convention, so the fleet only has to
/// agree on the directory.
#[cfg(unix)]
fn run_node_uds(
    node: usize,
    sock_dir: &str,
    scenario: &Scenario,
    config: &ConnectConfig,
) -> Result<NodeReport, String> {
    let dir = if sock_dir.is_empty() {
        std::env::temp_dir().join("nectar-fleet")
    } else {
        std::path::PathBuf::from(sock_dir)
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let sock = |i: usize| dir.join(format!("node-{i}.sock"));
    let peers: Vec<_> =
        scenario.topology().neighborhood(node).into_iter().map(|p| (p, sock(p))).collect();
    let transport = SocketTransport::uds(node, &sock(node), &peers, config)
        .map_err(|e| format!("node {node}: {e}"))?;
    run_scenario_node(scenario, node, transport).map_err(|e| format!("node {node}: {e}"))
}

#[cfg(not(unix))]
fn run_node_uds(
    node: usize,
    _sock_dir: &str,
    _scenario: &Scenario,
    _config: &ConnectConfig,
) -> Result<NodeReport, String> {
    let _ = node;
    Err("transport uds needs a Unix platform; use transport tcp".into())
}

/// Human-readable `run` report for the sync transport: scenario
/// provenance, topology facts, the last epoch's verdict and traffic.
fn render_scenario_text(file: &str, compiled: &CompiledScenario, report: &RunReport) -> String {
    let kappa = connectivity::vertex_connectivity(&compiled.graph);
    let outcome = report.epochs.last().expect("at least one epoch runs");
    let mut out = String::new();
    let name = if compiled.name.is_empty() { file } else { &compiled.name };
    writeln!(out, "scenario: {name} ({file})").expect("writing to String cannot fail");
    writeln!(
        out,
        "topology: n = {} (κ = {kappa}), t = {}, runtime {}",
        compiled.graph.node_count(),
        compiled.t,
        compiled.runtime
    )
    .expect("writing to String cannot fail");
    if !compiled.cast.is_empty() {
        writeln!(out, "byzantine: {:?}", compiled.cast.iter().map(|(n, _)| *n).collect::<Vec<_>>())
            .expect("writing to String cannot fail");
    }
    if let Some(schedule) = &compiled.schedule {
        writeln!(out, "schedule: {} scripted line(s)", schedule.to_script().lines().count())
            .expect("writing to String cannot fail");
    }
    match outcome.unanimous_verdict() {
        Some(v) => {
            writeln!(out, "verdict:  {v} (confirmed partition: {})", outcome.any_confirmed())
                .expect("writing to String cannot fail");
        }
        None => {
            writeln!(out, "verdict:  DISAGREEMENT — this would falsify Lemma 2, please report")
                .expect("writing to String cannot fail");
        }
    }
    writeln!(
        out,
        "traffic:  {:.1} KB/node mean, {:.1} KB/node max",
        outcome.metrics.mean_bytes_sent_per_node() / 1024.0,
        outcome.metrics.max_bytes_sent_per_node() as f64 / 1024.0
    )
    .expect("writing to String cannot fail");
    if compiled.epochs > 1 {
        let hits: u64 = report.epochs.iter().map(|o| o.oracle.cache_hits).sum();
        let queries: u64 = report.epochs.iter().map(|o| o.oracle.queries).sum();
        writeln!(
            out,
            "epochs:   {} — oracle served {hits}/{queries} decisions from cache",
            compiled.epochs
        )
        .expect("writing to String cannot fail");
    }
    if let Some(p) = outcome.profile {
        writeln!(
            out,
            "profile:  disseminate {}µs | classify {}µs | derive {}µs | \
             materialize {}µs | decide {}µs (last epoch, wall clock)",
            p.disseminate_micros,
            p.classify_micros,
            p.derive_micros,
            p.materialize_micros,
            p.decide_micros
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Human-readable `run` report for the loopback transport: one row per
/// node (real message-passing has no epoch loop), then the traffic line.
fn render_scenario_loopback(
    file: &str,
    compiled: &CompiledScenario,
    decisions: &std::collections::BTreeMap<usize, Decision>,
    metrics: &nectar_net::Metrics,
) -> String {
    let mut out = String::new();
    let name = if compiled.name.is_empty() { file } else { &compiled.name };
    writeln!(out, "scenario: {name} ({file}) over loopback channels")
        .expect("writing to String cannot fail");
    writeln!(
        out,
        "{:>5} {:<18} {:>9} {:>9} {:>12}",
        "node", "verdict", "confirmed", "reachable", "connectivity"
    )
    .expect("writing to String cannot fail");
    for (node, d) in decisions {
        writeln!(
            out,
            "{node:>5} {:<18} {:>9} {:>9} {:>12}",
            d.verdict.to_string(),
            d.confirmed,
            d.reachable,
            d.connectivity
        )
        .expect("writing to String cannot fail");
    }
    writeln!(
        out,
        "traffic:  {:.1} KB/node mean, {:.1} KB/node max",
        metrics.mean_bytes_sent_per_node() / 1024.0,
        metrics.max_bytes_sent_per_node() as f64 / 1024.0
    )
    .expect("writing to String cannot fail");
    out
}

/// Resolves a `--schedule` value into a validated [`TopologySchedule`]:
/// the value is read as a file when one exists at that path, otherwise it
/// is the script itself with `;` accepted as a line separator. The script
/// is compiled against the topology here so an inconsistent schedule is a
/// CLI error, not a panic inside the simulation.
fn load_schedule(spec: &str, graph: &Graph) -> Result<TopologySchedule, String> {
    let text = match std::fs::read_to_string(spec) {
        Ok(contents) => contents,
        Err(_) => spec.replace(';', "\n"),
    };
    let schedule = TopologySchedule::parse(&text).map_err(|e| format!("--schedule: {e}"))?;
    schedule.compile(graph).map_err(|e| format!("--schedule: {e}"))?;
    Ok(schedule)
}

/// Collects the per-node verdict stream from the run's observer hooks —
/// the `detect --per-node` data source (closing the "no machine-readable
/// per-node decisions" gap).
#[derive(Debug, Default)]
struct PerNodeStream {
    rows: Vec<(usize, usize, Decision)>,
}

impl RunObserver for PerNodeStream {
    fn node_decided(&mut self, epoch: usize, node: usize, decision: &Decision) {
        self.rows.push((epoch, node, *decision));
    }
}

/// Renders the streamed per-node verdicts: CSV or JSON when requested,
/// an aligned table otherwise. CSV rows come from the same formatter as
/// `RunReport::to_csv`, so the stream stays parseable by
/// `RunReport::decisions_from_csv`.
fn render_per_node(args: &DetectArgs, kappa: usize, rows: &[(usize, usize, Decision)]) -> String {
    let mut out = String::new();
    if args.csv {
        out.push_str(nectar_protocol::DECISIONS_CSV_HEADER);
        out.push('\n');
        for (epoch, node, d) in rows {
            writeln!(out, "{}", nectar_protocol::decision_csv_row(*epoch, *node, d))
                .expect("writing to String cannot fail");
        }
    } else if args.json {
        writeln!(out, "{{").expect("writing to String cannot fail");
        writeln!(
            out,
            "  \"topology\": \"{}\", \"n\": {}, \"t\": {}, \"kappa\": {kappa},",
            args.topology, args.n, args.t
        )
        .expect("writing to String cannot fail");
        writeln!(out, "  \"per_node\": [").expect("writing to String cannot fail");
        for (i, (epoch, node, d)) in rows.iter().enumerate() {
            let sep = if i + 1 == rows.len() { "" } else { "," };
            writeln!(
                out,
                "    {{\"epoch\": {epoch}, \"node\": {node}, \"verdict\": \"{}\", \
                 \"confirmed\": {}, \"reachable\": {}, \"connectivity\": {}}}{sep}",
                d.verdict, d.confirmed, d.reachable, d.connectivity
            )
            .expect("writing to String cannot fail");
        }
        writeln!(out, "  ]").expect("writing to String cannot fail");
        writeln!(out, "}}").expect("writing to String cannot fail");
    } else {
        writeln!(
            out,
            "{:>5} {:>5} {:<18} {:>9} {:>9} {:>12}",
            "epoch", "node", "verdict", "confirmed", "reachable", "connectivity"
        )
        .expect("writing to String cannot fail");
        for (epoch, node, d) in rows {
            writeln!(
                out,
                "{epoch:>5} {node:>5} {:<18} {:>9} {:>9} {:>12}",
                d.verdict.to_string(),
                d.confirmed,
                d.reachable,
                d.connectivity
            )
            .expect("writing to String cannot fail");
        }
    }
    out
}

/// Human-readable `detect` report (epoch summaries after the first when
/// `--epochs` exceeds 1).
fn render_detect_text(args: &DetectArgs, kappa: usize, outcomes: &[EpochOutcome]) -> String {
    let outcome = outcomes.last().expect("at least one epoch runs");
    let mut out = String::new();
    writeln!(out, "topology: {} (n = {}, κ = {kappa}), t = {}", args.topology, args.n, args.t)
        .expect("writing to String cannot fail");
    if !args.byzantine.is_empty() {
        writeln!(
            out,
            "byzantine: {:?}",
            args.byzantine.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        )
        .expect("writing to String cannot fail");
    }
    match outcome.unanimous_verdict() {
        Some(v) => {
            let confirmed = outcome.any_confirmed();
            writeln!(out, "verdict:  {v} (confirmed partition: {confirmed})")
                .expect("writing to String cannot fail");
            if v == Verdict::Partitionable && kappa > args.t {
                writeln!(out, "note:     perceived connectivity dropped to ≤ t; real κ = {kappa}")
                    .expect("writing to String cannot fail");
            }
        }
        None => {
            writeln!(out, "verdict:  DISAGREEMENT — this would falsify Lemma 2, please report")
                .expect("writing to String cannot fail");
        }
    }
    writeln!(
        out,
        "traffic:  {:.1} KB/node mean, {:.1} KB/node max",
        outcome.metrics.mean_bytes_sent_per_node() / 1024.0,
        outcome.metrics.max_bytes_sent_per_node() as f64 / 1024.0
    )
    .expect("writing to String cannot fail");
    if args.epochs > 1 {
        writeln!(out, "epochs:   {} (identical topology, fresh keys per epoch)", args.epochs)
            .expect("writing to String cannot fail");
        let hits: u64 = outcomes.iter().map(|o| o.oracle.cache_hits).sum();
        let queries: u64 = outcomes.iter().map(|o| o.oracle.queries).sum();
        writeln!(out, "oracle:   {hits}/{queries} decisions served from cache")
            .expect("writing to String cannot fail");
    }
    if let Some(p) = outcome.profile {
        writeln!(
            out,
            "profile:  disseminate {}µs | classify {}µs | derive {}µs | \
             materialize {}µs | decide {}µs (last epoch, wall clock)",
            p.disseminate_micros,
            p.classify_micros,
            p.derive_micros,
            p.materialize_micros,
            p.decide_micros
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// CSV `detect` report: one row per epoch, columns documented in [`USAGE`].
fn render_detect_csv(outcomes: &[EpochOutcome]) -> String {
    let mut out = String::from(
        "epoch,verdict,confirmed,agreement,mean_kb_per_node,oracle_queries,oracle_cache_hits\n",
    );
    for (epoch, outcome) in outcomes.iter().enumerate() {
        let verdict = match outcome.unanimous_verdict() {
            Some(v) => v.to_string(),
            None => "DISAGREEMENT".into(),
        };
        let confirmed = outcome.any_confirmed();
        writeln!(
            out,
            "{epoch},{verdict},{confirmed},{},{:.3},{},{}",
            outcome.agreement(),
            outcome.metrics.mean_bytes_sent_per_node() / 1024.0,
            outcome.oracle.queries,
            outcome.oracle.cache_hits,
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Machine-readable `detect` report: run parameters, per-epoch verdicts and
/// the per-epoch connectivity-oracle counters.
fn render_detect_json(args: &DetectArgs, kappa: usize, outcomes: &[EpochOutcome]) -> String {
    let mut out = String::new();
    let byz: Vec<String> = args.byzantine.iter().map(|(n, _)| n.to_string()).collect();
    writeln!(out, "{{").expect("writing to String cannot fail");
    writeln!(
        out,
        "  \"topology\": \"{}\", \"n\": {}, \"k\": {}, \"t\": {}, \"seed\": {}, \"kappa\": {kappa},",
        args.topology, args.n, args.k, args.t, args.seed
    )
    .expect("writing to String cannot fail");
    writeln!(out, "  \"byzantine\": [{}],", byz.join(", ")).expect("writing to String cannot fail");
    writeln!(out, "  \"epochs\": [").expect("writing to String cannot fail");
    for (epoch, outcome) in outcomes.iter().enumerate() {
        let verdict = match outcome.unanimous_verdict() {
            Some(v) => format!("\"{v}\""),
            None => "null".into(),
        };
        let confirmed = outcome.any_confirmed();
        let s = &outcome.oracle;
        let sep = if epoch + 1 == outcomes.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"epoch\": {epoch}, \"verdict\": {verdict}, \"confirmed\": {confirmed}, \
             \"agreement\": {}, \"mean_kb_per_node\": {:.3}, \"oracle\": {{\"queries\": {}, \
             \"cache_hits\": {}, \"structure_shortcuts\": {}, \"min_degree_shortcuts\": {}, \
             \"bounded_flows\": {}, \"early_exits\": {}}}}}{sep}",
            outcome.agreement(),
            outcome.metrics.mean_bytes_sent_per_node() / 1024.0,
            s.queries,
            s.cache_hits,
            s.structure_shortcuts,
            s.min_degree_shortcuts,
            s.bounded_flows,
            s.early_exits,
        )
        .expect("writing to String cannot fail");
    }
    writeln!(out, "  ]").expect("writing to String cannot fail");
    writeln!(out, "}}").expect("writing to String cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn empty_args_yield_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&strs(&["help"])).unwrap(), Command::Help);
    }

    #[test]
    fn detect_args_are_parsed() {
        let cmd = parse(&strs(&[
            "detect",
            "--topology",
            "cycle",
            "--n",
            "8",
            "--t",
            "2",
            "--byz",
            "3:silent",
            "--runtime",
            "event",
        ]))
        .unwrap();
        match cmd {
            Command::Detect(args) => {
                assert_eq!(args.topology, "cycle");
                assert_eq!(args.n, 8);
                assert_eq!(args.t, 2);
                assert_eq!(args.runtime, Runtime::Event);
                assert_eq!(args.byzantine, vec![(3, ByzantineBehavior::Silent)]);
            }
            other => panic!("expected detect, got {other:?}"),
        }
    }

    #[test]
    fn runtime_flag_selects_the_engine() {
        for (value, expected) in
            [("sync", Runtime::Sync), ("event", Runtime::Event), ("parallel", Runtime::parallel())]
        {
            match parse(&strs(&["detect", "--runtime", value])).unwrap() {
                Command::Detect(args) => assert_eq!(args.runtime, expected),
                other => panic!("expected detect, got {other:?}"),
            }
        }
        // Default is the deterministic engine; bad names error out.
        match parse(&strs(&["detect"])).unwrap() {
            Command::Detect(args) => assert_eq!(args.runtime, Runtime::Sync),
            other => panic!("expected detect, got {other:?}"),
        }
        assert!(parse(&strs(&["detect", "--runtime", "warp"])).is_err());
        assert!(parse(&strs(&["detect", "--runtime", "threaded"])).is_err());
        assert!(parse(&strs(&["detect", "--threaded"])).is_err());
    }

    #[test]
    fn workers_flag_sizes_the_parallel_pool() {
        // --workers binds to the parallel runtime in either flag order.
        for args in [
            ["detect", "--runtime", "parallel", "--workers", "4"],
            ["detect", "--workers", "4", "--runtime", "parallel"],
        ] {
            match parse(&strs(&args)).unwrap() {
                Command::Detect(a) => assert_eq!(a.runtime, Runtime::Parallel { workers: 4 }),
                other => panic!("expected detect, got {other:?}"),
            }
        }
        // Without --workers the pool matches the machine (workers: 0).
        match parse(&strs(&["detect", "--runtime", "parallel"])).unwrap() {
            Command::Detect(a) => assert_eq!(a.runtime, Runtime::Parallel { workers: 0 }),
            other => panic!("expected detect, got {other:?}"),
        }
        // --workers without the parallel runtime is a user error.
        assert!(parse(&strs(&["detect", "--workers", "4"])).is_err());
        assert!(parse(&strs(&["detect", "--runtime", "event", "--workers", "4"])).is_err());
        assert!(parse(&strs(&["detect", "--runtime", "parallel", "--workers", "x"])).is_err());
    }

    #[test]
    fn detect_on_the_event_runtime_matches_sync_output() {
        let run_with = |rt: &str| {
            run(parse(&strs(&["detect", "--topology", "cycle", "--n", "8", "--runtime", rt]))
                .unwrap())
            .unwrap()
        };
        assert_eq!(run_with("sync"), run_with("event"));
        assert_eq!(run_with("sync"), run_with("parallel"));
    }

    #[test]
    fn detect_csv_emits_one_row_per_epoch() {
        let cmd =
            parse(&strs(&["detect", "--topology", "cycle", "--n", "6", "--epochs", "2", "--csv"]))
                .unwrap();
        let out = run(cmd).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "epoch,verdict,confirmed,agreement,mean_kb_per_node,oracle_queries,oracle_cache_hits"
        );
        assert!(lines[1].starts_with("0,NOT_PARTITIONABLE,false,true,"), "{}", lines[1]);
        // The second epoch decides entirely from the shared oracle's cache.
        assert!(lines[2].ends_with(",6,6"), "{}", lines[2]);
    }

    #[test]
    fn json_and_csv_are_mutually_exclusive() {
        assert!(parse(&strs(&["detect", "--json", "--csv"])).is_err());
    }

    #[test]
    fn per_node_csv_streams_one_row_per_correct_node() {
        let cmd = parse(&strs(&[
            "detect",
            "--topology",
            "star",
            "--n",
            "8",
            "--t",
            "1",
            "--byz",
            "0:silent",
            "--per-node",
            "--csv",
        ]))
        .unwrap();
        let out = run(cmd).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "epoch,node,verdict,confirmed,reachable,connectivity");
        // 7 correct nodes (the hub is Byzantine), one epoch.
        assert_eq!(lines.len(), 1 + 7);
        // The silent hub leaves each leaf with only its own hub edge:
        // r = 2 (itself + the hub it can prove), confirmed.
        assert_eq!(lines[1], "0,1,PARTITIONABLE,true,2,0");
        // Rows arrive in (epoch, node) order — the canonical decision order.
        let nodes: Vec<usize> =
            lines[1..].iter().map(|l| l.split(',').nth(1).unwrap().parse().unwrap()).collect();
        assert_eq!(nodes, (1..8).collect::<Vec<_>>());
    }

    #[test]
    fn per_node_json_and_text_cover_all_epochs() {
        let base = ["detect", "--topology", "cycle", "--n", "6", "--epochs", "2", "--per-node"];
        let mut json_args = base.to_vec();
        json_args.push("--json");
        let json = run(parse(&strs(&json_args)).unwrap()).unwrap();
        assert!(json.contains("\"per_node\": ["), "{json}");
        assert_eq!(json.matches("\"verdict\": \"NOT_PARTITIONABLE\"").count(), 12, "{json}");
        assert!(json.contains("\"epoch\": 1, \"node\": 5"), "{json}");
        let text = run(parse(&strs(&base)).unwrap()).unwrap();
        assert!(text.lines().next().unwrap().contains("verdict"), "{text}");
        assert_eq!(text.lines().count(), 1 + 12, "{text}");
    }

    #[test]
    fn report_flag_persists_the_full_run_report() {
        let path = std::env::temp_dir().join("nectar-cli-report-test.json");
        let path_str = path.to_str().unwrap().to_string();
        let cmd = parse(&strs(&[
            "detect",
            "--topology",
            "cycle",
            "--n",
            "6",
            "--epochs",
            "2",
            "--report",
            &path_str,
        ]))
        .unwrap();
        let _ = run(cmd).unwrap();
        let report = nectar_protocol::RunReport::load_json(&path).expect("persisted report loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(report.n, 6);
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.unanimous_verdict(), Some(Verdict::NotPartitionable));
        assert_eq!(report.topology.edge_count(), 6);
    }

    #[test]
    fn schedule_flag_runs_detection_on_a_dynamic_network() {
        // Cutting (0,1) and (3,4) from round 1 splits cycle-6 into two
        // 3-node arcs; with t = 1 both sides must report PARTITIONABLE.
        let cmd = parse(&strs(&[
            "detect",
            "--topology",
            "cycle",
            "--n",
            "6",
            "--t",
            "1",
            "--schedule",
            "drop 1 0 1; drop 1 3 4",
        ]))
        .unwrap();
        match &cmd {
            Command::Detect(args) => {
                assert_eq!(args.schedule.as_deref(), Some("drop 1 0 1; drop 1 3 4"));
            }
            other => panic!("expected detect, got {other:?}"),
        }
        let out = run(cmd).unwrap();
        assert!(out.contains("verdict:  PARTITIONABLE (confirmed partition: true)"), "{out}");
        // The same script healed before the decision round leaves the
        // static verdict intact.
        let healed = run(parse(&strs(&[
            "detect",
            "--topology",
            "cycle",
            "--n",
            "6",
            "--t",
            "1",
            "--schedule",
            "drop 1 0 1; drop 1 3 4; heal 2 0 1; heal 2 3 4",
        ]))
        .unwrap())
        .unwrap();
        assert!(healed.contains("NOT_PARTITIONABLE"), "{healed}");
    }

    #[test]
    fn schedule_flag_reads_a_file_and_lands_in_the_report() {
        let dir = std::env::temp_dir();
        let sched_path = dir.join("nectar-cli-schedule-test.txt");
        let report_path = dir.join("nectar-cli-schedule-report-test.json");
        std::fs::write(&sched_path, "# split the ring\ndrop 1 0 1\ndrop 1 3 4\n").unwrap();
        let cmd = parse(&strs(&[
            "detect",
            "--topology",
            "cycle",
            "--n",
            "6",
            "--t",
            "1",
            "--schedule",
            sched_path.to_str().unwrap(),
            "--report",
            report_path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("PARTITIONABLE"), "{out}");
        let report = nectar_protocol::RunReport::load_json(&report_path).unwrap();
        std::fs::remove_file(&sched_path).ok();
        std::fs::remove_file(&report_path).ok();
        let record = report.schedule.expect("report records the applied schedule");
        assert!(record.script.contains("drop 1 0 1"), "{}", record.script);
        assert_eq!(record.transitions, vec![(1, 0, 1, false), (1, 3, 4, false)]);
    }

    #[test]
    fn bad_schedules_are_cli_errors_not_panics() {
        let run_sched = |script: &str| {
            run(parse(&strs(&["detect", "--topology", "cycle", "--n", "6", "--schedule", script]))
                .unwrap())
        };
        // Malformed syntax, an edge the topology does not have, and a heal
        // without a matching drop all surface as messages.
        assert!(run_sched("drop one zero").unwrap_err().contains("--schedule"));
        assert!(run_sched("drop 1 0 3").unwrap_err().contains("--schedule"));
        assert!(run_sched("heal 2 0 1").unwrap_err().contains("--schedule"));
    }

    #[test]
    fn matrix_args_are_parsed_with_reduced_defaults() {
        match parse(&strs(&["matrix"])).unwrap() {
            Command::Matrix(args) => {
                assert_eq!(args.families.len(), 3);
                assert_eq!(args.sizes, vec![12, 16]);
                assert_eq!(args.casts.len(), 3);
                assert_eq!(args.t, 2);
                assert_eq!(args.trials, 100);
                assert_eq!(args.runtime, Runtime::Sync);
            }
            other => panic!("expected matrix, got {other:?}"),
        }
        match parse(&strs(&[
            "matrix",
            "--families",
            "harary-k4,grid",
            "--sizes",
            "8,12",
            "--casts",
            "honest,silent-cut",
            "--t",
            "1",
            "--trials",
            "5",
            "--runtime",
            "parallel",
            "--workers",
            "3",
        ]))
        .unwrap()
        {
            Command::Matrix(args) => {
                assert_eq!(args.families, vec!["harary-k4", "grid"]);
                assert_eq!(args.sizes, vec![8, 12]);
                assert_eq!(args.casts, vec!["honest", "silent-cut"]);
                assert_eq!(args.t, 1);
                assert_eq!(args.trials, 5);
                assert_eq!(args.runtime, Runtime::Parallel { workers: 3 });
            }
            other => panic!("expected matrix, got {other:?}"),
        }
        assert!(parse(&strs(&["matrix", "--trials", "0"])).is_err());
        assert!(parse(&strs(&["matrix", "--json", "--csv"])).is_err());
        assert!(parse(&strs(&["matrix", "--workers", "4"])).is_err());
        assert!(parse(&strs(&["matrix", "--sizes", "x"])).is_err());
        assert!(parse(&strs(&["matrix", "--wat", "1"])).is_err());
    }

    #[test]
    fn matrix_end_to_end_emits_table_json_and_csv() {
        let base = [
            "matrix",
            "--families",
            "harary-k4,grid",
            "--sizes",
            "9",
            "--casts",
            "honest,silent-cut",
            "--t",
            "1",
            "--trials",
            "2",
            "--seed",
            "7",
        ];
        let table = run(parse(&strs(&base)).unwrap()).unwrap();
        assert!(table.contains("matrix: 4 cells × 2 trials"), "{table}");
        assert!(table.contains("harary-k4"), "{table}");
        let mut json_args = base.to_vec();
        json_args.push("--json");
        let json = run(parse(&strs(&json_args)).unwrap()).unwrap();
        let report = nectar_experiments::MatrixReport::from_json(&json).expect("parses back");
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.trials, 2);
        let mut csv_args = base.to_vec();
        csv_args.push("--csv");
        let csv = run(parse(&strs(&csv_args)).unwrap()).unwrap();
        let cells = nectar_experiments::MatrixReport::cells_from_csv(&csv).expect("parses back");
        assert_eq!(cells, report.cells);
        // Unknown family and cast names surface as messages, not panics.
        assert!(run(
            parse(&strs(&["matrix", "--families", "klein-bottle", "--trials", "1"])).unwrap()
        )
        .is_err());
        assert!(run(parse(&strs(&["matrix", "--casts", "gaslight", "--trials", "1"])).unwrap())
            .is_err());
    }

    #[test]
    fn matrix_out_flags_persist_both_forms() {
        let dir = std::env::temp_dir();
        let json_path = dir.join("nectar-cli-matrix-test.json");
        let csv_path = dir.join("nectar-cli-matrix-test.csv");
        let cmd = parse(&strs(&[
            "matrix",
            "--families",
            "harary-k4",
            "--sizes",
            "8",
            "--casts",
            "honest",
            "--t",
            "1",
            "--trials",
            "2",
            "--out",
            json_path.to_str().unwrap(),
            "--out-csv",
            csv_path.to_str().unwrap(),
        ]))
        .unwrap();
        let _ = run(cmd).unwrap();
        let report =
            nectar_experiments::MatrixReport::load_json(&json_path).expect("persisted JSON loads");
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        std::fs::remove_file(&json_path).ok();
        std::fs::remove_file(&csv_path).ok();
        assert_eq!(report.cells.len(), 1);
        assert_eq!(
            nectar_experiments::MatrixReport::cells_from_csv(&csv).expect("persisted CSV parses"),
            report.cells
        );
    }

    #[test]
    fn byz_specs_cover_all_behaviors() {
        assert_eq!(parse_byz("3:silent").unwrap().1, ByzantineBehavior::Silent);
        assert_eq!(parse_byz("1:crash@2").unwrap().1, ByzantineBehavior::CrashAfter { round: 2 });
        assert_eq!(
            parse_byz("0:two-faced@4-6").unwrap().1,
            ByzantineBehavior::TwoFaced { silent_toward: [4, 5, 6].into() }
        );
        assert_eq!(
            parse_byz("0:hide@1-2").unwrap().1,
            ByzantineBehavior::HideEdges { toward: [1, 2].into() }
        );
        assert!(parse_byz("nonsense").is_err());
        assert!(parse_byz("0:warp@1-2").is_err());
        assert!(parse_byz("0:two-faced@6-4").is_err());
    }

    #[test]
    fn node_args_are_parsed() {
        assert_eq!(
            parse(&strs(&["node", "--scenario", "fleet.scn", "--node", "2"])).unwrap(),
            Command::Node(NodeArgs { node: 2, scenario: "fleet.scn".into() })
        );
        // Both flags are mandatory; the range check waits for the file's n.
        assert!(parse(&strs(&["node"])).unwrap_err().contains("--node"));
        assert!(parse(&strs(&["node", "--node", "0"])).unwrap_err().contains("--scenario"));
        assert!(parse(&strs(&["node", "--scenario", "fleet.scn"])).unwrap_err().contains("--node"));
        assert!(parse(&strs(&["node", "--scenario", "fleet.scn", "--node", "x"])).is_err());
        // The scenario file is the only description of a fleet: nothing
        // about it can be said (or contradicted) per process.
        for flag in [
            "--topology",
            "--n",
            "--k",
            "--t",
            "--byz",
            "--seed",
            "--transport",
            "--sock-dir",
            "--base-port",
            "--connect-timeout-ms",
            "--recv-timeout-ms",
        ] {
            let err = parse(&strs(&["node", "--scenario", "fleet.scn", "--node", "0", flag, "1"]))
                .unwrap_err();
            assert_eq!(err, format!("unknown flag {flag}"));
        }
    }

    #[test]
    fn unknown_flags_and_commands_error() {
        assert!(parse(&strs(&["detect", "--wat", "1"])).is_err());
        assert!(parse(&strs(&["frobnicate"])).is_err());
        assert!(parse(&strs(&["detect", "--n"])).is_err());
        assert!(parse(&strs(&["detect", "--epochs", "0"])).is_err());
    }

    #[test]
    fn json_and_epochs_flags_are_parsed() {
        let cmd =
            parse(&strs(&["detect", "--topology", "cycle", "--n", "6", "--json", "--epochs", "3"]))
                .unwrap();
        match cmd {
            Command::Detect(args) => {
                assert!(args.json);
                assert_eq!(args.epochs, 3);
            }
            other => panic!("expected detect, got {other:?}"),
        }
        // Defaults: plain text, one epoch.
        match parse(&strs(&["detect"])).unwrap() {
            Command::Detect(args) => {
                assert!(!args.json);
                assert_eq!(args.epochs, 1);
            }
            other => panic!("expected detect, got {other:?}"),
        }
    }

    #[test]
    fn detect_json_reports_verdict_and_oracle_stats() {
        let cmd = parse(&strs(&[
            "detect",
            "--topology",
            "cycle",
            "--n",
            "8",
            "--t",
            "1",
            "--epochs",
            "2",
            "--json",
        ]))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("\"verdict\": \"NOT_PARTITIONABLE\""), "{out}");
        assert!(out.contains("\"kappa\": 2"), "{out}");
        assert!(out.contains("\"cache_hits\""), "{out}");
        assert!(out.contains("\"early_exits\""), "{out}");
        assert!(out.contains("\"epoch\": 1"), "{out}");
        // Epoch 1 re-runs the same topology: every query is a cache hit,
        // visible as queries == cache_hits == n in the second epoch object.
        let epoch1 = out.lines().find(|l| l.contains("\"epoch\": 1")).unwrap();
        assert!(epoch1.contains("\"queries\": 8, \"cache_hits\": 8"), "{epoch1}");
    }

    #[test]
    fn profile_flag_prints_the_phase_breakdown_and_persists_it() {
        let path = std::env::temp_dir().join("nectar-cli-profile-test.json");
        let path_str = path.to_str().unwrap().to_string();
        let cmd = parse(&strs(&[
            "detect",
            "--topology",
            "cycle",
            "--n",
            "8",
            "--profile",
            "--report",
            &path_str,
        ]))
        .unwrap();
        match &cmd {
            Command::Detect(args) => assert!(args.profile),
            other => panic!("expected detect, got {other:?}"),
        }
        let out = run(cmd).unwrap();
        assert!(out.contains("profile:  disseminate"), "{out}");
        assert!(out.contains("decide"), "{out}");
        let report = nectar_protocol::RunReport::load_json(&path).expect("persisted report loads");
        std::fs::remove_file(&path).ok();
        assert!(report.epochs[0].profile.is_some(), "profile lands in the RunReport JSON");
        // Without the flag nothing is recorded.
        let plain =
            run(parse(&strs(&["detect", "--topology", "cycle", "--n", "8"])).unwrap()).unwrap();
        assert!(!plain.contains("profile:"), "{plain}");
    }

    #[test]
    fn detect_text_summarizes_multi_epoch_cache_use() {
        let cmd =
            parse(&strs(&["detect", "--topology", "cycle", "--n", "6", "--epochs", "3"])).unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("epochs:   3"), "{out}");
        assert!(out.contains("17/18 decisions served from cache"), "{out}");
    }

    #[test]
    fn build_topology_knows_all_families() {
        for family in [
            "harary",
            "random-regular",
            "pasted-tree",
            "diamond",
            "wheel",
            "multipartite-wheel",
            "cycle",
            "path",
            "star",
            "complete",
            "drone",
            "torus",
            "small-world",
            "scale-free",
            "cliques",
        ] {
            assert!(build_topology(family, 4, 20, 1).is_ok(), "{family}");
        }
        assert!(build_topology("klein-bottle", 4, 20, 1).is_err());
        // cliques must not silently truncate or degenerate to 0 nodes.
        assert!(build_topology("cliques", 4, 10, 1).is_err());
        assert!(build_topology("cliques", 4, 3, 1).is_err());
        assert!(build_topology("cliques", 4, 0, 1).is_err());
    }

    #[test]
    fn detect_end_to_end_reports_verdict() {
        let cmd = parse(&strs(&["detect", "--topology", "cycle", "--n", "8", "--t", "1"])).unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("NOT_PARTITIONABLE"), "{out}");
        assert!(out.contains("KB/node"));
    }

    #[test]
    fn detect_with_byzantine_star_hub() {
        let cmd = parse(&strs(&[
            "detect",
            "--topology",
            "star",
            "--n",
            "8",
            "--t",
            "1",
            "--byz",
            "0:silent",
        ]))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("PARTITIONABLE"), "{out}");
    }

    #[test]
    fn families_table_lists_structural_facts() {
        let out = run(Command::Families { k: 4, n: 24, csv: false }).unwrap();
        assert!(out.contains("harary"));
        assert!(out.contains("wheel"));
        // κ column contains the Harary guarantee.
        assert!(out.lines().any(|l| l.starts_with("harary") && l.contains(" 4")));
    }

    #[test]
    fn families_csv_is_machine_readable() {
        let cmd = parse(&strs(&["families", "--k", "4", "--n", "24", "--csv"])).unwrap();
        assert_eq!(cmd, Command::Families { k: 4, n: 24, csv: true });
        let out = run(cmd).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "family,nodes,edges,kappa,diameter");
        assert!(lines[1..].iter().all(|l| l.split(',').count() == 5), "{out}");
        assert!(lines.iter().any(|l| l.starts_with("harary,24,48,4,")), "{out}");
    }

    #[test]
    fn out_of_range_byzantine_node_errors() {
        let cmd = parse(&strs(&["detect", "--topology", "cycle", "--n", "5", "--byz", "9:silent"]))
            .unwrap();
        assert!(run(cmd).is_err());
    }

    #[test]
    fn run_command_takes_exactly_one_scenario_file() {
        assert_eq!(
            parse(&strs(&["run", "scenarios/demo.scn"])).unwrap(),
            Command::Run { file: "scenarios/demo.scn".into() }
        );
        assert!(parse(&strs(&["run"])).unwrap_err().contains("scenario file"));
        assert!(parse(&strs(&["run", "a.scn", "b.scn"])).is_err());
        assert!(parse(&strs(&["run", "--json"])).is_err());
    }

    #[test]
    fn run_executes_a_scenario_file_end_to_end() {
        let dir = std::env::temp_dir().join("nectar-cli-run-e2e");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("cut.scn");
        let report_path = dir.join("cut-report.json");
        std::fs::write(
            &file,
            format!(
                "name harary cut demo\n\
                 topology harary-k2 10\n\
                 t 2\n\
                 seed 5\n\
                 cast silent-cut\n\
                 report {}\n",
                report_path.display()
            ),
        )
        .unwrap();
        let out = run(Command::Run { file: file.to_string_lossy().into_owned() }).unwrap();
        assert!(out.contains("scenario: harary cut demo"), "{out}");
        assert!(out.contains("verdict:"), "{out}");
        // The report sink persisted a round-trippable RunReport.
        let json = std::fs::read_to_string(&report_path).unwrap();
        let report = RunReport::from_json(&json).unwrap();
        assert_eq!(report.n, 10);
        // The same file drives the same run as the equivalent hand-built
        // simulation — the bit-identity the conformance suite pins.
        let compiled = load_scenario(&file.to_string_lossy()).unwrap();
        assert_eq!(compiled.run_report(), report);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_reports_scenario_errors_with_file_and_line() {
        let dir = std::env::temp_dir().join("nectar-cli-run-errors");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("bad.scn");
        std::fs::write(&file, "topology harary-k2 10\nruntime warp\n").unwrap();
        let err = run(Command::Run { file: file.to_string_lossy().into_owned() }).unwrap_err();
        assert!(err.contains("bad.scn:2"), "{err}");
        assert!(err.contains("unknown runtime warp"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_refuses_socket_scenarios_and_points_at_node() {
        let dir = std::env::temp_dir().join("nectar-cli-run-socket");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("fleet.scn");
        std::fs::write(&file, "topology harary-k2 6\ntransport uds\n").unwrap();
        let err = run(Command::Run { file: file.to_string_lossy().into_owned() }).unwrap_err();
        assert!(err.contains("node --scenario"), "{err}");
        // And the converse: `node` refuses in-process scenarios.
        std::fs::write(&file, "topology harary-k2 6\n").unwrap();
        let err =
            run(Command::Node(NodeArgs { node: 0, scenario: file.to_string_lossy().into_owned() }))
                .unwrap_err();
        assert!(err.contains("transport sync"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_loopback_scenarios_report_per_node_decisions() {
        let dir = std::env::temp_dir().join("nectar-cli-run-loopback");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("loop.scn");
        std::fs::write(&file, "topology harary-k2 6\nt 1\ntransport loopback\n").unwrap();
        let out = run(Command::Run { file: file.to_string_lossy().into_owned() }).unwrap();
        assert!(out.contains("over loopback channels"), "{out}");
        // One row per node, all healthy.
        for node in 0..6 {
            assert!(out.lines().any(|l| l.trim_start().starts_with(&format!("{node} "))), "{out}");
        }
        assert!(out.contains("NOT_PARTITIONABLE"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn usage_documents_the_scenario_front_door() {
        assert!(USAGE.contains("nectar-cli run <scenario-file>"));
        assert!(USAGE.contains("node --scenario"));
        assert!(USAGE.contains("mobility waypoint"));
    }
}
