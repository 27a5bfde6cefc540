//! Argument parsing and command execution for the `nectar-cli` binary.
//!
//! The binary is a thin wrapper; everything here is library code so the
//! parsing rules and command behaviour are unit-tested.

use std::fmt::Write as _;

use nectar_experiments::matrix::{CastSpec, FamilySpec, MatrixSpec};
use nectar_experiments::scenario::parse_behavior;
use nectar_experiments::{CompiledScenario, ScenarioSpec, TransportKind};
use nectar_graph::{connectivity, traversal};
use nectar_net::transport::{ConnectConfig, SocketTransport};
use nectar_protocol::{run_scenario_node, Decision, NodeReport, RunReport, Scenario, Verdict};

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
    /// Run NECTAR on a generated topology and report the decision: the
    /// flag spelling of a scenario file, lowered onto the same
    /// [`ScenarioSpec`] and executed through the same path as `run`.
    Detect(DetectArgs),
    /// Sweep the topology-zoo × attack-zoo experiment matrix and report
    /// per-cell statistics.
    Matrix(MatrixArgs),
    /// Run ONE node of a scenario over a real socket transport and print
    /// its `NodeReport` — the per-process half of multi-process detection.
    Node(NodeArgs),
    /// Print structural facts (κ, diameter, edges) for the five §V-B
    /// topology families at the given connectivity and size.
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
    /// The scenario the flags describe, field for field what the
    /// equivalent `.scn` file parses to (`spec.to_text()` writes that
    /// file). Validation is [`ScenarioSpec::compile`]'s alone.
    pub spec: ScenarioSpec,
    /// Print `RunReport::to_json()` instead of human-readable text.
    pub json: bool,
    /// Print `RunReport::to_csv()` (one row per correct node per epoch)
    /// instead of text.
    pub csv: bool,
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
    /// The sweep: `MatrixSpec::reduced()` (three families × two sizes ×
    /// three casts, 100 trials per cell at `t = 2`) with every axis a flag
    /// names replaced.
    pub spec: MatrixSpec,
    /// Emit the full MatrixReport JSON to stdout instead of the table.
    pub json: bool,
    /// Emit the per-cell CSV to stdout instead of the table.
    pub csv: bool,
    /// Persist the MatrixReport JSON to this path.
    pub out: Option<String>,
    /// Persist the per-cell CSV to this path.
    pub out_csv: Option<String>,
}

/// Usage text.
pub const USAGE: &str = "\
nectar-cli — Byzantine-resilient partition detection

USAGE:
  nectar-cli run <scenario-file>
  nectar-cli detect --topology <family> --n <N> [--t <T>] [--seed <S>]
             [--byz <node>:<behavior> ...] [--runtime <R>] [--epochs <E>]
             [--schedule <path-or-script>] [--report <path>]
             [--profile] [--json | --csv]
  nectar-cli matrix [--families f1,f2,..] [--sizes n1,n2,..] [--casts c1,c2,..]
             [--t <T>] [--trials <N>] [--seed <S>] [--runtime <R>]
             [--out <path.json>] [--out-csv <path.csv>] [--json | --csv]
  nectar-cli node --scenario <file> --node <I>
  nectar-cli families --k <K> --n <N> [--csv]
  nectar-cli help

SCENARIO (run / node --scenario):
  A scenario file describes a whole experiment declaratively — one
  directive per line, `#` comments, defaults for everything omitted:
  `name <words>`, `topology <family> <n>` (see FAMILIES) or an explicit
  edge list (`nodes <N>` + `edge U V` lines), `t <T>`, `seed <S>`,
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

DETECT:
  The flag spelling of a sync-transport scenario file: every flag sets
  the directive of the same name (`--topology F --n N` is `topology F N`,
  `--byz` is a `byz` line, `--report` the `report` sink, ...), the result
  is validated by the scenario compiler and run exactly as `run` would
  run that file — same report bytes on every runtime. Defaults:
  harary-k4, n = 20, t = 1, seed 42, one epoch, the sync runtime.

RUNTIME (--runtime, default sync):
  sync        deterministic single-threaded round engine — the baseline
              for tests and small sweeps
  event       active-set round loop, O(active events) scheduling — large
              n (10k+ nodes in one process) on a single core
  parallel:W  the same event loop with each round's polls and deliveries
              fanned out over W workers pulling from one shared queue of
              blocks — large n on many cores. Bare `parallel` (W = 0)
              matches the machine; only wall-clock depends on W, and
              parallel:1 is `event`.
  All produce bit-identical outcomes (docs/DETERMINISM.md).

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
  is a file path (as `schedule @<file>`), or the script itself inline
  with `;` separating lines (each one a `schedule <directive>` line, e.g.
  --schedule 'drop 1 0 1; heal 3 0 1'). Applied identically on every
  runtime at any worker count, and recorded in --report output.

OUTPUT:
  `detect` and `run` print the same text: topology facts (n, the real κ,
  t, runtime), the last epoch's verdict, a note when a PARTITIONABLE
  verdict comes from perceived connectivity dropping to ≤ t on a graph
  whose real κ is larger, traffic in KB/node and, past one epoch, the
  oracle's cache use. `detect --json` prints the complete RunReport
  instead (parameters, topology, schedule, per-epoch per-node decisions,
  traffic and oracle counters — the document RunReport::from_json
  reads); `detect --csv` prints its decision stream, one row per correct
  node per epoch with the columns `epoch,node,verdict,confirmed,\
reachable,connectivity`. --report <path> persists the same JSON to
  <path> whatever is printed. For `families`, --csv emits
  `family,nodes,edges,kappa,diameter`. --epochs E re-runs detection
  E times on the same topology with fresh keys, sharing one oracle so
  unchanged graphs decide from cache. --profile records a per-phase
  wall-clock breakdown (dissemination, then the decision phase) per
  epoch: printed with the text output and persisted in the report JSON.
  The timings are wall clock —
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
  --out / --out-csv additionally persist both forms. Families: see
  FAMILIES. Casts: honest | silent-random | silent-cut |
  equivocate-random | falsify-articulation[-pP] | falsify-colluding[-pP]
  (P is the per-measurement flip probability in per-mille; placements
  use the full budget t, falsifiers sit on articulation points). Every
  cell is bit-identical across runtimes and worker counts.

FAMILIES (--topology, --families, `topology <family> <n>`):
  harary[-kK] | wheel[-kK] | pasted-tree[-kK] | diamond[-kK] |
  multipartite-wheel[-kK] | random-regular[-dD] | scale-free[-mM] |
  small-world[-kK-pP] | grid | torus | two-cluster | cycle | path |
  star | complete | cliques
  A bare name takes the default parameter (K = 4, D = 4, M = 2, P = 100;
  P is the rewiring probability in per-mille). grid and torus round n up
  to a near-square factorization; cliques builds disjoint 4-cliques and
  needs n to be a positive multiple of 4. `families` tabulates the five
  connectivity-parameterized §V-B families (harary, pasted-tree,
  diamond, wheel, multipartite-wheel) at --k.

BEHAVIORS (for --byz):
  silent | crash@<round> | two-faced@<a>-<b> (silent toward nodes a..=b) |
  hide@<a>-<b> (hide own edges toward a..=b)

EXAMPLES:
  nectar-cli run scenarios/harary-cut.scn
  nectar-cli node --scenario scenarios/harary-cut.scn --node 2
  nectar-cli matrix --families harary-k4,grid --sizes 12,16 --trials 100
  nectar-cli matrix --casts honest,falsify-colluding-p800 --out matrix.json
  nectar-cli detect --topology harary-k4 --n 20 --t 2 --byz 3:silent
  nectar-cli detect --topology star --n 8 --t 1 --byz 0:two-faced@4-7
  nectar-cli detect --topology harary-k4 --n 20 --t 2 --epochs 5 --json
  nectar-cli detect --topology cliques --n 10000 --t 2 --runtime event
  nectar-cli detect --topology cliques --n 10000 --t 2 --runtime parallel:4
  nectar-cli detect --topology star --n 8 --t 1 --byz 0:silent --csv
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
            let mut out = MatrixArgs {
                spec: MatrixSpec::reduced(),
                json: false,
                csv: false,
                out: None,
                out_csv: None,
            };
            let rest: Vec<String> = it.cloned().collect();
            parse_flags(&rest, &["--json", "--csv"], |flag, value| {
                let spec = &mut out.spec;
                match (flag, value) {
                    ("--json", _) => out.json = true,
                    ("--csv", _) => out.csv = true,
                    ("--families", Some(v)) => {
                        spec.families =
                            v.split(',').map(FamilySpec::parse).collect::<Result<_, _>>()?;
                    }
                    ("--casts", Some(v)) => {
                        spec.casts = v.split(',').map(CastSpec::parse).collect::<Result<_, _>>()?;
                    }
                    ("--sizes", Some(v)) => {
                        spec.sizes = v
                            .split(',')
                            .map(|s| s.parse().map_err(|_| format!("bad --sizes value {s}")))
                            .collect::<Result<_, _>>()?;
                    }
                    ("--t", Some(v)) => set_usize(&mut spec.t, v, "--t")?,
                    ("--trials", Some(v)) => set_usize(&mut spec.trials, v, "--trials")?,
                    ("--runtime", Some(v)) => spec.runtime = v.parse()?,
                    ("--seed", Some(v)) => {
                        spec.base_seed = v.parse().map_err(|_| format!("bad --seed value {v}"))?;
                    }
                    ("--out", Some(v)) => out.out = Some(v.into()),
                    ("--out-csv", Some(v)) => out.out_csv = Some(v.into()),
                    (other, _) => return Err(format!("unknown flag {other}")),
                }
                Ok(())
            })?;
            if out.spec.trials == 0 {
                return Err("--trials must be at least 1".into());
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
            let (mut family, mut n) = (FamilySpec::Harary { k: 4 }, 20usize);
            let mut spec = ScenarioSpec::default();
            let (mut json, mut csv) = (false, false);
            let rest: Vec<String> = it.cloned().collect();
            parse_flags(&rest, &["--json", "--csv", "--profile"], |flag, value| {
                match (flag, value) {
                    ("--json", _) => json = true,
                    ("--csv", _) => csv = true,
                    ("--profile", _) => spec.profile = true,
                    ("--report", Some(v)) => spec.report = Some(v.into()),
                    // A path is `schedule @<file>`; anything else is the
                    // script itself, one inline `schedule` line per `;`.
                    ("--schedule", Some(v)) if std::path::Path::new(v).is_file() => {
                        spec.schedule_file = Some(v.into());
                    }
                    ("--schedule", Some(v)) => {
                        spec.schedule_lines = v
                            .split(';')
                            .map(|line| line.trim().to_string())
                            .filter(|line| !line.is_empty())
                            .collect();
                    }
                    ("--topology", Some(v)) => family = FamilySpec::parse(v)?,
                    ("--n", Some(v)) => set_usize(&mut n, v, "--n")?,
                    ("--t", Some(v)) => set_usize(&mut spec.t, v, "--t")?,
                    ("--epochs", Some(v)) => set_usize(&mut spec.epochs, v, "--epochs")?,
                    ("--runtime", Some(v)) => spec.runtime = Some(v.parse()?),
                    ("--seed", Some(v)) => {
                        spec.seed = v.parse().map_err(|_| format!("bad --seed value {v}"))?;
                    }
                    ("--byz", Some(v)) => spec.byzantine.push(parse_behavior(v)?),
                    (other, _) => return Err(format!("unknown flag {other}")),
                }
                Ok(())
            })?;
            if spec.epochs == 0 {
                return Err("--epochs must be at least 1".into());
            }
            if json && csv {
                return Err("--json and --csv are mutually exclusive".into());
            }
            spec.family = Some((family, n));
            Ok(Command::Detect(DetectArgs { spec, json, csv }))
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

/// Executes a command, returning the text to print.
///
/// # Errors
///
/// Returns a human-readable message on invalid parameters.
pub fn run(cmd: Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Families { k, n, csv } => {
            // One writer for the header and every row: CSV or aligned.
            let row = |cells: [String; 5]| {
                if csv {
                    cells.join(",") + "\n"
                } else {
                    let [family, nodes, edges, kappa, diameter] = cells;
                    format!("{family:<22} {nodes:>6} {edges:>6} {kappa:>9} {diameter:>9}\n")
                }
            };
            let mut out = row(["family", "nodes", "edges", "kappa", "diameter"].map(String::from));
            for spec in FamilySpec::paper_families(k) {
                let family = spec.name();
                match spec.build(n, 0) {
                    Ok(g) => {
                        let diameter = traversal::diameter(&g)
                            .map(|d| d.to_string())
                            .unwrap_or_else(|| if csv { "inf".into() } else { "∞".into() });
                        out += &row([
                            family,
                            g.node_count().to_string(),
                            g.edge_count().to_string(),
                            connectivity::vertex_connectivity(&g).to_string(),
                            diameter,
                        ]);
                    }
                    // CSV stays machine-readable: unconstructible families
                    // are simply omitted (stderr is for humans).
                    Err(e) if csv => eprintln!("[families] not constructible: {e}"),
                    Err(e) => out += &format!("{family:<22} (not constructible: {e})\n"),
                }
            }
            Ok(out)
        }
        Command::Node(args) => run_node(&args).map(|report| report.to_text()),
        Command::Run { file } => {
            let compiled = load_scenario(&file)?;
            match compiled.transport {
                TransportKind::Sync => {
                    let report = run_to_sinks(&compiled)?;
                    Ok(render_scenario_text(&file, &compiled, &report))
                }
                TransportKind::Loopback => {
                    let (decisions, metrics, ()) =
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
            let report = args.spec.run()?;
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
        Command::Detect(DetectArgs { spec, json, csv }) => {
            let compiled = spec.compile().map_err(|e| e.to_string())?;
            let report = run_to_sinks(&compiled)?;
            if json {
                Ok(report.to_json())
            } else if csv {
                Ok(report.to_csv())
            } else {
                let (family, n) = spec.family.as_ref().expect("parse always names a family");
                let source = format!("detect --topology {} --n {n}", family.name());
                Ok(render_scenario_text(&source, &compiled, &report))
            }
        }
    }
}

/// The in-process execution both front doors share: runs the compiled
/// plan on its runtime and feeds the `report` / `csv` sinks it declares.
fn run_to_sinks(compiled: &CompiledScenario) -> Result<RunReport, String> {
    let report = compiled.run_report();
    if let Some(path) = &compiled.report {
        report.save_json(path).map_err(|e| format!("writing report {path}: {e}"))?;
    }
    if let Some(path) = &compiled.csv {
        std::fs::write(path, report.to_csv()).map_err(|e| format!("writing CSV {path}: {e}"))?;
    }
    Ok(report)
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

/// `scenario:` header line: the scenario's name when it has one, then
/// where it came from (a file path, or the `detect` invocation).
fn scenario_title(source: &str, compiled: &CompiledScenario) -> String {
    if compiled.name.is_empty() {
        source.to_string()
    } else {
        format!("{} ({source})", compiled.name)
    }
}

/// The one human-readable report of an in-process run (`run` on the sync
/// transport, and `detect`): scenario provenance, topology facts, the last
/// epoch's verdict and traffic.
fn render_scenario_text(source: &str, compiled: &CompiledScenario, report: &RunReport) -> String {
    let kappa = connectivity::vertex_connectivity(&compiled.graph);
    let outcome = report.epochs.last().expect("at least one epoch runs");
    let mut out = String::new();
    writeln!(out, "scenario: {}", scenario_title(source, compiled))
        .expect("writing to String cannot fail");
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
            if v == Verdict::Partitionable && kappa > compiled.t {
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
            "profile:  disseminate {}µs | decide {}µs (last epoch, wall clock)",
            p.disseminate_micros, p.decide_micros
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
    writeln!(out, "scenario: {} over loopback channels", scenario_title(file, compiled))
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

/// The flag front door: every `nectar-cli ...` line of the help text's
/// EXAMPLES block parses, every name under FAMILIES parses and builds,
/// `detect`'s flags land on the `ScenarioSpec` field of the same name and
/// nothing else, and the inputs `detect` once validated by itself (an id
/// beyond the built torus, n = 0, t >= n, a node cast twice) are the
/// scenario compiler's errors; `matrix` refuses t >= n with the same
/// message, and `--runtime parallel:W` is the only spelling of a worker
/// count.
#[cfg(test)]
mod tests {
    use super::*;
    use nectar_protocol::{ByzantineBehavior, Runtime};

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    /// Parses a `detect` invocation down to its arguments.
    fn detect(flags: &[&str]) -> DetectArgs {
        let mut args = vec!["detect"];
        args.extend_from_slice(flags);
        match parse(&strs(&args)).unwrap() {
            Command::Detect(args) => args,
            other => panic!("expected detect, got {other:?}"),
        }
    }

    #[test]
    fn empty_args_yield_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&strs(&["help"])).unwrap(), Command::Help);
    }

    #[test]
    fn detect_args_are_parsed() {
        let args = detect(&[
            "--topology",
            "cycle",
            "--n",
            "8",
            "--t",
            "2",
            "--seed",
            "7",
            "--byz",
            "3:silent",
            "--runtime",
            "event",
        ]);
        // Every flag lands on the spec field of the same name — and on
        // nothing else: the rest is the scenario layer's defaults.
        let mut expected = ScenarioSpec::default();
        expected.family = Some((FamilySpec::Cycle, 8));
        (expected.t, expected.seed) = (2, 7);
        expected.byzantine = vec![(3, ByzantineBehavior::Silent)];
        expected.runtime = Some(Runtime::Event);
        assert_eq!(args, DetectArgs { spec: expected, json: false, csv: false });
        // No flags at all: the documented defaults, one more spec.
        let mut bare = ScenarioSpec::default();
        bare.family = Some((FamilySpec::Harary { k: 4 }, 20));
        assert_eq!(detect(&[]).spec, bare);
        assert_eq!(detect(&["--topology", "harary-k6"]).spec.family.unwrap().0.name(), "harary-k6");
    }

    #[test]
    fn runtime_flag_selects_the_engine() {
        for (value, expected) in
            [("sync", Runtime::Sync), ("event", Runtime::Event), ("parallel", Runtime::parallel())]
        {
            assert_eq!(detect(&["--runtime", value]).spec.runtime, Some(expected));
        }
        // Default is the scenario layer's (the deterministic engine); bad
        // names error out.
        assert_eq!(detect(&[]).spec.runtime, None);
        assert!(parse(&strs(&["detect", "--runtime", "warp"])).is_err());
        assert!(parse(&strs(&["detect", "--runtime", "threaded"])).is_err());
        assert!(parse(&strs(&["detect", "--threaded"])).is_err());
    }

    #[test]
    fn runtime_flag_alone_sizes_the_parallel_pool() {
        // `parallel:W` is the one spelling of the pool size, as in a .scn
        // file; the bare name matches the machine (workers: 0).
        assert_eq!(
            detect(&["--runtime", "parallel:4"]).spec.runtime,
            Some(Runtime::Parallel { workers: 4 })
        );
        assert_eq!(
            detect(&["--runtime", "parallel"]).spec.runtime,
            Some(Runtime::Parallel { workers: 0 })
        );
        // There is no second spelling that could override it.
        for command in ["detect", "matrix"] {
            let args = strs(&[command, "--runtime", "parallel:4", "--workers", "2"]);
            assert_eq!(parse(&args).unwrap_err(), "unknown flag --workers");
        }
    }

    #[test]
    fn detect_on_the_event_runtime_matches_sync_output() {
        // The decision stream is the runtime-independent output (text and
        // JSON name the engine that ran).
        let run_with =
            |rt: &str| run(Command::Detect(detect(&["--runtime", rt, "--csv"]))).unwrap();
        assert_eq!(run_with("sync"), run_with("event"));
        assert_eq!(run_with("sync"), run_with("parallel"));
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
                assert_eq!(args.spec.schedule_lines, vec!["drop 1 0 1", "drop 1 3 4"]);
            }
            other => panic!("expected detect, got {other:?}"),
        }
        let out = run(cmd).unwrap();
        assert!(out.contains("verdict:  PARTITIONABLE (confirmed partition: true)"), "{out}");
        // The ring itself is 2-connected: the verdict is about the view.
        assert!(
            out.contains("note:     perceived connectivity dropped to ≤ t; real κ = 2"),
            "{out}"
        );
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
        match &cmd {
            Command::Detect(args) => {
                assert_eq!(args.spec.schedule_file.as_deref(), sched_path.to_str());
            }
            other => panic!("expected detect, got {other:?}"),
        }
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
        // without a matching drop all surface as the scenario compiler's
        // messages.
        assert_eq!(run_sched("drop one zero").unwrap_err(), "drop takes 3 argument(s), got 2");
        assert!(run_sched("drop 1 0 3").unwrap_err().contains("(0, 3) is not a base-graph edge"));
        assert!(run_sched("heal 2 0 1").unwrap_err().contains("without a matching drop"));
    }

    #[test]
    fn matrix_args_are_parsed_with_reduced_defaults() {
        match parse(&strs(&["matrix"])).unwrap() {
            Command::Matrix(args) => assert_eq!(args.spec, MatrixSpec::reduced()),
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
            "parallel:3",
        ]))
        .unwrap()
        {
            Command::Matrix(args) => {
                let expected = MatrixSpec {
                    families: vec![FamilySpec::Harary { k: 4 }, FamilySpec::Grid],
                    sizes: vec![8, 12],
                    casts: vec![CastSpec::Honest, CastSpec::SilentCut],
                    t: 1,
                    trials: 5,
                    runtime: Runtime::Parallel { workers: 3 },
                    ..MatrixSpec::reduced()
                };
                assert_eq!(args.spec, expected);
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
        assert_eq!(csv, report.to_csv());
        // Unknown family and cast names surface as messages, not panics.
        assert!(parse(&strs(&["matrix", "--families", "klein-bottle"])).is_err());
        assert!(parse(&strs(&["matrix", "--casts", "gaslight"])).is_err());
        // A budget that casts every node is the scenario compiler's error,
        // as under `detect` and `run`, before any trial runs.
        let all_cast =
            ["matrix", "--families", "cycle", "--sizes", "3", "--t", "5", "--trials", "1"];
        assert_eq!(
            run(parse(&strs(&all_cast)).unwrap()).unwrap_err(),
            "t = 5 needs fewer than the n = 3 nodes"
        );
        assert_eq!(
            run(parse(&strs(&["detect", "--topology", "cycle", "--n", "3", "--t", "5"])).unwrap())
                .unwrap_err(),
            "t = 5 needs fewer than the n = 3 nodes"
        );
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
        assert_eq!(csv, report.to_csv());
    }

    #[test]
    fn byz_specs_cover_all_behaviors() {
        // `--byz` is the scenario file's `byz` line: one grammar, and
        // repeated flags accumulate in order.
        let cast = detect(&[
            "--byz",
            "3:silent",
            "--byz",
            "1:crash@2",
            "--byz",
            "0:two-faced@4-6",
            "--byz",
            "2:hide@1-2",
        ])
        .spec
        .byzantine;
        assert_eq!(
            cast,
            vec![
                (3, ByzantineBehavior::Silent),
                (1, ByzantineBehavior::CrashAfter { round: 2 }),
                (0, ByzantineBehavior::TwoFaced { silent_toward: [4, 5, 6].into() }),
                (2, ByzantineBehavior::HideEdges { toward: [1, 2].into() }),
            ]
        );
        // A range past the u16 id space is refused before it is built.
        for bad in [
            "nonsense",
            "0:warp@1-2",
            "0:two-faced@6-4",
            "0:two-faced@0-100000000",
            "0:hide@0-10000000",
        ] {
            assert!(parse(&strs(&["detect", "--byz", bad])).is_err(), "{bad}");
        }
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
        // Retired flags: `--k` is part of the family name, `--per-node` is
        // what `--csv` prints.
        assert_eq!(parse(&strs(&["detect", "--k", "4"])).unwrap_err(), "unknown flag --k");
        assert_eq!(
            parse(&strs(&["detect", "--per-node", "--csv"])).unwrap_err(),
            "unknown flag --per-node"
        );
        assert!(parse(&strs(&["detect", "--topology", "drone"]))
            .unwrap_err()
            .contains("two-cluster"));
    }

    #[test]
    fn json_and_epochs_flags_are_parsed() {
        let args = detect(&["--topology", "cycle", "--n", "6", "--json", "--epochs", "3"]);
        assert!(args.json);
        assert_eq!(args.spec.epochs, 3);
        // Defaults: plain text, one epoch.
        let args = detect(&[]);
        assert!(!args.json);
        assert_eq!(args.spec.epochs, 1);
    }

    #[test]
    fn detect_json_reports_verdict_and_oracle_stats() {
        let flags = ["--topology", "cycle", "--n", "8", "--t", "1", "--epochs", "2", "--json"];
        let out = run(Command::Detect(detect(&flags))).unwrap();
        // `--json` is `RunReport::to_json()`: the document its reader reads.
        let report = RunReport::from_json(&out).expect("--json prints a RunReport");
        assert_eq!(report.unanimous_verdict(), Some(Verdict::NotPartitionable));
        assert_eq!((report.true_connectivity(), report.epochs.len()), (2, 2));
        // Epoch 1 re-runs the same topology: every query is a cache hit.
        let oracle = &report.epochs[1].oracle;
        assert_eq!((oracle.queries, oracle.cache_hits), (8, 8));
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
            Command::Detect(args) => assert!(args.spec.profile),
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
        assert!(out.contains("epochs:   3 — oracle served 17/18 decisions from cache"), "{out}");
    }

    #[test]
    fn usage_families_all_parse_and_build() {
        // The vocabulary lines of the FAMILIES section are its `|` lists.
        let section = USAGE.split("\nFAMILIES").nth(1).expect("USAGE has a FAMILIES section");
        let section = section.split("\n\n").next().unwrap();
        let names: Vec<&str> = section
            .lines()
            .filter(|line| line.contains('|'))
            .flat_map(|line| line.split('|'))
            .map(|name| name.split('[').next().unwrap().trim())
            .filter(|name| !name.is_empty())
            .collect();
        assert_eq!(names.len(), 16, "{names:?}");
        let unknown = FamilySpec::parse("klein-bottle").unwrap_err();
        for name in names {
            let family = FamilySpec::parse(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            let graph = family.build(24, 1).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(graph.node_count() >= 24, "{name}");
            // The parser's own vocabulary line names it too.
            assert!(unknown.contains(name), "{name} missing from: {unknown}");
        }
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
        assert_eq!(lines.len(), 1 + 5, "the five §V-B families: {out}");
        assert!(lines.iter().any(|l| l.starts_with("harary-k4,24,48,4,")), "{out}");
    }

    #[test]
    fn out_of_range_byzantine_node_errors() {
        let cmd = parse(&strs(&["detect", "--topology", "cycle", "--n", "5", "--byz", "9:silent"]))
            .unwrap();
        assert!(run(cmd).is_err());
    }

    #[test]
    fn drifted_detect_invocations_are_compile_errors() {
        // Inputs `detect`'s own validation used to get wrong (a panic on
        // an id beyond the torus that was built, a bogus DISAGREEMENT
        // verdict, two silent accepts): each is refused with the scenario
        // compiler's reason.
        for (flags, reason) in [
            // Ids are checked against the graph that was built (torus
            // rounds 10 up to 3 × 4), not against --n.
            (
                &["--topology", "torus", "--n", "10", "--byz", "12:silent"][..],
                "byzantine node 12 is out of range for 12 nodes",
            ),
            (&["--topology", "cycle", "--n", "0"][..], "t = 1 needs fewer than the n = 0 nodes"),
            (
                &["--topology", "cycle", "--n", "6", "--t", "9"][..],
                "t = 9 needs fewer than the n = 6 nodes",
            ),
            (
                &["--topology", "cycle", "--n", "6", "--byz", "3:silent", "--byz", "3:silent"][..],
                "byzantine node 3 is cast twice",
            ),
            (
                &["--n", "20", "--byz", "0:two-faced@1-500"][..],
                "byzantine node 0 names node 500, out of range for 20 nodes",
            ),
            // Node 65 536 has no `u16` wire id (this one panicked).
            (
                &["--topology", "cliques", "--n", "65540", "--t", "1"][..],
                "65540 nodes exceed the 65536-node limit (node ids are u16 on the wire)",
            ),
        ] {
            let err = run(Command::Detect(detect(flags))).unwrap_err();
            assert_eq!(err, reason, "{flags:?}");
        }
        // The invocation that panicked (`--byz 9` passed the `< --n` check,
        // the torus had 9 nodes) names a node of the 12-node torus now.
        let out = run(Command::Detect(detect(&[
            "--topology",
            "torus",
            "--n",
            "10",
            "--byz",
            "9:silent",
        ])))
        .unwrap();
        assert!(out.contains("topology: n = 12 "), "{out}");
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
        // Every EXAMPLES line is an invocation `parse` accepts (single
        // quotes group words, as in a shell).
        let examples = USAGE.split("\nEXAMPLES:\n").nth(1).expect("USAGE has an EXAMPLES block");
        let mut checked = 0;
        for line in examples.lines() {
            let line = line.trim().strip_prefix("nectar-cli ").expect("an invocation per line");
            let mut args: Vec<String> = Vec::new();
            for (i, chunk) in line.split('\'').enumerate() {
                if i % 2 == 1 {
                    args.push(chunk.to_string());
                } else {
                    args.extend(chunk.split_whitespace().map(str::to_string));
                }
            }
            assert!(parse(&args).is_ok(), "USAGE example does not parse: {line}");
            checked += 1;
        }
        assert!(checked >= 10, "EXAMPLES block went missing");
    }
}
