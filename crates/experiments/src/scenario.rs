//! The scenario layer: one declarative file describing a whole NECTAR
//! experiment, compiled into a frozen plan that lowers onto the existing
//! execution machinery.
//!
//! Every execution axis the repo has grown — three runtimes, the
//! topology/attack zoos, [`TopologySchedule`]s, mobility generators, the
//! socket fleet — is reachable from one text format, read by the same
//! [`text`] reader as schedule scripts and node
//! reports (`#` comments, one keyword and its words per line; no serde):
//!
//! ```text
//! # scenarios/demo.scn
//! name      harary cut demo
//! topology  harary-k2 16      # FamilySpec vocabulary, or nodes + edge lines
//! t         2
//! seed      7
//! cast      silent-cut        # CastSpec vocabulary; or per-node byz lines
//! epochs    2
//! runtime   event
//! schedule  drop 2 0 1        # inline, or `schedule @file.sched`
//! report    out/demo.json
//! ```
//!
//! The flow is **parse → compile → lower**. [`ScenarioSpec::parse`] maps
//! text to a plain struct, reading each directive once, at its own line,
//! and rejecting malformed and duplicate directives with `file:line`
//! context ([`ScenarioError`]); an inline `schedule` line is read there by
//! the schedule grammar's own step, [`TopologySchedule::directive`]. One
//! reader, [`ScenarioSpec::directive`], reads `.scn` lines and
//! `nectar-cli detect`'s flags alike: each flag is the line of its name.
//! [`ScenarioSpec::compile`] is the one home of every cross-field rule —
//! directives that exclude each other, cast placements against the
//! topology, the schedule against the base graph, transport × runtime
//! legality — and freezes a [`CompiledScenario`]. Lowering then reuses the
//! seams that already exist instead of a parallel execution path: the
//! sync-transport plan becomes a `Scenario` plus `Simulation` builder
//! calls ([`CompiledScenario::run_report`]), the loopback plan becomes
//! `run_over_loopback`, and a UDS/TCP fleet node hands the same
//! `Scenario` to `run_scenario_node` — so an entire multi-process fleet
//! shares one scenario file instead of re-deriving seeded state from
//! per-process flags. A new scenario key must lower onto an existing
//! builder knob (`docs/DETERMINISM.md` §4); the format adds reach, never
//! a second semantics.
//!
//! Dynamic networks come from the [`mobility`](crate::mobility) presets
//! (`mobility waypoint …` / `churn …` / `split-heal …`), which emit
//! schedules as pure seeded functions — a 10k-node random-waypoint swarm
//! is three lines of config.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nectar_graph::Graph;
use nectar_net::text::{self, Line, TextError};
use nectar_net::{
    run_over_loopback, CompiledSchedule, Metrics, NodeId, ScheduleError, TopologySchedule,
    TransportError,
};
use nectar_protocol::{
    ByzantineBehavior, ConnectivityOracle, Decision, RunReport, Runtime, Scenario, MAX_NODES,
};

use crate::matrix::{over_node_limit, CastSpec, FamilySpec};
use crate::mobility::MobilitySpec;

/// Default Byzantine budget.
const DEFAULT_T: usize = 1;
/// Default seed (keys, placements, generators).
const DEFAULT_SEED: u64 = 42;
/// Default TCP base port (node `i` listens on `base + i`).
const DEFAULT_BASE_PORT: u16 = 4600;
/// Default socket connect/recv timeout.
const DEFAULT_TIMEOUT_MS: u64 = 30_000;

/// An error in a scenario document, carrying its source position. The
/// Display form is `file:line: reason` (degrading gracefully when either
/// part is unknown), so compile errors from scenario files point at the
/// offending directive, not just at "the file".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Originating file (empty when parsed from a bare string).
    pub file: String,
    /// 1-based line of the offending directive; 0 when the error is about
    /// the document as a whole.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.file.is_empty(), self.line) {
            (false, 0) => write!(f, "{}: {}", self.file, self.reason),
            (false, line) => write!(f, "{}:{}: {}", self.file, line, self.reason),
            (true, 0) => f.write_str(&self.reason),
            (true, line) => write!(f, "line {}: {}", line, self.reason),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// How the compiled scenario executes: in-process on a runtime engine, or
/// as a fleet over a transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process deterministic execution on one of the three runtimes —
    /// the only transport that supports epochs, schedules and report
    /// sinks.
    #[default]
    Sync,
    /// In-process loopback channels behind the real wire codec
    /// (`run_over_loopback`): the transport stack without processes.
    Loopback,
    /// One OS process per node over Unix domain sockets.
    Uds,
    /// One OS process per node over TCP.
    Tcp,
}

impl TransportKind {
    /// Stable identifier used in scenario files.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Sync => "sync",
            TransportKind::Loopback => "loopback",
            TransportKind::Uds => "uds",
            TransportKind::Tcp => "tcp",
        }
    }

    /// Parses the `transport` directive vocabulary.
    ///
    /// # Errors
    ///
    /// Returns a message listing the vocabulary on unknown names.
    pub fn parse(name: &str) -> Result<TransportKind, String> {
        match name {
            "sync" => Ok(TransportKind::Sync),
            "loopback" => Ok(TransportKind::Loopback),
            "uds" => Ok(TransportKind::Uds),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(format!("unknown transport {other}; expected sync, loopback, uds or tcp")),
        }
    }
}

/// Source positions of a parsed spec — which file it came from and which
/// line each directive sat on — so [`ScenarioSpec::compile`] can anchor
/// cross-field errors at the offending directive.
#[derive(Debug, Clone, Default, PartialEq)]
struct SourceMap {
    file: String,
    dir: PathBuf,
    line_of: BTreeMap<String, usize>,
    edge_lines: Vec<usize>,
    byz_lines: Vec<usize>,
    /// The first inline `schedule` line: where the schedule's
    /// compile-stage errors point.
    schedule_line: Option<usize>,
}

/// A parsed-but-not-yet-validated scenario document: one field per
/// directive, defaults filled in. Cross-field constraints are checked by
/// [`compile`](Self::compile), not here, so a spec can be inspected or
/// [`reduced`](Self::reduced) for CI before committing to a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable label (free text, informational).
    pub name: String,
    /// Topology by family: `(spec, n)` from `topology <family> <n>`.
    pub family: Option<(FamilySpec, usize)>,
    /// Explicit topology size, from `nodes <n>` (paired with `edge` lines).
    pub nodes: Option<usize>,
    /// Explicit edge list, from repeated `edge <u> <v>` lines.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Byzantine budget `t`.
    pub t: usize,
    /// Seed for keys, placements and generators.
    pub seed: u64,
    /// Whole-cast placement from the attack zoo (`cast <name>`); mutually
    /// exclusive with per-node `byz` lines.
    pub cast: Option<CastSpec>,
    /// Per-node behaviors from repeated `byz <node>:<behavior>` lines.
    pub byzantine: Vec<(NodeId, ByzantineBehavior)>,
    /// Monitoring epochs (sync transport only).
    pub epochs: usize,
    /// Requested runtime; `None` means the sync engine. Parsed eagerly so
    /// a bad name errors at its line.
    pub runtime: Option<Runtime>,
    /// Schedule from a sibling file (`schedule @<path>`).
    pub schedule_file: Option<String>,
    /// The inline schedule: repeated `schedule <directive…>` lines, each
    /// read by [`TopologySchedule::directive`] at its own line.
    pub schedule: Option<TopologySchedule>,
    /// Mobility preset generating the schedule (and, for waypoint, the
    /// topology); mutually exclusive with explicit schedules.
    pub mobility: Option<MobilitySpec>,
    /// Execution transport.
    pub transport: TransportKind,
    /// Socket directory for the UDS fleet (`sock-dir <path>`).
    pub sock_dir: Option<String>,
    /// TCP base port (node `i` listens on `base + i`).
    pub base_port: u16,
    /// Socket connect timeout.
    pub connect_timeout_ms: u64,
    /// Socket receive timeout.
    pub recv_timeout_ms: u64,
    /// JSON report sink (`report <path>`, sync transport only).
    pub report: Option<String>,
    /// CSV decisions sink (`csv <path>`, sync transport only).
    pub csv: Option<String>,
    /// Record per-phase wall-clock profiles (`profile`).
    pub profile: bool,
    src: SourceMap,
}

impl Default for ScenarioSpec {
    fn default() -> ScenarioSpec {
        ScenarioSpec {
            name: String::new(),
            family: None,
            nodes: None,
            edges: Vec::new(),
            t: DEFAULT_T,
            seed: DEFAULT_SEED,
            cast: None,
            byzantine: Vec::new(),
            epochs: 1,
            runtime: None,
            schedule_file: None,
            schedule: None,
            mobility: None,
            transport: TransportKind::Sync,
            sock_dir: None,
            base_port: DEFAULT_BASE_PORT,
            connect_timeout_ms: DEFAULT_TIMEOUT_MS,
            recv_timeout_ms: DEFAULT_TIMEOUT_MS,
            report: None,
            csv: None,
            profile: false,
            src: SourceMap::default(),
        }
    }
}

impl ScenarioSpec {
    /// Reads and parses a scenario file. The file's directory becomes the
    /// base for `schedule @<path>` references.
    ///
    /// # Errors
    ///
    /// I/O failures and every [`parse`](Self::parse) error, with the path
    /// as the error's file.
    pub fn load(path: &Path) -> Result<ScenarioSpec, ScenarioError> {
        let file = path.display().to_string();
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError {
            file: file.clone(),
            line: 0,
            reason: format!("cannot read scenario file: {e}"),
        })?;
        let mut spec = ScenarioSpec::parse(&text, &file)?;
        spec.src.dir = path.parent().unwrap_or_else(|| Path::new("")).to_path_buf();
        Ok(spec)
    }

    /// Parses a scenario document. `file` labels errors (pass `""` for
    /// in-memory text). One directive per line in the shared
    /// [`text`] grammar (blank lines and `#` comments are
    /// skipped); single-valued directives may appear at most once; `edge`,
    /// `byz` and inline `schedule` lines repeat. Directives that exclude
    /// each other are [`compile`](Self::compile)'s to refuse.
    ///
    /// # Errors
    ///
    /// A [`ScenarioError`] at the first malformed or duplicate directive.
    pub fn parse(text: &str, file: &str) -> Result<ScenarioSpec, ScenarioError> {
        let mut spec = ScenarioSpec {
            src: SourceMap { file: file.into(), ..Default::default() },
            ..Default::default()
        };
        for line in text::lines(text) {
            spec.directive(&line).map_err(|e| ScenarioError {
                file: file.into(),
                line: e.line,
                reason: e.reason,
            })?;
        }
        Ok(spec)
    }

    /// Reads one directive line into the spec: the one reader behind
    /// [`parse`](Self::parse)'s lines and `nectar-cli detect`'s flags,
    /// which become the lines of the same name. A single-valued directive
    /// already read is refused as a duplicate, naming the line it was
    /// first read at; `edge`, `byz` and inline `schedule` lines add up.
    ///
    /// # Errors
    ///
    /// A [`TextError`] at `line` when it is malformed or a duplicate.
    pub fn directive(&mut self, line: &Line) -> Result<(), TextError> {
        let rest = line.args.as_slice();
        let bad = |reason: String| line.error(reason);
        let arg = || line.args::<1>().map(|[word]| word);
        let repeats = match line.keyword {
            "edge" | "byz" => true,
            "schedule" => !rest.first().is_some_and(|w| w.starts_with('@')),
            _ => false,
        };
        if !repeats {
            if let Some(first) = self.src.line_of.insert(line.keyword.into(), line.number) {
                let reason =
                    format!("duplicate {} directive (first at line {first})", line.keyword);
                return Err(line.error(reason));
            }
        }
        match line.keyword {
            "name" if rest.is_empty() => return Err(line.error("name needs a value")),
            "name" => self.name = rest.join(" "),
            "topology" => {
                let [family, n] = line.args()?;
                let family = FamilySpec::parse(family).map_err(bad)?;
                self.family = Some((family, line.num(n, "topology size")?));
            }
            "nodes" => {
                let [n] = line.args()?;
                self.nodes = Some(line.num(n, "node count")?);
            }
            "edge" => {
                let [u, v] = line.args()?;
                self.edges.push((line.num(u, "node id")?, line.num(v, "node id")?));
                self.src.edge_lines.push(line.number);
            }
            "t" => self.t = line.num(arg()?, "t")?,
            "seed" => self.seed = line.num(arg()?, "seed")?,
            "cast" => self.cast = Some(CastSpec::parse(arg()?).map_err(bad)?),
            "byz" => {
                self.byzantine.push(parse_behavior(arg()?).map_err(bad)?);
                self.src.byz_lines.push(line.number);
            }
            "epochs" => match line.num(arg()?, "epoch count")? {
                0 => return Err(line.error("epochs must be at least 1")),
                epochs => self.epochs = epochs,
            },
            // Parsed eagerly: a bad runtime name errors here, at its line,
            // not later out of context.
            "runtime" => self.runtime = Some(arg()?.parse().map_err(bad)?),
            "schedule" => match rest.first().and_then(|w| w.strip_prefix('@')) {
                Some(path) => {
                    line.args::<1>()?;
                    if path.is_empty() {
                        return Err(line.error("schedule @ needs a file path"));
                    }
                    self.schedule_file = Some(path.to_string());
                }
                None => {
                    let Some((&keyword, args)) = rest.split_first() else {
                        return Err(line.error("schedule needs a directive or @file"));
                    };
                    let inline = Line { number: line.number, keyword, args: args.to_vec() };
                    let schedule = self.schedule.take().unwrap_or_default();
                    self.schedule = Some(schedule.directive(&inline)?);
                    self.src.schedule_line.get_or_insert(line.number);
                }
            },
            "mobility" => self.mobility = Some(MobilitySpec::parse(rest).map_err(bad)?),
            "transport" => self.transport = TransportKind::parse(arg()?).map_err(bad)?,
            "sock-dir" => self.sock_dir = Some(arg()?.to_string()),
            "base-port" => self.base_port = line.num(arg()?, "base port")?,
            "connect-timeout-ms" => {
                self.connect_timeout_ms = line.num(arg()?, "timeout")?;
            }
            "recv-timeout-ms" => self.recv_timeout_ms = line.num(arg()?, "timeout")?,
            "report" => self.report = Some(arg()?.to_string()),
            "csv" => self.csv = Some(arg()?.to_string()),
            "profile" => {
                line.args::<0>()?;
                self.profile = true;
            }
            other => return Err(line.error(format!("unknown directive `{other}`"))),
        }
        Ok(())
    }

    /// A CI-sized copy: family and waypoint sizes clamped to `max_n`
    /// (rounds to 8), epochs to 2, and all non-sync execution stripped
    /// (runtime, transport, sockets, sinks, profiling) so the result runs
    /// in-process on the sync engine. Explicit `nodes`/`edge` topologies
    /// and explicit schedules are left alone — they are already
    /// author-sized and node ids in them cannot be re-derived.
    pub fn reduced(&self, max_n: usize) -> ScenarioSpec {
        let mut spec = self.clone();
        if let Some((_, n)) = &mut spec.family {
            *n = (*n).min(max_n);
        }
        if let Some(MobilitySpec::Waypoint { nodes, rounds, .. }) = &mut spec.mobility {
            *nodes = (*nodes).min(max_n);
            *rounds = (*rounds).min(8);
        }
        spec.t = spec.t.min(max_n.saturating_sub(1));
        spec.epochs = spec.epochs.min(2);
        spec.runtime = None;
        spec.transport = TransportKind::Sync;
        spec.sock_dir = None;
        spec.base_port = DEFAULT_BASE_PORT;
        spec.connect_timeout_ms = DEFAULT_TIMEOUT_MS;
        spec.recv_timeout_ms = DEFAULT_TIMEOUT_MS;
        spec.report = None;
        spec.csv = None;
        spec.profile = false;
        spec
    }

    /// Validates every cross-field constraint and freezes the spec into
    /// an executable [`CompiledScenario`]: the topology is built (or
    /// generated by waypoint mobility), the cast is placed on it, the
    /// schedule is read from its `@file` or generated and compiled against
    /// the base graph, and transport × runtime legality is checked. This is
    /// the one place cross-field rules live, so a spec built field by
    /// field gets exactly the checks a parsed file does.
    ///
    /// # Errors
    ///
    /// A [`ScenarioError`] anchored at the offending directive's line.
    pub fn compile(&self) -> Result<CompiledScenario, ScenarioError> {
        // Inline schedule lines repeat: they are anchored at the first.
        let at = |key: &'static str, reason: String| ScenarioError {
            file: self.src.file.clone(),
            line: self
                .src
                .line_of
                .get(key)
                .copied()
                .or(self.src.schedule_line.filter(|_| key == "schedule"))
                .unwrap_or(0),
            reason,
        };
        let whole = |reason: String| ScenarioError { file: self.src.file.clone(), line: 0, reason };

        // 0. Before anything is built: directives that exclude each other,
        // each pair refused once, at the line of the directive it names
        // first.
        let explicit_schedule = self.schedule_file.is_some() || self.schedule.is_some();
        let exclusions = [
            (
                "topology",
                self.family.is_some() && (self.nodes.is_some() || !self.edges.is_empty()),
                "topology conflicts with an explicit nodes/edge topology",
            ),
            (
                "cast",
                self.cast.is_some() && !self.byzantine.is_empty(),
                "cast and byz are mutually exclusive",
            ),
            (
                "mobility",
                self.mobility.is_some() && explicit_schedule,
                "mobility and an explicit schedule are mutually exclusive",
            ),
            (
                "schedule",
                self.schedule_file.is_some() && self.schedule.is_some(),
                "cannot mix an @file schedule with inline schedule lines",
            ),
        ];
        if let Some(&(key, _, reason)) = exclusions.iter().find(|(_, clash, _)| *clash) {
            return Err(at(key, reason.into()));
        }
        // Node ids are `u16` on the wire: refuse a larger fleet on the
        // directive that sized it, before anything that large is built.
        let declared = match (&self.family, self.nodes, &self.mobility) {
            (Some((_, n)), _, _) => Some(("topology", *n)),
            (None, Some(n), _) => Some(("nodes", n)),
            (None, None, Some(MobilitySpec::Waypoint { nodes, .. })) => Some(("mobility", *nodes)),
            _ => None,
        };
        if let Some((key, n)) = declared.filter(|&(_, n)| n > MAX_NODES) {
            return Err(at(key, over_node_limit(n)));
        }

        // 1. Topology — declared, explicit, or generated by waypoint.
        let supplies = self.mobility.as_ref().is_some_and(MobilitySpec::supplies_topology);
        let mut generated_schedule = None;
        let graph = if supplies {
            if self.family.is_some() || self.nodes.is_some() || !self.edges.is_empty() {
                return Err(at(
                    "mobility",
                    "waypoint mobility generates its own topology; remove the topology/nodes/edge \
                     directives"
                        .into(),
                ));
            }
            let mobility = self.mobility.as_ref().expect("supplies_topology implies mobility");
            let (graph, schedule) =
                mobility.generate(None, self.seed).map_err(|e| at("mobility", e))?;
            generated_schedule = Some(schedule);
            graph.expect("waypoint supplies a topology")
        } else {
            match (&self.family, self.nodes) {
                (Some((family, n)), _) => {
                    family.build(*n, self.seed).map_err(|e| at("topology", e))?
                }
                (None, Some(n)) => {
                    let mut graph = Graph::empty(n);
                    for (i, &(u, v)) in self.edges.iter().enumerate() {
                        let line = self.src.edge_lines.get(i).copied().unwrap_or(0);
                        let fail = |reason: String| ScenarioError {
                            file: self.src.file.clone(),
                            line,
                            reason,
                        };
                        if u >= n || v >= n {
                            return Err(fail(format!(
                                "edge ({u}, {v}) is out of range for {n} nodes"
                            )));
                        }
                        graph.add_edge(u, v).map_err(|e| fail(e.to_string()))?;
                    }
                    graph
                }
                (None, None) => {
                    if self.edges.is_empty() {
                        return Err(whole(
                            "a scenario needs a topology (a topology directive, nodes + edge \
                             lines, or waypoint mobility)"
                                .into(),
                        ));
                    }
                    return Err(at("nodes", "edge directives need a nodes directive".into()));
                }
            }
        };
        let n = graph.node_count();

        // 2. Budget and cast placement against the topology.
        if self.t >= n {
            return Err(at("t", format!("t = {} needs fewer than the n = {n} nodes", self.t)));
        }
        let mut seen_nodes = BTreeSet::new();
        for (i, &(node, ref behavior)) in self.byzantine.iter().enumerate() {
            let line = self.src.byz_lines.get(i).copied().unwrap_or(0);
            let fail = |reason: String| ScenarioError { file: self.src.file.clone(), line, reason };
            if node >= n {
                return Err(fail(format!("byzantine node {node} is out of range for {n} nodes")));
            }
            if let ByzantineBehavior::TwoFaced { silent_toward: range }
            | ByzantineBehavior::HideEdges { toward: range } = behavior
            {
                if let Some(&far) = range.last().filter(|&&far| far >= n) {
                    return Err(fail(format!(
                        "byzantine node {node} names node {far}, out of range for {n} nodes"
                    )));
                }
            }
            if !seen_nodes.insert(node) {
                return Err(fail(format!("byzantine node {node} is cast twice")));
            }
        }
        let cast = match &self.cast {
            Some(cast) => cast.cast(&graph, self.t, self.seed),
            None => self.byzantine.clone(),
        };

        // 3. Schedule — generated by mobility, read from @file, or inline.
        // Cross-field (Invalid) errors anchor at the directive that
        // introduced the schedule: the mobility line, the @file line, or
        // the first inline schedule line.
        let schedule_anchor = |reason: String| {
            at(
                if self.src.line_of.contains_key("mobility") { "mobility" } else { "schedule" },
                reason,
            )
        };
        let schedule = if let Some(schedule) = generated_schedule {
            Some(schedule)
        } else if let Some(mobility) = &self.mobility {
            let (_, schedule) =
                mobility.generate(Some(&graph), self.seed).map_err(|e| at("mobility", e))?;
            Some(schedule)
        } else if let Some(path) = &self.schedule_file {
            let resolved = self.src.dir.join(path);
            let text = std::fs::read_to_string(&resolved)
                .map_err(|e| at("schedule", format!("cannot read schedule file {path}: {e}")))?;
            // Errors inside the referenced file carry *its* path and
            // lines, not the scenario's.
            Some(TopologySchedule::parse(&text).map_err(|e| match e {
                ScheduleError::Parse { line, reason } => {
                    ScenarioError { file: path.clone(), line, reason }
                }
                other => ScenarioError { file: path.clone(), line: 0, reason: other.to_string() },
            })?)
        } else {
            self.schedule.clone()
        };
        // Validating the schedule is compiling it: keep the compilation,
        // so a run does not compile the same script again.
        let compiled_schedule = match &schedule {
            Some(schedule) => Some(Arc::new(
                schedule.compile(&graph).map_err(|e| schedule_anchor(e.to_string()))?,
            )),
            None => None,
        };

        // 4. Transport × everything-else legality: epochs, runtimes,
        // schedules and sinks are in-process (sync transport) concepts; a
        // fleet node is its own runtime and writes no fleet-wide report.
        if self.transport != TransportKind::Sync {
            let requires_sync: &[(&'static str, bool)] = &[
                ("runtime", self.runtime.is_some()),
                ("epochs", self.epochs != 1),
                ("schedule", explicit_schedule),
                ("mobility", self.mobility.is_some()),
                ("report", self.report.is_some()),
                ("csv", self.csv.is_some()),
                ("profile", self.profile),
            ];
            for &(key, present) in requires_sync {
                if present {
                    return Err(at(
                        key,
                        format!(
                            "{key} requires the sync transport (transport is {})",
                            self.transport.name()
                        ),
                    ));
                }
            }
        }
        if self.sock_dir.is_some() && self.transport != TransportKind::Uds {
            return Err(at("sock-dir", "sock-dir applies to the uds transport only".into()));
        }
        if self.base_port != DEFAULT_BASE_PORT && self.transport != TransportKind::Tcp {
            return Err(at("base-port", "base-port applies to the tcp transport only".into()));
        }
        let socketed = matches!(self.transport, TransportKind::Uds | TransportKind::Tcp);
        if !socketed
            && (self.connect_timeout_ms != DEFAULT_TIMEOUT_MS
                || self.recv_timeout_ms != DEFAULT_TIMEOUT_MS)
        {
            let key = if self.connect_timeout_ms != DEFAULT_TIMEOUT_MS {
                "connect-timeout-ms"
            } else {
                "recv-timeout-ms"
            };
            return Err(at(key, format!("{key} applies to socket transports only")));
        }

        Ok(CompiledScenario {
            name: self.name.clone(),
            graph,
            t: self.t,
            seed: self.seed,
            cast,
            epochs: self.epochs,
            runtime: self.runtime.unwrap_or_default(),
            schedule,
            compiled_schedule,
            transport: self.transport,
            sock_dir: self.sock_dir.clone(),
            base_port: self.base_port,
            connect_timeout_ms: self.connect_timeout_ms,
            recv_timeout_ms: self.recv_timeout_ms,
            report: self.report.clone(),
            csv: self.csv.clone(),
            profile: self.profile,
        })
    }
}

/// A validated, frozen execution plan: the topology is materialized, the
/// cast is placed, the schedule is proven consistent with the base graph,
/// and the transport is legal for every requested knob. Everything a
/// runner needs, nothing left to re-derive — the CLI's `run` command and
/// each fleet node's `node --scenario` both start from here, so every
/// process of a fleet shares identical seeded state by construction.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// Human-readable label.
    pub name: String,
    /// The materialized base topology.
    pub graph: Graph,
    /// Byzantine budget.
    pub t: usize,
    /// Seed for keys (and everything derived during compilation).
    pub seed: u64,
    /// The placed Byzantine cast.
    pub cast: Vec<(NodeId, ByzantineBehavior)>,
    /// Monitoring epochs.
    pub epochs: usize,
    /// Resolved runtime (defaults to sync).
    pub runtime: Runtime,
    /// Validated schedule, if any. [`ScenarioSpec::compile`] validates it
    /// by compiling it against `graph`, once, and
    /// [`run_report`](Self::run_report) runs on that compilation while
    /// this field and `graph` are as it left them.
    pub schedule: Option<TopologySchedule>,
    /// `schedule` compiled against `graph` by [`ScenarioSpec::compile`].
    compiled_schedule: Option<Arc<CompiledSchedule>>,
    /// Execution transport.
    pub transport: TransportKind,
    /// UDS socket directory override.
    pub sock_dir: Option<String>,
    /// TCP base port.
    pub base_port: u16,
    /// Socket connect timeout.
    pub connect_timeout_ms: u64,
    /// Socket receive timeout.
    pub recv_timeout_ms: u64,
    /// JSON report sink.
    pub report: Option<String>,
    /// CSV decisions sink.
    pub csv: Option<String>,
    /// Per-phase profiling.
    pub profile: bool,
}

impl CompiledScenario {
    /// Lowers onto the protocol layer's [`Scenario`]: topology, `t`, key
    /// seed and the placed cast. This is the exact value a hand-written
    /// harness would build, which is what makes scenario-file runs
    /// bit-identical to hand-built ones — and what every fleet node hands
    /// to `run_scenario_node`.
    pub fn scenario(&self) -> Scenario {
        let mut scenario = Scenario::new(self.graph.clone(), self.t).with_key_seed(self.seed);
        for (node, behavior) in &self.cast {
            scenario = scenario.with_byzantine(*node, behavior.clone());
        }
        scenario
    }

    /// Runs the plan in-process and returns the [`RunReport`] — the sync
    /// transport's execution path, lowering every scenario key onto its
    /// `Simulation` builder knob (runtime, epochs, schedule, profile). The
    /// schedule runs as [`ScenarioSpec::compile`] compiled it; only a
    /// `schedule` or `graph` replaced since is compiled afresh.
    pub fn run_report(&self) -> RunReport {
        let scenario = self.scenario();
        let mut sim = scenario.sim().runtime(self.runtime).epochs(self.epochs);
        if let Some(schedule) = &self.schedule {
            let current = self
                .compiled_schedule
                .as_ref()
                .filter(|c| c.schedule() == schedule && c.base() == &self.graph);
            sim = match current {
                Some(compiled) => sim.compiled_schedule(Arc::clone(compiled)),
                None => sim.schedule(schedule.clone()),
            };
        }
        if self.profile {
            sim = sim.profile();
        }
        sim.run()
    }

    /// Runs the plan over in-process loopback channels behind the real
    /// wire codec — the `transport loopback` execution path. Returns each
    /// node's decision plus the transport metrics. It produces no delivery
    /// log: a caller that wants one drives `Recorded` participants
    /// through `run_over_loopback` itself. (The third slot is vestigial,
    /// like `run_over_loopback`'s, and leaves with the next `benchmark/`
    /// PR, whose frozen code destructures three.)
    ///
    /// # Errors
    ///
    /// The first transport or codec failure.
    pub fn run_loopback(
        &self,
    ) -> Result<(BTreeMap<NodeId, Decision>, Metrics, ()), TransportError> {
        let scenario = self.scenario();
        let participants = scenario.build_participants();
        let (participants, metrics, ()) = run_over_loopback(
            participants,
            scenario.topology(),
            scenario.config().effective_rounds(),
        )?;
        let mut oracle = ConnectivityOracle::new();
        let (decisions, _) = scenario.collect_decisions(&participants, &mut oracle, 1);
        Ok((decisions, metrics, ()))
    }
}

/// Parses one `<node>:<behavior>` cast entry — the single grammar behind
/// scenario `byz` lines and the CLI's `--byz` flag: `silent` | `crash@R`
/// | `two-faced@a-b` | `hide@a-b`.
///
/// # Errors
///
/// Returns a message naming the malformed part.
pub fn parse_behavior(spec: &str) -> Result<(NodeId, ByzantineBehavior), String> {
    let (node, behavior) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad byz spec {spec}: expected <node>:<behavior>"))?;
    let node: NodeId = node.parse().map_err(|_| format!("bad node id in {spec}"))?;
    let behavior = match behavior.split_once('@') {
        None if behavior == "silent" => ByzantineBehavior::Silent,
        Some(("crash", round)) => ByzantineBehavior::CrashAfter {
            round: round.parse().map_err(|_| format!("bad round in {spec}"))?,
        },
        Some(("two-faced", range)) => {
            ByzantineBehavior::TwoFaced { silent_toward: parse_node_range(range, spec)? }
        }
        Some(("hide", range)) => {
            ByzantineBehavior::HideEdges { toward: parse_node_range(range, spec)? }
        }
        _ => return Err(format!("unknown behavior in {spec}")),
    };
    Ok((node, behavior))
}

fn parse_node_range(range: &str, spec: &str) -> Result<BTreeSet<NodeId>, String> {
    let (a, b) =
        range.split_once('-').ok_or_else(|| format!("bad range in {spec}: expected <a>-<b>"))?;
    let a: NodeId = a.parse().map_err(|_| format!("bad range start in {spec}"))?;
    let b: NodeId = b.parse().map_err(|_| format!("bad range end in {spec}"))?;
    if a > b {
        return Err(format!("empty range in {spec}"));
    }
    // Refused before the range is materialized: ids are u16 on the wire.
    if b >= MAX_NODES {
        return Err(format!("range end {b} in {spec} exceeds the {MAX_NODES}-node limit"));
    }
    Ok((a..=b).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nectar_protocol::Verdict;

    const FULL_DOC: &str = "\
# everything in one file
name full demo
topology harary-k2 12
t 2
seed 9
cast silent-cut
epochs 2
runtime parallel:2
schedule drop 2 0 1   # drop a ring edge
schedule heal 3 0 1
report out/full.json
csv out/full.csv
profile
";

    #[test]
    fn parses_every_directive() {
        let spec = ScenarioSpec::parse(FULL_DOC, "full.scn").unwrap();
        assert_eq!(spec.name, "full demo");
        assert_eq!(spec.family, Some((FamilySpec::Harary { k: 2 }, 12)));
        assert_eq!((spec.t, spec.seed, spec.epochs), (2, 9, 2));
        assert_eq!(spec.cast, Some(CastSpec::SilentCut));
        assert_eq!(spec.runtime, Some(Runtime::Parallel { workers: 2 }));
        let schedule = TopologySchedule::new().drop_edge(2, 0, 1).heal_edge(3, 0, 1);
        assert_eq!(spec.schedule, Some(schedule));
        assert_eq!(spec.report.as_deref(), Some("out/full.json"));
        assert_eq!(spec.csv.as_deref(), Some("out/full.csv"));
        assert!(spec.profile);
    }

    #[test]
    fn runtime_errors_carry_file_and_line() {
        // `threaded` named a retired runtime: a name like any other now.
        for name in ["warp", "threaded"] {
            let doc = format!("topology harary-k2 8\nt 1\nruntime {name}\n");
            let err = ScenarioSpec::parse(&doc, "demo.scn").unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "demo.scn:3: unknown runtime {name}; expected sync, event, parallel or \
                     parallel:<workers>"
                )
            );
        }
        let doc = "topology harary-k2 8\nruntime parallel:x\n";
        let err = ScenarioSpec::parse(doc, "demo.scn").unwrap_err();
        assert_eq!(err.to_string(), "demo.scn:2: bad parallel worker count \"x\"");
    }

    #[test]
    fn schedule_errors_carry_the_inline_line() {
        // Line 4 is the second schedule directive: `parse` reads it there
        // and refuses it there.
        let doc = "topology harary-k2 8\nt 1\nschedule drop 2 0 1\nschedule drop x 0 1\n";
        let err = ScenarioSpec::parse(doc, "demo.scn").unwrap_err();
        assert_eq!(err.to_string(), "demo.scn:4: bad round x");
        // Compile-stage (Invalid) errors anchor at the schedule block.
        let doc = "topology harary-k2 8\nt 1\nschedule drop 2 0 4\n";
        let err = ScenarioSpec::parse(doc, "demo.scn").unwrap().compile().unwrap_err();
        assert_eq!(err.file, "demo.scn");
        assert_eq!(err.line, 3);
        assert!(err.reason.contains("not a base-graph edge"), "{}", err.reason);
        // A schedule of nothing but a seed is still a schedule.
        let doc = "topology harary-k2 8\nt 1\nschedule seed 5\n";
        let report = ScenarioSpec::parse(doc, "").unwrap().compile().unwrap().run_report();
        assert_eq!(report.schedule.expect("a scheduled run").script, "seed 5\n");
    }

    #[test]
    fn malformed_documents_error_with_context() {
        for (doc, needle) in [
            ("warp 3\n", "unknown directive"),
            ("t 1\nt 2\n", "duplicate t directive (first at line 1)"),
            ("epochs 0\n", "epochs must be at least 1"),
            ("t\n", "takes 1 argument"),
            ("profile now\n", "takes 0 argument"),
            ("cast nonsense\n", "unknown cast"),
            ("topology klein-bottle 8\n", "unknown family"),
            ("transport warp\n", "unknown transport"),
            ("byz 0:explode\n", "unknown behavior"),
            ("byz 0:hide@0-70000\n", "exceeds the 65536-node limit"),
            ("byz 0:two-faced@0-100000000\n", "exceeds the 65536-node limit"),
            ("base-port 99999\n", "bad base port"),
        ] {
            let err = ScenarioSpec::parse(doc, "bad.scn").unwrap_err();
            assert!(err.reason.contains(needle), "{doc:?} gave {err}");
            assert!(err.line >= 1, "{doc:?} lost its line");
        }
    }

    #[test]
    fn compile_checks_cross_field_constraints() {
        for (doc, needle) in [
            ("t 1\n", "needs a topology"),
            // Directives that exclude each other parse; compile refuses them.
            ("topology harary-k2 8\nnodes 8\n", "conflicts"),
            ("nodes 8\ntopology harary-k2 8\n", "conflicts"),
            ("topology harary-k2 8\nedge 0 1\n", "conflicts"),
            ("cast silent-cut\nbyz 0:silent\n", "mutually exclusive"),
            ("byz 0:silent\ncast silent-cut\n", "mutually exclusive"),
            ("schedule drop 2 0 1\nmobility churn\n", "mutually exclusive"),
            ("mobility churn\nschedule drop 2 0 1\n", "mutually exclusive"),
            ("schedule @a.sched\nschedule drop 2 0 1\n", "cannot mix"),
            ("edge 0 1\n", "need a nodes directive"),
            ("nodes 4\nedge 0 9\n", "out of range"),
            ("nodes 4\nedge 0 0\n", "loop"),
            ("topology harary-k2 8\nt 8\n", "fewer than"),
            ("topology harary-k2 8\nbyz 9:silent\n", "out of range"),
            ("topology harary-k2 20\nbyz 0:two-faced@1-500\n", "names node 500, out of range"),
            ("topology harary-k2 20\nbyz 0:hide@0-20\n", "names node 20, out of range"),
            ("topology harary-k2 8\nbyz 1:silent\nbyz 1:crash@2\n", "cast twice"),
            ("topology harary-k2 8\nschedule @missing.sched\n", "cannot read schedule file"),
            ("mobility waypoint\ntopology harary-k2 8\n", "generates its own topology"),
            ("topology harary-k2 8\nmobility split-heal at=3 heal=3\n", "at < heal"),
            ("mobility waypoint nodes=10 rounds=10\n", "n − 1 = 9"),
            ("topology cycle 8\nmobility churn down=18446744073709551615\n", "overflows"),
            ("topology harary-k2 8\ntransport uds\nepochs 2\n", "requires the sync transport"),
            ("topology harary-k2 8\ntransport uds\nruntime event\n", "requires the sync transport"),
            ("topology harary-k2 8\ntransport loopback\nreport out.json\n", "requires the sync"),
            ("topology harary-k2 8\ntransport tcp\nsock-dir /tmp/x\n", "uds transport only"),
            ("topology harary-k2 8\ntransport uds\nbase-port 5000\n", "tcp transport only"),
            ("topology harary-k2 8\nconnect-timeout-ms 5\n", "socket transports only"),
        ] {
            let err = ScenarioSpec::parse(doc, "bad.scn").unwrap().compile().unwrap_err();
            assert!(err.reason.contains(needle), "{doc:?} gave {err}");
        }
        // An exclusion is anchored at its rule's directive (topology, cast,
        // mobility, @file schedule), wherever that sits in the file.
        for (doc, line) in [
            ("edge 0 1\ntopology harary-k2 8\n", 2),
            ("byz 0:silent\ncast silent-cut\n", 2),
            ("topology harary-k2 8\nschedule drop 2 0 1\nmobility churn\n", 3),
            ("schedule @a.sched\nschedule drop 2 0 1\n", 1),
            ("t 1\nmobility waypoint nodes=10 rounds=10\n", 2),
            ("topology cycle 8\nmobility churn down=18446744073709551615\n", 2),
        ] {
            let err = ScenarioSpec::parse(doc, "bad.scn").unwrap().compile().unwrap_err();
            assert_eq!((err.file.as_str(), err.line), ("bad.scn", line), "{doc:?} gave {err}");
        }
        // An inline schedule off the sync transport is refused at its
        // first line, as its compile errors are.
        let doc = "topology harary-k2 8\nt 1\ntransport uds\nschedule drop 2 0 1\n";
        let err = ScenarioSpec::parse(doc, "bad.scn").unwrap().compile().unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad.scn:4: schedule requires the sync transport (transport is uds)"
        );
    }

    #[test]
    fn compiled_scenario_runs_and_matches_a_hand_built_one() {
        let doc = "topology harary-k2 10\nt 2\ncast silent-cut\nseed 5\n";
        let compiled = ScenarioSpec::parse(doc, "").unwrap().compile().unwrap();
        let report = compiled.run_report();
        // κ = 2 ≤ t on a Harary H_{2,n} ring: PARTITIONABLE everywhere.
        assert_eq!(report.unanimous_verdict(), Some(Verdict::Partitionable));
        // The lowering is the hand-written harness, value for value.
        let family = FamilySpec::Harary { k: 2 };
        let graph = family.build(10, 5).unwrap();
        let mut hand = Scenario::new(graph, 2).with_key_seed(5);
        for (node, behavior) in CastSpec::SilentCut.cast(&compiled.graph, 2, 5) {
            hand = hand.with_byzantine(node, behavior);
        }
        assert_eq!(hand.sim().run(), report);
    }

    #[test]
    fn a_schedule_or_graph_replaced_after_compile_is_compiled_afresh() {
        let doc = "topology harary-k2 8\nt 1\nschedule drop 2 0 1\n";
        let compiled = ScenarioSpec::parse(doc, "").unwrap().compile().unwrap();
        let script = |report: RunReport| report.schedule.expect("a scheduled run").script;
        assert_eq!(script(compiled.run_report()), "drop 2 0 1\n");
        let mut replaced = compiled.clone();
        replaced.schedule = Some(TopologySchedule::new().drop_edge(3, 1, 2));
        assert_eq!(script(replaced.run_report()), "drop 3 1 2\n");
        let mut replaced = compiled.clone();
        replaced.graph.remove_edge(2, 3);
        let report = replaced.run_report();
        assert_eq!(report.topology, replaced.graph);
        assert_eq!(script(report), "drop 2 0 1\n");
    }

    #[test]
    fn waypoint_scenarios_generate_topology_and_schedule() {
        let doc = "mobility waypoint nodes=24 radius=2000 speed=600 density=6000 rounds=6\n\
                   t 2\nseed 3\n";
        let compiled = ScenarioSpec::parse(doc, "").unwrap().compile().unwrap();
        assert_eq!(compiled.graph.node_count(), 24);
        let schedule = compiled.schedule.as_ref().expect("waypoint emits a schedule");
        assert!(schedule.compile(&compiled.graph).is_ok());
        let report = compiled.run_report();
        assert_eq!(report.n, 24);
    }

    #[test]
    fn loopback_runs_deliver_per_node_decisions() {
        let doc = "topology harary-k2 6\nt 2\ntransport loopback\n";
        let compiled = ScenarioSpec::parse(doc, "").unwrap().compile().unwrap();
        let (decisions, _, _) = compiled.run_loopback().unwrap();
        assert_eq!(decisions.len(), 6);
        // Same decisions as the in-process sync run.
        let sync = compiled.run_report();
        assert_eq!(&decisions, sync.decisions());
    }

    #[test]
    fn reduced_clamps_to_ci_size() {
        let doc = "topology harary-k4 500\nt 3\nepochs 5\nruntime event\n\
                   report out.json\nprofile\n";
        let reduced = ScenarioSpec::parse(doc, "").unwrap().reduced(24);
        assert_eq!(reduced.family, Some((FamilySpec::Harary { k: 4 }, 24)));
        assert_eq!(reduced.epochs, 2);
        assert_eq!(reduced.runtime, None);
        assert_eq!(reduced.report, None);
        assert!(!reduced.profile);
        reduced.compile().unwrap().run_report();
    }

    #[test]
    fn behavior_grammar_round_trips() {
        assert!(parse_behavior("5").is_err());
        assert!(parse_behavior("x:silent").is_err());
        assert!(parse_behavior("5:crash@x").is_err());
        assert!(parse_behavior("5:two-faced@4-2").is_err());
        assert!(parse_behavior("5:hide@2").is_err());
    }

    #[test]
    fn scenario_error_display_degrades_gracefully() {
        let full = ScenarioError { file: "a.scn".into(), line: 3, reason: "boom".into() };
        assert_eq!(full.to_string(), "a.scn:3: boom");
        let no_line = ScenarioError { file: "a.scn".into(), line: 0, reason: "boom".into() };
        assert_eq!(no_line.to_string(), "a.scn: boom");
        let no_file = ScenarioError { file: String::new(), line: 3, reason: "boom".into() };
        assert_eq!(no_file.to_string(), "line 3: boom");
        let bare = ScenarioError { file: String::new(), line: 0, reason: "boom".into() };
        assert_eq!(bare.to_string(), "boom");
    }
}
