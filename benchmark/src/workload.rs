//! The five workloads: what each feeds the program, how one untraced run
//! executes, and how its output is checked.
//!
//! Inputs are a pure function of `(workload, seed)`; the program receives
//! only the generated scenario text (or `MatrixSpec`) and is driven through
//! the same public calls `nectar-cli run` / `nectar-cli matrix` make:
//! `ScenarioSpec::parse` → `compile()` → `run_report()` / `run_loopback()`
//! → `RunReport::to_json()`, and `MatrixSpec::run()` → `to_json()`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use nectar_experiments::{
    CastSpec, CompiledScenario, MatrixReport, MatrixSpec, ScenarioSpec, TransportKind,
};
use nectar_graph::{connectivity, traversal};
use nectar_net::{Metrics, NodeId};
use nectar_protocol::{Decision, EpochOutcome, OracleStats, RunReport, Runtime, Verdict};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperHarary,
    FleetSparse,
    FleetFlap,
    LoopbackWire,
    MatrixSweep,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperHarary,
        Workload::FleetSparse,
        Workload::FleetFlap,
        Workload::LoopbackWire,
        Workload::MatrixSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperHarary => "paper_harary",
            Workload::FleetSparse => "fleet_sparse",
            Workload::FleetFlap => "fleet_flap",
            Workload::LoopbackWire => "loopback_wire",
            Workload::MatrixSweep => "matrix_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: the layer it stresses and the one it
    /// bypasses (the same lines `BENCHMARK.json` records).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperHarary => {
                "Paper Fig. 3 at its largest size (Harary k=10, n=100, t=4, sync engine): \
                 NectarNode::receive and signature checks are ~all of the run; decision is nil"
            }
            Workload::FleetSparse => {
                "10k-node fleet of 2500 disjoint 4-cliques on the event engine: dissemination \
                 quiesces in ~4 rounds, so the run is decision phase, keygen/proofs and report"
            }
            Workload::FleetFlap => {
                "fleet_sparse plus 4096 scheduled edge drops/heals: the same layers used \
                 dynamically (Scheduled wrapper, re-wakes); a static-only gain must not cost here"
            }
            Workload::LoopbackWire => {
                "Harary k=6, n=48 over transport loopback: the only workload where codec, frame, \
                 NodeDriver and the round barrier work; same NectarNode under another engine"
            }
            Workload::MatrixSweep => {
                "MatrixSpec::reduced() x 10 trials (180 small Byzantine-cast trials): per-trial \
                 fixed cost and an oracle running real flows with cross-trial cache reuse"
            }
        }
    }
}

/// What the program is given for one run.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// The text of a `.scn` scenario file.
    Scenario(String),
    /// An experiment-matrix sweep.
    Matrix(MatrixSpec),
}

/// Cliques of the sparse fleet (4 nodes each) and how many of them flap.
const FLEET_CLIQUES: usize = 2_500;
const FLAPPING_CLIQUES: usize = 256;
/// Drop/heal pairs per flapping clique (drop at round `1 + 2k`, heal at
/// `2 + 2k`) — the `runtime_scaling/event_flap/10000` script.
const FLAPS: usize = 8;

/// The input of `workload` for `seed`. `quick` shrinks every workload to
/// n ≤ 16 (the smoke test's size); the shape stays the same.
pub fn generate(workload: Workload, seed: u64, quick: bool) -> Input {
    let fleet = |flapping: usize, flaps: usize| {
        let cliques = if quick { 4 } else { FLEET_CLIQUES };
        let mut text = format!("name {}\nnodes {}\n", workload.name(), 4 * cliques);
        for c in 0..cliques {
            for u in 0..4 {
                for v in u + 1..4 {
                    let _ = writeln!(text, "edge {} {}", 4 * c + u, 4 * c + v);
                }
            }
        }
        let _ = write!(text, "t 2\nseed {seed}\nruntime event\n");
        for c in 0..flapping.min(cliques) {
            for k in 0..flaps {
                let (u, v) = (4 * c, 4 * c + 1);
                let _ = writeln!(text, "schedule drop {} {u} {v}", 1 + 2 * k);
                let _ = writeln!(text, "schedule heal {} {u} {v}", 2 + 2 * k);
            }
        }
        Input::Scenario(text)
    };
    match workload {
        Workload::PaperHarary => {
            let (topology, t) = if quick { ("harary-k4 16", 2) } else { ("harary-k10 100", 4) };
            Input::Scenario(format!("name paper_harary\ntopology {topology}\nt {t}\nseed {seed}\n"))
        }
        Workload::FleetSparse => fleet(0, 0),
        Workload::FleetFlap if quick => fleet(2, 4),
        Workload::FleetFlap => fleet(FLAPPING_CLIQUES, FLAPS),
        Workload::LoopbackWire => {
            let topology = if quick { "harary-k4 12" } else { "harary-k6 48" };
            Input::Scenario(format!(
                "name loopback_wire\ntopology {topology}\nt 2\nseed {seed}\ntransport loopback\n"
            ))
        }
        Workload::MatrixSweep => {
            let reduced = MatrixSpec::reduced();
            Input::Matrix(MatrixSpec {
                sizes: if quick { vec![12] } else { reduced.sizes.clone() },
                trials: if quick { 1 } else { 10 },
                base_seed: seed,
                ..reduced
            })
        }
    }
}

/// The output of one run: the report the user would read and its JSON.
#[derive(Debug)]
pub enum Output {
    Scenario { report: RunReport, json: String },
    Matrix { report: MatrixReport, json: String },
}

impl Output {
    pub fn json(&self) -> &str {
        match self {
            Output::Scenario { json, .. } | Output::Matrix { json, .. } => json,
        }
    }

    /// Mean KiB sent per node per epoch — the paper's headline cost
    /// (Figs. 3–7). For the matrix: over every node of every trial.
    pub fn kb_per_node(&self) -> f64 {
        match self {
            Output::Scenario { report, .. } => report.mean_kb_sent_per_node(),
            Output::Matrix { report, .. } => {
                let bytes: u64 = report.cells.iter().map(|c| c.stats.total_bytes).sum();
                let nodes: usize = report.cells.iter().map(|c| c.stats.trials * c.n).sum();
                bytes as f64 / nodes as f64 / 1024.0
            }
        }
    }
}

/// Parses and compiles scenario text as `nectar-cli run` does.
pub fn compile(text: &str) -> Result<CompiledScenario, String> {
    ScenarioSpec::parse(text, "").and_then(|spec| spec.compile()).map_err(|e| e.to_string())
}

/// One untraced run: input in, report JSON out.
///
/// # Errors
///
/// The scenario, transport or matrix error, as text.
pub fn execute(input: &Input) -> Result<Output, String> {
    match input {
        Input::Scenario(text) => {
            let compiled = compile(text)?;
            let report = match compiled.transport {
                TransportKind::Sync => compiled.run_report(),
                TransportKind::Loopback => {
                    let (decisions, metrics, _log) =
                        compiled.run_loopback().map_err(|e| e.to_string())?;
                    loopback_report(&compiled, decisions, metrics)
                }
                other => return Err(format!("transport {} needs a fleet", other.name())),
            };
            let json = report.to_json();
            Ok(Output::Scenario { report, json })
        }
        Input::Matrix(spec) => {
            let report = spec.run()?;
            let json = report.to_json();
            Ok(Output::Matrix { report, json })
        }
    }
}

/// `run_loopback()` returns decisions and metrics, not a report; this is
/// the report a loopback run amounts to, so that every scenario workload
/// ends in the same `RunReport::to_json()` call. The oracle counters are
/// not returned by `run_loopback()` and stay zero.
pub fn loopback_report(
    compiled: &CompiledScenario,
    decisions: BTreeMap<NodeId, Decision>,
    metrics: Metrics,
) -> RunReport {
    RunReport {
        runtime: Runtime::Sync,
        n: compiled.graph.node_count(),
        t: compiled.t,
        key_seed: compiled.seed,
        byzantine: compiled.cast.iter().map(|(node, _)| *node).collect(),
        topology: compiled.graph.clone(),
        schedule: None,
        epochs: vec![EpochOutcome {
            epoch: 0,
            key_seed: compiled.seed,
            decisions,
            metrics,
            oracle: OracleStats::default(),
            profile: None,
        }],
    }
}

/// What a correct output looks like, established during set-up without the
/// code path being measured.
#[derive(Debug)]
pub enum Expected {
    /// Ground truth from the exact (oracle-free) graph routines: the
    /// verdict every correct node must reach, and whether each must also
    /// confirm an observed partition.
    Verdict { verdict: Verdict, confirmed: bool },
    /// The in-process sync run of the same text: a loopback run must match
    /// its decisions and per-node byte counts.
    SyncReference(Box<RunReport>),
    /// The paper's claims on a matrix: no false negative, no disagreement,
    /// and no false positive without a Byzantine cast.
    MatrixClaims,
}

/// Establishes the expected outcome of `input`.
///
/// # Errors
///
/// Scenario errors, or a topology whose verdict the paper leaves open
/// (`t < κ < 2t`) — a workload must not be built on one.
pub fn expectation(input: &Input) -> Result<Expected, String> {
    let text = match input {
        Input::Matrix(_) => return Ok(Expected::MatrixClaims),
        Input::Scenario(text) => text,
    };
    let compiled = compile(text)?;
    if compiled.transport == TransportKind::Loopback {
        return Ok(Expected::SyncReference(Box::new(compiled.run_report())));
    }
    if !compiled.cast.is_empty() {
        return Err("scenario workloads are checked against honest-fleet ground truth".into());
    }
    let connected = traversal::is_connected(&compiled.graph);
    let kappa = if connected { connectivity::vertex_connectivity(&compiled.graph) } else { 0 };
    let verdict = if kappa <= compiled.t {
        Verdict::Partitionable
    } else if kappa >= 2 * compiled.t {
        Verdict::NotPartitionable
    } else {
        return Err(format!("κ = {kappa} with t = {} leaves the verdict open", compiled.t));
    };
    Ok(Expected::Verdict { verdict, confirmed: !connected })
}

/// Checks made and checks failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Checks one run's output: one check per verdict (or per matrix trial),
/// plus the run-level properties.
pub fn check(output: &Output, expected: &Expected) -> Tally {
    let mut tally = Tally::default();
    match (output, expected) {
        (Output::Scenario { report, .. }, Expected::Verdict { verdict, confirmed }) => {
            tally.check(report.decisions().len() == report.n);
            tally.check(report.agreement());
            for decision in report.decisions().values() {
                tally.check(decision.verdict == *verdict && decision.confirmed == *confirmed);
            }
        }
        (Output::Scenario { report, .. }, Expected::SyncReference(reference)) => {
            tally.check(report.decisions().len() == reference.decisions().len());
            for (node, decision) in report.decisions() {
                tally.check(reference.decisions().get(node) == Some(decision));
            }
            let (got, want) = (report.metrics().bytes_sent(), reference.metrics().bytes_sent());
            tally.check(got.len() == want.len());
            for (g, w) in got.iter().zip(want) {
                tally.check(g == w);
            }
        }
        (Output::Matrix { report, .. }, Expected::MatrixClaims) => {
            for cell in &report.cells {
                let stats = &cell.stats;
                // Byzantine-cast false positives are allowed by the paper
                // (a lying cast may make a sound graph look partitionable).
                let false_positives =
                    if cell.cast == CastSpec::Honest.name() { stats.false_positives } else { 0 };
                let failed = stats.false_negatives + stats.agreement_failures + false_positives;
                tally.attempted += stats.trials as u64;
                tally.failed += (failed as u64).min(stats.trials as u64);
            }
        }
        _ => tally.check(false),
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_workload_and_seed() {
        for workload in Workload::ALL {
            for quick in [true, false] {
                assert_eq!(generate(workload, 7, quick), generate(workload, 7, quick));
                assert_ne!(generate(workload, 7, quick), generate(workload, 8, quick));
            }
            assert_eq!(Workload::parse(workload.name()), Some(workload));
            assert!(workload.why().len() <= 200, "{} why too long", workload.name());
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn full_size_inputs_have_the_documented_shape() {
        let Input::Scenario(sparse) = generate(Workload::FleetSparse, 1, false) else { panic!() };
        assert!(sparse.contains("nodes 10000\n") && sparse.contains("runtime event\n"));
        assert_eq!(sparse.lines().filter(|l| l.starts_with("edge ")).count(), 15_000);
        assert!(!sparse.contains("schedule"));
        let Input::Scenario(flap) = generate(Workload::FleetFlap, 1, false) else { panic!() };
        assert_eq!(flap.lines().filter(|l| l.starts_with("schedule ")).count(), 4_096);
        assert!(flap.contains("schedule drop 15 1020 1021\nschedule heal 16 1020 1021\n"));
        let Input::Matrix(spec) = generate(Workload::MatrixSweep, 5, false) else { panic!() };
        assert_eq!((spec.trials, spec.base_seed), (10, 5));
        assert_eq!(spec.families.len() * spec.sizes.len() * spec.casts.len() * spec.trials, 180);
    }

    #[test]
    fn quick_inputs_run_and_pass_their_checks() {
        for workload in Workload::ALL {
            let input = generate(workload, 3, true);
            let expected = expectation(&input).unwrap();
            let output = execute(&input).unwrap();
            let tally = check(&output, &expected);
            assert!(tally.attempted > 0, "{}", workload.name());
            assert_eq!(tally.failed, 0, "{}", workload.name());
            assert!(output.kb_per_node() > 0.0);
            assert!(output.json().starts_with('{'));
        }
    }

    #[test]
    fn a_wrong_verdict_is_counted() {
        let input = generate(Workload::PaperHarary, 3, true);
        let output = execute(&input).unwrap();
        let wrong = Expected::Verdict { verdict: Verdict::Partitionable, confirmed: true };
        let tally = check(&output, &wrong);
        assert_eq!(tally.failed, 16);
        assert_eq!(tally.attempted, 18);
        // An output of the wrong kind for the expectation is a failure too.
        assert_eq!(check(&output, &Expected::MatrixClaims), Tally { attempted: 1, failed: 1 });
    }

    #[test]
    fn an_open_verdict_is_refused_as_a_workload() {
        // Harary k=3 with t=2: κ = 3 sits strictly between t and 2t.
        let input = Input::Scenario("topology harary-k3 10\nt 2\n".into());
        assert!(expectation(&input).unwrap_err().contains("leaves the verdict open"));
    }
}
