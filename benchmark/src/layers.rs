//! The traced run: the same work as [`workload::execute`], taken apart at
//! the public seams between layers so each stage gets a span, every
//! participant a [`Timed`] wrapper, and the delivered messages and final
//! views can be replayed through the crypto, codec and oracle calls.
//!
//! The staged path is `parse` → `compile` → `Scenario::build_participants`
//! → engine `::new` + `run_rounds` + `into_parts` →
//! `Scenario::collect_decisions` → `RunReport::to_json` — what
//! `Simulation::run` does behind `run_report()`. That it *is* the same work
//! is checked, not assumed: the traced run's JSON must equal the untraced
//! run's byte for byte.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use nectar_crypto::{Decode, Encode, Frame, FrameBuffer, KeyStore};
use nectar_experiments::{
    CellStats, CompiledScenario, MatrixCell, MatrixReport, MatrixSpec, ScenarioSpec, TransportKind,
};
use nectar_graph::Graph;
use nectar_net::{
    run_over_loopback, EventNetwork, Metrics, NodeId, Process, Scheduled, SyncNetwork,
    TopologySchedule,
};
use nectar_protocol::{
    ConnectivityOracle, Decision, EpochOutcome, NectarMsg, OracleStats, Participant, RunReport,
    Runtime, Scenario, ScheduleRecord, Verdict,
};

use crate::metrics::Values;
use crate::procfs;
use crate::trace::{Observed, Timed, Tracer};
use crate::workload::{self, Input};

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// One traced run: its spans and the layer counters read off it.
pub struct TracedRun {
    pub tracer: Tracer,
    pub values: Values,
    /// The report JSON the run produced (checked against the untraced one).
    pub json: String,
    /// Wall time of the root span, less the replay spans inside it — the
    /// time the staged program itself took.
    pub wall_ms: f64,
    /// Allocations the replays made (to be left out of `alloc.count`).
    pub replay_allocs: procfs::AllocSnapshot,
    /// Newly accepted edges, the numerator of `node.accept_ratio`.
    accepted_edges: u64,
    /// Process time under the innermost and outermost wrappers.
    node_busy_ns: u64,
    outer_busy_ns: u64,
}

/// Runs `procs` on the engine behind `runtime`, as `Simulation::run`'s
/// dispatch does. Returns the engine's event count where it keeps one.
fn drive<P: Process>(
    runtime: Runtime,
    procs: Vec<P>,
    topology: &Graph,
    rounds: usize,
) -> (Vec<P>, Metrics, Option<u64>) {
    match runtime {
        Runtime::Sync => {
            let mut net = SyncNetwork::new(procs, topology.clone());
            net.run_rounds(rounds);
            let (procs, metrics) = net.into_parts();
            (procs, metrics, None)
        }
        Runtime::Event => {
            let mut net = EventNetwork::new(procs, topology.clone());
            net.run_rounds(rounds);
            let events = net.events_processed();
            let (procs, metrics) = net.into_parts();
            (procs, metrics, Some(events))
        }
        other => panic!("no workload runs on the {other} engine; stage it here before adding one"),
    }
}

fn unwrap_fleet<P: Process<Msg = NectarMsg>>(fleet: Vec<Timed<P>>) -> (Vec<P>, Observed) {
    let mut seen = Observed::default();
    let procs = fleet
        .into_iter()
        .map(|timed| {
            let (inner, observed) = timed.into_parts();
            seen.absorb(observed);
            inner
        })
        .collect();
    (procs, seen)
}

impl TracedRun {
    /// Executes `input` stage by stage under a root span.
    ///
    /// # Errors
    ///
    /// Scenario, transport or matrix errors, as text.
    pub fn execute(input: &Input) -> Result<TracedRun, String> {
        let mut run = TracedRun {
            tracer: Tracer::new(),
            values: Values::default(),
            json: String::new(),
            wall_ms: 0.0,
            replay_allocs: procfs::AllocSnapshot::default(),
            accepted_edges: 0,
            node_busy_ns: 0,
            outer_busy_ns: 0,
        };
        let root = run.tracer.begin("run");
        run.json = match input {
            Input::Scenario(text) => run.scenario(text)?,
            Input::Matrix(spec) => run.matrix(spec)?,
        };
        run.tracer.end(root);
        run.read_spans();
        Ok(run)
    }

    fn scenario(&mut self, text: &str) -> Result<String, String> {
        self.values.add("scenario.lines", text.lines().count() as f64);
        let spec = self
            .tracer
            .span("scenario.parse", || ScenarioSpec::parse(text, ""))
            .map_err(|e| e.to_string())?;
        let compiled =
            self.tracer.span("scenario.compile", || spec.compile()).map_err(|e| e.to_string())?;
        let scenario = self.tracer.span("runner.scenario", || compiled.scenario());
        let report = match compiled.transport {
            TransportKind::Sync => {
                assert_eq!(compiled.epochs, 1, "the staged path runs one epoch");
                // `run_report()` hands the builder its own copy.
                let schedule = self.tracer.span("schedule.clone", || compiled.schedule.clone());
                let mut oracle = ConnectivityOracle::new();
                self.sim(&scenario, compiled.seed, compiled.runtime, schedule.as_ref(), &mut oracle)
            }
            TransportKind::Loopback => self.loopback(&compiled, &scenario)?,
            other => return Err(format!("transport {} needs a fleet", other.name())),
        };
        Ok(self.render_json(|| report.to_json()))
    }

    fn render_json(&mut self, render: impl FnOnce() -> String) -> String {
        let json = self.tracer.span("report.to_json", render);
        self.values.add("report.json_bytes", json.len() as f64);
        json
    }

    /// `Simulation::run` for one epoch, staged.
    fn sim(
        &mut self,
        scenario: &Scenario,
        key_seed: u64,
        runtime: Runtime,
        schedule: Option<&TopologySchedule>,
        oracle: &mut ConnectivityOracle,
    ) -> RunReport {
        let topology = scenario.topology();
        let rounds = scenario.config().effective_rounds();
        let compiled = schedule.map(|s| {
            self.tracer.span("schedule.compile", || {
                Arc::new(s.compile(topology).expect("the scenario compiler accepted this schedule"))
            })
        });
        let participants = self.build_participants(scenario);
        let known_before = known_edges(&participants);

        let engine = self.tracer.begin("engine.run");
        let inner = Timed::wrap_all(participants, true);
        let (inner, metrics, events, outer_busy_ns) = match &compiled {
            None => {
                let (inner, metrics, events) = drive(runtime, inner, topology, rounds);
                (inner, metrics, events, None)
            }
            Some(compiled) => {
                let outer = Timed::wrap_all(Scheduled::wrap_all(inner, compiled), false);
                let (outer, mut metrics, events) = drive(runtime, outer, topology, rounds);
                let (scheduled, outer_seen) = unwrap_fleet(outer);
                let drops = scheduled.iter().map(Scheduled::drops).sum();
                metrics.record_schedule_drops(drops);
                self.values.add("schedule.drops", drops as f64);
                let inner = scheduled.into_iter().map(Scheduled::into_inner).collect();
                (inner, metrics, events, Some(outer_seen.busy_ns()))
            }
        };
        let (participants, seen) = unwrap_fleet(inner);
        self.tracer.end(engine);

        self.outer_busy_ns += outer_busy_ns.unwrap_or(seen.busy_ns());
        // A scheduler event is a poll or a delivery; the event engine
        // counts its own, the sync engine makes exactly the calls we saw.
        self.values.add("engine.events", events.unwrap_or(seen.sends + seen.receives) as f64);
        self.values.add(
            "engine.active_rounds",
            metrics.bytes_per_round().iter().filter(|&&b| b > 0).count() as f64,
        );
        let (decisions, oracle_stats) =
            self.decide(scenario, key_seed, participants, seen, known_before, oracle);

        let report = self.tracer.span("report.build", || RunReport {
            runtime,
            n: scenario.config().n,
            t: scenario.config().t,
            key_seed,
            byzantine: scenario.byzantine_nodes(),
            topology: topology.clone(),
            schedule: schedule.zip(compiled.as_ref()).map(|(s, c)| {
                let transitions: Vec<_> = c
                    .transition_rounds()
                    .flat_map(|r| c.transitions_at(r).iter().map(move |&(u, v, up)| (r, u, v, up)))
                    .collect();
                ScheduleRecord { script: s.to_script(), transitions }
            }),
            epochs: vec![EpochOutcome {
                epoch: 0,
                key_seed,
                decisions,
                metrics,
                oracle: oracle_stats,
                profile: None,
            }],
        });
        if let Some(record) = &report.schedule {
            self.values.add("schedule.transitions", record.transitions.len() as f64);
        }
        report
    }

    /// `CompiledScenario::run_loopback`, staged.
    fn loopback(
        &mut self,
        compiled: &CompiledScenario,
        scenario: &Scenario,
    ) -> Result<RunReport, String> {
        let topology = scenario.topology();
        let rounds = scenario.config().effective_rounds();
        let participants = self.build_participants(scenario);
        let known_before = known_edges(&participants);

        let transport = self.tracer.begin("transport.run");
        let inner = Timed::wrap_all(participants, true);
        let (inner, metrics, _log) =
            run_over_loopback(inner, topology, rounds).map_err(|e| e.to_string())?;
        let (participants, seen) = unwrap_fleet(inner);
        self.tracer.end(transport);

        self.outer_busy_ns += seen.busy_ns();
        // Every message is a Data frame; every node closes every round
        // toward every neighbour with a RoundEnd frame.
        let messages: u64 = metrics.msgs_sent().iter().sum();
        self.values.add(
            "transport.frames",
            (messages + 2 * (topology.edge_count() * rounds) as u64) as f64,
        );
        let mut oracle = ConnectivityOracle::new();
        let (decisions, _) =
            self.decide(scenario, compiled.seed, participants, seen, known_before, &mut oracle);
        Ok(self
            .tracer
            .span("report.build", || workload::loopback_report(compiled, decisions, metrics)))
    }

    /// Runs a replay — the trace's own work — under its span, keeping its
    /// allocations apart from the run's.
    fn replay(&mut self, work: impl FnOnce(&mut Values)) {
        let allocs_before = procfs::allocations();
        let span = self.tracer.begin(REPLAY_SPAN);
        work(&mut self.values);
        self.tracer.end(span);
        let replayed = procfs::allocations().since(allocs_before);
        self.replay_allocs.count += replayed.count;
        self.replay_allocs.bytes += replayed.bytes;
    }

    fn build_participants(&mut self, scenario: &Scenario) -> Vec<Participant> {
        // One proof per (node, neighbour) pair.
        self.values.add("runner.proofs_signed", 2.0 * scenario.topology().edge_count() as f64);
        self.tracer.span("runner.build_participants", || scenario.build_participants())
    }

    /// What becomes of a fleet once dissemination is over: its counters are
    /// read, it decides, it is replayed (a trace-only stage), and it is
    /// dropped — here, inside the run, because the untraced run pays for
    /// freeing 10 000 nodes' state too.
    fn decide(
        &mut self,
        scenario: &Scenario,
        key_seed: u64,
        participants: Vec<Participant>,
        seen: Observed,
        known_before: usize,
        oracle: &mut ConnectivityOracle,
    ) -> (BTreeMap<NodeId, Decision>, OracleStats) {
        self.accepted_edges += (known_edges(&participants) - known_before) as u64;
        self.node_busy_ns += seen.busy_ns();
        let rejections: u64 =
            participants.iter().flat_map(|p| p.nectar().rejections().values()).sum();
        self.values.add("node.rejections", rejections as f64);
        self.values.add("node.sends", seen.sends as f64);
        self.values.add("node.receives", seen.receives as f64);
        self.values.add("node.send_ms", seen.send_ns as f64 / 1e6);
        self.values.add("node.receive_ms", seen.receive_ns as f64 / 1e6);
        self.values.add("node.edges_received", seen.edges as f64);
        self.values.add("chain.links_delivered", seen.links as f64);

        // The sampled deliveries are replayed and dropped *before* the
        // decision phase: left alive, their scattered payloads change where
        // the phase's short-lived view graphs land in the heap and cost it
        // 10-35% on a 10k fleet.
        self.replay(|values| replay_deliveries(participants.len(), key_seed, seen, values));

        let allocs_before = procfs::allocations();
        let (decisions, stats) = self
            .tracer
            .span("decision.collect", || scenario.collect_decisions(&participants, oracle, 1));
        self.values.add("decision.allocs", procfs::allocations().since(allocs_before).count as f64);
        self.values.add("oracle.queries", stats.queries as f64);
        self.values.add("oracle.cache_hits", stats.cache_hits as f64);
        self.values.add(
            "oracle.shortcuts",
            (stats.structure_shortcuts + stats.min_degree_shortcuts) as f64,
        );
        self.values.add("oracle.bounded_flows", stats.bounded_flows as f64);

        self.replay(|values| replay_views(scenario, &participants, values));
        self.tracer.span("runner.drop_participants", || drop(participants));
        (decisions, stats)
    }

    /// `MatrixSpec::run`, staged per trial. The aggregation mirrors
    /// `run_cell`; the JSON comparison with the untraced run keeps the two
    /// from drifting apart.
    fn matrix(&mut self, spec: &MatrixSpec) -> Result<String, String> {
        let mut oracle = ConnectivityOracle::new();
        let mut truth_oracle = ConnectivityOracle::new();
        let mut cells = Vec::new();
        for family in &spec.families {
            for &n in &spec.sizes {
                for cast_spec in &spec.casts {
                    let mut stats = CellStats::default();
                    let mut rounds = Vec::with_capacity(spec.trials);
                    for trial in 0..spec.trials {
                        let seed = spec.base_seed + trial as u64;
                        let g = self.tracer.span("graph.gen", || family.build(n, seed))?;
                        let truth_partitionable = self
                            .tracer
                            .span("graph.truth", || truth_oracle.is_t_partitionable(&g, spec.t));
                        let scenario = self.tracer.span("matrix.cast", || {
                            let mut scenario = Scenario::new(g.clone(), spec.t).with_key_seed(seed);
                            for (node, behavior) in cast_spec.cast(&g, spec.t, seed) {
                                scenario = scenario.with_byzantine(node, behavior);
                            }
                            scenario
                        });
                        let sim = self.tracer.begin("matrix.sim");
                        let report = self.sim(&scenario, seed, spec.runtime, None, &mut oracle);
                        self.tracer.end(sim);

                        let aggregate = self.tracer.begin("matrix.aggregate");
                        stats.trials += 1;
                        stats.truth_partitionable += usize::from(truth_partitionable);
                        stats.agreement_failures += usize::from(!report.agreement());
                        let any = |verdict: Verdict| {
                            report.decisions().values().any(|d| d.verdict == verdict)
                        };
                        let unanimous = report.unanimous_verdict();
                        stats.detected += usize::from(
                            truth_partitionable && unanimous == Some(Verdict::Partitionable),
                        );
                        stats.false_positives +=
                            usize::from(!truth_partitionable && any(Verdict::Partitionable));
                        stats.false_negatives +=
                            usize::from(truth_partitionable && any(Verdict::NotPartitionable));
                        stats.confirmed += usize::from(report.last().any_confirmed());
                        rounds.push(report.metrics().bytes_per_round().len());
                        stats.total_msgs += report.metrics().msgs_sent().iter().sum::<u64>();
                        stats.total_bytes += report.metrics().total_bytes_sent();
                        stats.oracle_queries += report.oracle().queries;
                        stats.oracle_cache_hits += report.oracle().cache_hits;
                        self.tracer.end(aggregate);
                    }
                    rounds.sort_unstable();
                    stats.median_rounds = rounds.get(rounds.len() / 2).copied().unwrap_or(0);
                    cells.push(MatrixCell {
                        family: family.name(),
                        n,
                        cast: cast_spec.name(),
                        stats,
                    });
                }
            }
        }
        let report = MatrixReport {
            runtime: spec.runtime,
            t: spec.t,
            trials: spec.trials,
            base_seed: spec.base_seed,
            cells,
        };
        Ok(self.render_json(|| report.to_json()))
    }

    /// Turns span totals into the `*_ms` layer metrics and the ratios.
    fn read_spans(&mut self) {
        let replay_ms = self.tracer.total_ms(REPLAY_SPAN);
        self.wall_ms = self.tracer.total_ms("run") - replay_ms;
        for (span, metric) in [
            ("scenario.parse", "scenario.parse_ms"),
            ("scenario.compile", "scenario.compile_ms"),
            ("runner.build_participants", "runner.build_participants_ms"),
            ("schedule.compile", "schedule.compile_ms"),
            ("decision.collect", "decision.collect_ms"),
            ("report.to_json", "report.to_json_ms"),
            ("graph.gen", "graph.gen_ms"),
            ("graph.truth", "graph.truth_ms"),
            ("matrix.cast", "matrix.cast_ms"),
        ] {
            self.values.set(metric, Some(self.tracer.total_ms(span)));
        }
        // An engine's (or the transport's) self time is its span minus the
        // time inside the outermost process wrappers; the schedule layer's
        // is what the outer wrappers saw beyond the inner ones. A span that
        // never opened totals 0, so the other of the two reads 0.
        let outer_ms = self.outer_busy_ns as f64 / 1e6;
        let self_ms = |span| Some((self.tracer.total_ms(span) - outer_ms).max(0.0));
        self.values.set("engine.self_ms", self_ms("engine.run"));
        self.values.set("transport.self_ms", self_ms("transport.run"));
        self.values
            .set("schedule.self_ms", Some((self.outer_busy_ns - self.node_busy_ns) as f64 / 1e6));
        let trials = self.tracer.count("matrix.sim");
        if trials > 0 {
            // Every replay span of a matrix run sits inside a trial's span.
            let sim_ms = self.tracer.total_ms("matrix.sim") - replay_ms;
            self.values.set("matrix.sim_ms", Some(sim_ms));
            self.values.set("matrix.trial_us", Some(self.wall_ms * 1e3 / trials as f64));
            self.values.set("matrix.overhead_ratio", Some((self.wall_ms - sim_ms) / self.wall_ms));
        }
        let ratio = |values: &Values, n, d| Some(values.ratio(n, d));
        let v = &mut self.values;
        v.set("node.receive_us_per_msg", Some(v.ratio("node.receive_ms", "node.receives") * 1e3));
        let edges = v.get("node.edges_received");
        if edges > 0.0 {
            v.set("node.accept_ratio", Some(self.accepted_edges as f64 / edges));
        }
        v.set("chain.mean_len", ratio(v, "chain.links_delivered", "node.edges_received"));
        v.set("chain.memo_leverage", ratio(v, "chain.verify_naive_ms", "node.receive_ms"));
        v.set("oracle.hit_ratio", ratio(v, "oracle.cache_hits", "oracle.queries"));
        v.set(
            "decision.us_per_class",
            Some(v.ratio("decision.collect_ms", "decision.classes") * 1e3),
        );
    }

    /// Time under the root span's stages, less the replays: what
    /// `trace.coverage` compares with the untraced run.
    pub fn staged_ms(&self) -> f64 {
        self.tracer.children_ms(0) - self.tracer.total_ms(REPLAY_SPAN)
    }
}

/// The span of the trace's own replay work. It sits inside the run (the
/// fleet it replays is dropped right after, as in the untraced run) and is
/// subtracted wherever a time is compared with the untraced run.
const REPLAY_SPAN: &str = "trace.replay";

fn known_edges(participants: &[Participant]) -> usize {
    participants.iter().map(|p| p.nectar().known_edge_count()).sum()
}

/// Replays the sampled deliveries of a finished fleet through the public
/// crypto, codec and frame calls, and consumes them.
fn replay_deliveries(n: usize, key_seed: u64, seen: Observed, values: &mut Values) {
    let start = Instant::now();
    let keys = KeyStore::generate(n, key_seed);
    values.add("keys.keygen_ms", ms_since(start));
    let verifier = keys.verifier();

    let sampled_edges: usize = seen.sample.iter().map(|m| m.edges.len()).sum();
    if sampled_edges > 0 {
        // Scale the sample back up to everything delivered.
        let scale = seen.edges as f64 / sampled_edges as f64;
        // What `receive` would cost with no memo and no flooding
        // suppression: every delivered proof and chain verified.
        let start = Instant::now();
        for edge in seen.sample.iter().flat_map(|m| &m.edges) {
            let digest = edge.proof.digest();
            black_box(edge.proof.verify(&verifier) && edge.chain.verify(&verifier, &digest));
        }
        values.add("chain.verify_naive_ms", ms_since(start) * scale);

        let start = Instant::now();
        let wires: Vec<Vec<u8>> = seen.sample.iter().map(Encode::to_wire_bytes).collect();
        values.add("codec.encode_ms", ms_since(start) * scale);
        values.add("codec.bytes", wires.iter().map(Vec::len).sum::<usize>() as f64 * scale);

        let start = Instant::now();
        for wire in &wires {
            let mut rest = wire.as_slice();
            black_box(NectarMsg::decode(&mut rest).expect("an encoded message decodes"));
        }
        values.add("codec.decode_ms", ms_since(start) * scale);

        // The frame layer as the loopback transport uses it: encode a Data
        // frame, feed the bytes to a streaming decoder.
        let start = Instant::now();
        let mut decoder = FrameBuffer::new();
        for payload in wires {
            decoder.extend(&Frame::Data { from: 0, round: 1, payload }.to_wire_bytes());
            black_box(decoder.next_frame().expect("an encoded frame decodes"));
        }
        values.add("frame.roundtrip_ms", ms_since(start) * scale);
    }
}

/// Replays each distinct final view of a correct node: materialised, then
/// answered by a fresh oracle (cold) and again (warm: the fingerprint cache).
fn replay_views(scenario: &Scenario, participants: &[Participant], values: &mut Values) {
    let (t, byzantine) = (scenario.config().t, scenario.byzantine_nodes());
    let mut oracle = ConnectivityOracle::new();
    let mut classes = HashSet::new();
    for node in participants.iter().map(Participant::nectar) {
        if byzantine.contains(&node.node_id()) || !classes.insert(node.view_fingerprint()) {
            continue;
        }
        let start = Instant::now();
        let view = node.discovered_graph();
        values.add("graph.discovered_graph_ms", ms_since(start));
        let start = Instant::now();
        black_box(oracle.answer(&view, t));
        values.add("oracle.cold_ms", ms_since(start));
        let start = Instant::now();
        black_box(oracle.answer(&view, t));
        values.add("oracle.warm_ms", ms_since(start));
    }
    values.add("decision.classes", classes.len() as f64);
}

/// Best of two timings of `f`, in milliseconds.
fn best_of_two(mut f: impl FnMut()) -> f64 {
    (0..2)
        .map(|_| {
            let start = Instant::now();
            f();
            ms_since(start)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Side measurements that compare whole alternatives rather than stages:
/// the parallel engine against the event engine on the same dissemination,
/// loopback against the sync engine, and a real socket round.
///
/// # Errors
///
/// Scenario or socket errors, as text.
pub fn probes(input: &Input, untraced_min_ms: f64, values: &mut Values) -> Result<(), String> {
    let Input::Scenario(text) = input else { return Ok(()) };
    let compiled = workload::compile(text)?;
    let scenario = compiled.scenario();
    let disseminate = |runtime: Runtime| {
        best_of_two(|| {
            let mut sim = scenario.sim().runtime(runtime).metrics_only();
            if let Some(schedule) = &compiled.schedule {
                sim = sim.schedule(schedule.clone());
            }
            black_box(sim.run());
        })
    };
    let parallel = disseminate(Runtime::Parallel { workers: 2 });
    values.set("engine.parallel2_over_event", Some(parallel / disseminate(Runtime::Event)));
    if compiled.transport == TransportKind::Loopback {
        let sync = best_of_two(|| {
            black_box(compiled.run_report().to_json());
        });
        values.set("transport.loopback_over_sync", Some(untraced_min_ms / sync));
        values.set("transport.uds_round_us", uds::round_us(UDS_ROUNDS)?);
    }
    Ok(())
}

/// Rounds the socket probe drives (each is one barrier exchange).
const UDS_ROUNDS: usize = 200;

#[cfg(unix)]
mod uds {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    use nectar_net::{ConnectConfig, NodeDriver, SocketTransport};

    use crate::workload;

    /// A directory for socket files, removed when dropped — on return, on
    /// an error and while a panic unwinds alike.
    struct SocketDir(PathBuf);

    impl SocketDir {
        /// Created beside the running executable, so it is inside the
        /// checkout (the build directory) whatever the working directory
        /// is, and named relative to it where possible: a socket path must
        /// fit in ~100 bytes.
        fn create() -> Result<SocketDir, String> {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let beside = exe.parent().ok_or("the executable has no directory")?;
            let base = std::env::current_dir()
                .ok()
                .and_then(|cwd| beside.strip_prefix(cwd).ok())
                .unwrap_or(beside);
            let unique = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = base.join(format!("uds-{}-{unique}", std::process::id()));
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            Ok(SocketDir(dir))
        }
    }

    impl Drop for SocketDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Microseconds per round of a 2-node fleet over Unix domain sockets:
    /// two threads, each a `NodeDriver` over `SocketTransport::uds`. After
    /// round 1 the nodes have nothing to say, so a round is the barrier —
    /// one `RoundEnd` frame each way through the kernel.
    pub fn round_us(rounds: usize) -> Result<Option<f64>, String> {
        let scenario = workload::compile("nodes 2\nedge 0 1\nt 1\n")?.scenario();
        let dir = SocketDir::create()?;
        let paths = [dir.0.join("0"), dir.0.join("1")];
        let config = ConnectConfig {
            connect_timeout: Duration::from_secs(10),
            recv_timeout: Duration::from_secs(10),
            ..ConnectConfig::default()
        };
        let walls: Vec<Result<Duration, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = scenario
                .build_participants()
                .into_iter()
                .enumerate()
                .map(|(i, participant)| {
                    let (paths, config) = (&paths, &config);
                    scope.spawn(move || {
                        let peers = [(1 - i, paths[1 - i].clone())];
                        // Returns once both sides have dialled each other,
                        // so the clocks below start together.
                        let transport = SocketTransport::uds(i, &paths[i], &peers, config)
                            .map_err(|e| e.to_string())?;
                        let mut driver = NodeDriver::new(participant, transport);
                        let start = Instant::now();
                        driver.run(rounds).map_err(|e| e.to_string())?;
                        Ok(start.elapsed())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("a socket thread panicked".into())))
                .collect()
        });
        let mut slowest = Duration::ZERO;
        for wall in walls {
            slowest = slowest.max(wall?);
        }
        Ok(Some(slowest.as_secs_f64() * 1e6 / rounds as f64))
    }

    #[cfg(test)]
    mod tests {
        use super::SocketDir;

        #[test]
        fn the_socket_directory_is_removed_on_every_exit_path() {
            let returned = {
                let dir = SocketDir::create().unwrap();
                std::fs::write(dir.0.join("0"), b"").unwrap();
                assert!(dir.0.is_dir());
                dir.0.clone()
            };
            assert!(!returned.exists());
            let mut unwound = std::path::PathBuf::new();
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let dir = SocketDir::create().unwrap();
                unwound = dir.0.clone();
                panic!("mid-probe");
            }));
            assert!(panicked.is_err() && !unwound.as_os_str().is_empty());
            assert!(!unwound.exists());
        }
    }
}

#[cfg(not(unix))]
mod uds {
    pub fn round_us(_rounds: usize) -> Result<Option<f64>, String> {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, Workload};

    #[test]
    fn the_staged_run_reproduces_the_untraced_report_byte_for_byte() {
        for workload in Workload::ALL {
            let input = generate(workload, 11, true);
            let untraced = workload::execute(&input).unwrap();
            let traced = TracedRun::execute(&input).unwrap();
            assert_eq!(traced.json, untraced.json(), "{}", workload.name());
        }
    }

    #[test]
    fn each_layer_works_where_it_should_and_nowhere_else() {
        let run = |workload| TracedRun::execute(&generate(workload, 11, true)).unwrap();
        let flap = run(Workload::FleetFlap);
        assert!(flap.values.get("schedule.transitions") > 0.0);
        assert!(flap.values.get("schedule.drops") > 0.0);
        assert!(flap.values.get("engine.self_ms") > 0.0);
        assert_eq!(flap.values.get("transport.self_ms"), 0.0);
        let sparse = run(Workload::FleetSparse);
        assert_eq!(sparse.values.get("schedule.self_ms"), 0.0);
        assert_eq!(sparse.values.get("schedule.transitions"), 0.0);
        assert_eq!(sparse.values.get("decision.classes"), 4.0);
        let wire = run(Workload::LoopbackWire);
        assert!(wire.values.get("transport.self_ms") > 0.0);
        assert!(wire.values.get("transport.frames") > 0.0);
        assert_eq!(wire.values.get("engine.self_ms"), 0.0);
        assert!(wire.values.get("codec.bytes") > 0.0);
        let matrix = run(Workload::MatrixSweep);
        assert_eq!(matrix.tracer.count("matrix.sim"), 9);
        assert!(matrix.values.get("matrix.overhead_ratio") > 0.0);
        assert!(matrix.values.get("oracle.bounded_flows") > 0.0);
    }

    #[test]
    fn stage_spans_cover_the_root_span() {
        let run = TracedRun::execute(&generate(Workload::PaperHarary, 11, true)).unwrap();
        let staged = run.staged_ms();
        assert!(staged <= run.wall_ms);
        assert!(staged >= 0.9 * run.wall_ms, "stages {staged} ms of {} ms", run.wall_ms);
    }

    #[cfg(unix)]
    #[test]
    fn the_socket_probe_measures_a_round() {
        assert!(uds::round_us(20).unwrap().unwrap() > 0.0);
    }
}
