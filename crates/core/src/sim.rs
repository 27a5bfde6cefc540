//! The one way to execute a scenario: the [`Simulation`] builder.
//!
//! Runtime (with its worker count), shared oracle, metrics-only, epochs,
//! schedule and profile are each one method of a single session API, so a
//! new execution axis adds a method rather than multiplying entry points:
//!
//! ```
//! use nectar_protocol::{Runtime, Scenario};
//!
//! let report = Scenario::new(nectar_graph::gen::cycle(8), 1)
//!     .sim()
//!     .runtime(Runtime::Event)
//!     .epochs(2)
//!     .run();
//! assert!(report.agreement());
//! assert_eq!(report.epochs.len(), 2);
//! ```
//!
//! [`Simulation::run`] finishes in a [`RunReport`] — the persisted session
//! result, serializable to JSON and to the per-node decision CSV (see
//! [`crate::report`]). Everything a watcher of the run could ask for is in
//! it: traffic per committed round (`Metrics::bytes_per_round`), every
//! correct node's verdict in ascending node order — the per-node decision
//! granularity distributed-detection analyses (Kailkhura et al.) treat as
//! the primary experimental output — and the epochs in order.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use nectar_graph::{ConnectivityOracle, OracleStats};
use nectar_net::{CompiledSchedule, PhaseProfile, TopologySchedule};

use crate::byzantine::Participant;
use crate::report::{EpochOutcome, RunReport, ScheduleRecord};
use crate::runner::{Runtime, Scenario};

/// A configured-but-not-yet-executed session over one [`Scenario`]:
/// runtime (with its worker count), shared oracle, epoch count, schedule.
/// Finish with [`run`](Simulation::run) (→ [`RunReport`]) or
/// [`participants`](Simulation::participants) (→ raw protocol state).
///
/// This builder is the seam every future execution axis plugs into
/// (`docs/DETERMINISM.md` has the new-axis checklist): an axis becomes one
/// method here instead of another family of entry points.
pub struct Simulation<'a> {
    scenario: &'a Scenario,
    runtime: Runtime,
    oracle: Option<&'a mut ConnectivityOracle>,
    metrics_only: bool,
    epochs: usize,
    schedule: Option<Arc<CompiledSchedule>>,
    profile: bool,
}

impl Scenario {
    /// Starts a [`Simulation`] over this scenario: sync runtime, private
    /// oracle, one epoch, full decision phase, no schedule, no profiling.
    pub fn sim(&self) -> Simulation<'_> {
        Simulation {
            scenario: self,
            runtime: Runtime::Sync,
            oracle: None,
            metrics_only: false,
            epochs: 1,
            schedule: None,
            profile: false,
        }
    }
}

impl<'a> Simulation<'a> {
    /// Selects the engine executing the propagation rounds (default
    /// [`Runtime::Sync`]), and with [`Runtime::Parallel`] its worker
    /// count. Results are bit-identical on every runtime; only wall-clock
    /// differs.
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Shares a caller-supplied [`ConnectivityOracle`], so repeated
    /// sessions over the same topology — epoch monitoring, experiment
    /// sweeps — answer their decision phases from cached verdicts. The
    /// per-epoch [`EpochOutcome::oracle`] counters cover each epoch only.
    pub fn oracle(mut self, oracle: &'a mut ConnectivityOracle) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Skips the decision phase: the report carries traffic metrics only
    /// (empty decisions, zero oracle counters). The cost figures
    /// (Figs. 3–7) measure dissemination traffic alone, and skipping the
    /// per-view connectivity work keeps large sweeps fast.
    pub fn metrics_only(mut self) -> Self {
        self.metrics_only = true;
        self
    }

    /// Runs `epochs` monitoring epochs over the same topology: epoch `e`
    /// uses key seed `base + e` (fresh keys per epoch, the
    /// footnote-2 deployment pattern), and all epochs share one oracle so
    /// unchanged topologies decide from cache.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    pub fn epochs(mut self, epochs: usize) -> Self {
        assert!(epochs >= 1, "a simulation runs at least one epoch");
        self.epochs = epochs;
        self
    }

    /// Runs the session under a [`TopologySchedule`]: scripted edge
    /// drops/heals, node churn, partitions and per-link loss/delay windows
    /// applied at the round-commit barrier, bit-identically on every
    /// runtime at any worker count (the schedule axis of
    /// `docs/DETERMINISM.md` §4). The schedule re-applies identically in
    /// each epoch, and the report records the applied script plus every
    /// resolved edge transition.
    ///
    /// The schedule is validated and compiled against the scenario
    /// topology here, once per session however many epochs it runs.
    /// Callers with untrusted input validate first via
    /// `TopologySchedule::compile`, and can then hand that compilation to
    /// [`compiled_schedule`](Self::compiled_schedule) instead of having the
    /// session compile the script again.
    ///
    /// # Panics
    ///
    /// Panics with "schedule rejected: …" on an inconsistent schedule (an
    /// unknown edge, a heal without a drop, an out-of-range probability).
    pub fn schedule(mut self, schedule: TopologySchedule) -> Self {
        let compiled = schedule
            .compile(self.scenario.topology())
            .unwrap_or_else(|e| panic!("schedule rejected: {e}"));
        self.schedule = Some(Arc::new(compiled));
        self
    }

    /// [`schedule`](Self::schedule) with the compile already done: runs
    /// the session under `compiled` (its
    /// [`schedule`](CompiledSchedule::schedule) is the script the report
    /// records). A scenario file's schedule is validated by compiling it
    /// once, in `ScenarioSpec::compile`, and its `run_report` runs on that
    /// compilation through here.
    ///
    /// # Panics
    ///
    /// Panics if `compiled` was compiled against another topology than the
    /// scenario's.
    pub fn compiled_schedule(mut self, compiled: Arc<CompiledSchedule>) -> Self {
        assert!(
            compiled.base() == self.scenario.topology(),
            "schedule compiled against another topology than the scenario's"
        );
        self.schedule = Some(compiled);
        self
    }

    /// Records a per-phase wall-clock breakdown
    /// ([`PhaseProfile`]: dissemination, then the decision phase)
    /// into each epoch's [`EpochOutcome::profile`]. Off by default — the
    /// timings are wall clock and therefore nondeterministic, so profiled
    /// reports are excluded from bit-identical cross-runtime comparison;
    /// everything else in the report (decisions, metrics, oracle counters)
    /// stays canonical. The CLI exposes this as `--profile`.
    pub fn profile(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Executes the session and returns its [`RunReport`].
    ///
    /// # Panics
    ///
    /// Panics if a `FictitiousEdges` / `LateReveal` behaviour names
    /// non-Byzantine accomplices.
    pub fn run(self) -> RunReport {
        let Simulation { scenario, runtime, oracle, metrics_only, epochs, schedule, profile } =
            self;
        let mut own_oracle = ConnectivityOracle::new();
        let oracle = match oracle {
            Some(shared) => shared,
            None => &mut own_oracle,
        };
        let base_seed = scenario.key_seed();
        let mut epoch_outcomes = Vec::with_capacity(epochs);
        for epoch in 0..epochs {
            let key_seed = base_seed + epoch as u64;
            let start = Instant::now();
            let (participants, metrics) = scenario.propagate(runtime, key_seed, schedule.as_ref());
            let disseminated = start.elapsed();
            let (decisions, oracle_stats) = if metrics_only {
                (BTreeMap::new(), OracleStats::default())
            } else {
                scenario.collect(&participants, oracle)
            };
            epoch_outcomes.push(EpochOutcome {
                epoch,
                key_seed,
                decisions,
                metrics,
                oracle: oracle_stats,
                profile: profile.then(|| PhaseProfile {
                    disseminate_micros: disseminated.as_micros() as u64,
                    decide_micros: (start.elapsed() - disseminated).as_micros() as u64,
                }),
            });
        }
        RunReport {
            runtime,
            n: scenario.config().n,
            t: scenario.config().t,
            key_seed: base_seed,
            byzantine: scenario.byzantine_nodes(),
            // Kept even for metrics-only sessions, so every report is
            // self-contained (ground-truth helpers, full-fidelity
            // persistence). The report shares the scenario's graph: the
            // clone copies no adjacency.
            topology: scenario.topology().clone(),
            schedule: schedule.as_ref().map(|c| ScheduleRecord {
                script: c.schedule().to_script(),
                transitions: c
                    .transition_rounds()
                    .flat_map(|r| c.transitions_at(r).iter().map(move |&(u, v, up)| (r, u, v, up)))
                    .collect(),
            }),
            epochs: epoch_outcomes,
        }
    }

    /// Executes the propagation rounds only and returns the raw
    /// participants (full protocol state, in node order) — for tests and
    /// experiments that inspect per-node views. Honors the configured
    /// runtime and schedule; there is no decision phase, so the oracle,
    /// epoch count and metrics-only settings do not apply.
    ///
    /// # Panics
    ///
    /// Panics if a `FictitiousEdges` / `LateReveal` behaviour names
    /// non-Byzantine accomplices.
    pub fn participants(self) -> Vec<Participant> {
        self.scenario.propagate(self.runtime, self.scenario.key_seed(), self.schedule.as_ref()).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::ByzantineBehavior;
    use crate::config::Verdict;
    use nectar_graph::gen;

    #[test]
    fn builder_defaults_match_the_sync_engine() {
        let report = Scenario::new(gen::cycle(6), 1).sim().run();
        assert_eq!(report.runtime, Runtime::Sync);
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.decisions().len(), 6);
        assert!(report.agreement());
        assert_eq!(report.unanimous_verdict(), Some(Verdict::NotPartitionable));
    }

    #[test]
    fn builder_reports_byzantine_cast_and_ground_truth() {
        let report =
            Scenario::new(gen::star(6), 1).with_byzantine(0, ByzantineBehavior::Silent).sim().run();
        assert_eq!(report.unanimous_verdict(), Some(Verdict::Partitionable));
        assert!(report.byzantine.contains(&0));
        assert!(report.byzantine_cast_is_vertex_cut());
        assert_eq!(report.true_connectivity(), 1);
    }

    #[test]
    fn metrics_only_skips_the_decision_phase() {
        let report = Scenario::new(gen::cycle(6), 1).sim().metrics_only().run();
        assert!(report.decisions().is_empty());
        assert_eq!(report.oracle().queries, 0);
        assert!(report.metrics().total_bytes_sent() > 0);
    }

    #[test]
    fn epochs_share_the_session_oracle() {
        let report = Scenario::new(gen::cycle(8), 1).sim().epochs(3).run();
        assert_eq!(report.epochs.len(), 3);
        // Epoch 0 pays the one real query; later epochs decide from cache.
        assert_eq!(report.epochs[0].oracle.cache_hits, 7);
        for epoch in &report.epochs[1..] {
            assert_eq!(epoch.oracle.cache_hits, epoch.oracle.queries);
            assert_eq!(epoch.oracle.bounded_flows, 0);
        }
        // Fresh keys per epoch: seeds advance from the scenario's base.
        assert_eq!(report.epochs[2].key_seed, report.key_seed + 2);
    }

    #[test]
    fn external_oracle_carries_verdicts_across_sessions() {
        let scenario = Scenario::new(gen::cycle(6), 1);
        let mut oracle = ConnectivityOracle::new();
        let first = scenario.sim().oracle(&mut oracle).run();
        let second = scenario.sim().oracle(&mut oracle).run();
        assert_eq!(first.decisions(), second.decisions());
        assert_eq!(second.oracle().cache_hits, second.oracle().queries);
    }

    #[test]
    fn participants_expose_raw_protocol_state() {
        let participants = Scenario::new(gen::cycle(5), 1).sim().participants();
        assert_eq!(participants.len(), 5);
        for (i, p) in participants.iter().enumerate() {
            assert_eq!(p.nectar().node_id(), i);
        }
    }

    #[test]
    fn a_compiled_schedule_runs_as_its_script_does() {
        let scenario = Scenario::new(gen::cycle(6), 1);
        let schedule = TopologySchedule::new().drop_edge(1, 0, 1).heal_edge(3, 0, 1);
        let compiled = Arc::new(schedule.compile(scenario.topology()).unwrap());
        let report = scenario.sim().compiled_schedule(compiled).epochs(2).run();
        assert_eq!(report, scenario.sim().schedule(schedule).epochs(2).run());
        assert_eq!(report.schedule.unwrap().transitions, vec![(1, 0, 1, false), (3, 0, 1, true)]);
    }

    #[test]
    #[should_panic(expected = "another topology")]
    fn a_schedule_compiled_for_another_topology_is_rejected() {
        let compiled = TopologySchedule::new().drop_edge(1, 0, 1).compile(&gen::cycle(6)).unwrap();
        let _ = Scenario::new(gen::path(6), 1).sim().compiled_schedule(Arc::new(compiled));
    }

    #[test]
    #[should_panic(expected = "schedule rejected")]
    fn an_inconsistent_schedule_is_rejected_when_handed_over() {
        // (0, 2) is no edge of the cycle; the builder refuses it before
        // any run.
        let _ = Scenario::new(gen::cycle(6), 1)
            .sim()
            .schedule(TopologySchedule::new().drop_edge(1, 0, 2));
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn zero_epochs_is_rejected() {
        let _ = Scenario::new(gen::cycle(4), 1).sim().epochs(0);
    }
}
