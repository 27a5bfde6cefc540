//! Persisted run reports: the session result of
//! [`Simulation::run`](crate::sim::Simulation::run).
//!
//! A [`RunReport`] is the thing a run hands back: scenario parameters, the
//! ground-truth topology, the Byzantine cast, and one [`EpochOutcome`] per
//! monitoring epoch (decisions, traffic counters, oracle counters). It
//! *persists* in two hand-rolled text forms:
//!
//! * **JSON** ([`RunReport::to_json`] / [`RunReport::from_json`]) —
//!   loss-free, versioned ([`REPORT_CODEC_VERSION`]) and human-greppable,
//!   the format behind the `report <path>` sink and `nectar-cli detect
//!   --json`;
//! * **CSV** ([`RunReport::to_csv`]) — the per-node decision stream
//!   (`epoch,node,verdict,confirmed,reachable,connectivity`), the
//!   machine-readable per-node granularity the evaluation analyses
//!   consume. CSV is an export only: it carries decisions, by design, and
//!   is never read back; JSON is the form that persists and reloads.
//!
//! Next to the ground-truth helpers sits the one statement of Definition 3
//! in the code, [`RunReport::definition3_violations`]: the §V-D figure,
//! the model check and the property suites all judge runs by it.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use nectar_graph::{connectivity, traversal, ConnectivityOracle, Graph, OracleStats};
use nectar_net::{Metrics, NodeId, PhaseProfile};

use crate::config::{Decision, Verdict, MAX_NODES};
use crate::runner::Runtime;

/// Version tag of the persisted JSON report (bumped on incompatible
/// changes). Version 2 added the
/// applied topology schedule and the `schedule_drops` metrics counter;
/// version 3 added the optional per-phase wall-clock profile.
pub const REPORT_CODEC_VERSION: u16 = 3;

/// Header of the per-node decision CSV stream that [`RunReport::to_csv`]
/// writes (what `nectar-cli detect --csv` prints).
pub const DECISIONS_CSV_HEADER: &str = "epoch,node,verdict,confirmed,reachable,connectivity";

/// The topology schedule a session ran under, as persisted in its
/// [`RunReport`]: the script itself (re-parseable with
/// `TopologySchedule::parse`) plus the compiled per-event timing — every
/// edge transition the schedule actually produced, in the order it took
/// effect. The same schedule re-applies identically in every epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleRecord {
    /// The schedule in its text format (`TopologySchedule::to_script`).
    pub script: String,
    /// Resolved edge transitions `(round, u, v, up)` with `u < v`, in
    /// (round, edge) order — the compiled ground truth of when each link
    /// actually changed state.
    pub transitions: Vec<(usize, NodeId, NodeId, bool)>,
}

/// A property of Definition 3 that a run can break
/// ([`RunReport::definition3_violations`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Property {
    /// All correct nodes decide the same verdict.
    Agreement,
    /// No correct node clears a graph the cast can partition.
    Safety,
    /// Every correct node clears a `2t`-connected graph.
    Sensitivity,
    /// A confirmed partition is a real one.
    Validity,
}

/// Why [`RunReport::definition3_violations`] refuses a report: Definition 3
/// speaks of a static graph and at most `t` Byzantine nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutsideDefinition3 {
    /// The run had a topology schedule.
    Scheduled,
    /// The cast has more members than the budget.
    CastOverBudget {
        /// Members of the cast.
        cast: usize,
        /// The budget `t`.
        t: usize,
    },
}

/// Everything observable from one epoch of a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOutcome {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// The key-universe seed this epoch ran with (`base + epoch`).
    pub key_seed: u64,
    /// Each correct node's decision (empty on metrics-only runs).
    pub decisions: BTreeMap<NodeId, Decision>,
    /// Traffic counters (all nodes, Byzantine included).
    pub metrics: Metrics,
    /// Connectivity-oracle counters for this epoch's decision phase.
    pub oracle: OracleStats,
    /// Per-phase wall-clock breakdown, present only when the session opted
    /// in (`Simulation::profile()` / CLI `--profile`). Wall clock is
    /// nondeterministic, so profiled epochs are never compared bit-for-bit
    /// across runtimes; everything else in the outcome stays canonical.
    pub profile: Option<PhaseProfile>,
}

impl EpochOutcome {
    /// Whether all correct nodes decided the same verdict (the Agreement
    /// property of Definition 3). Vacuously true on metrics-only epochs.
    pub fn agreement(&self) -> bool {
        let mut verdicts = self.decisions.values().map(|d| d.verdict);
        match verdicts.next() {
            None => true,
            Some(first) => verdicts.all(|v| v == first),
        }
    }

    /// The common verdict if Agreement holds.
    pub fn unanimous_verdict(&self) -> Option<Verdict> {
        self.agreement().then(|| self.decisions.values().next().map(|d| d.verdict)).flatten()
    }

    /// Whether any correct node observed an actual partition.
    pub fn any_confirmed(&self) -> bool {
        self.decisions.values().any(|d| d.confirmed)
    }

    /// Fraction of correct nodes whose verdict matches `expected` — the
    /// "decision success rate" of Fig. 8.
    pub fn success_rate(&self, expected: Verdict) -> f64 {
        if self.decisions.is_empty() {
            return 1.0;
        }
        let ok = self.decisions.values().filter(|d| d.verdict == expected).count();
        ok as f64 / self.decisions.len() as f64
    }

    /// Mean kilobytes sent per node — the y-axis of Figs. 3–7.
    pub fn mean_kb_sent_per_node(&self) -> f64 {
        self.metrics.mean_bytes_sent_per_node() / 1024.0
    }
}

/// The persisted result of one simulation session: parameters, ground
/// truth, and one [`EpochOutcome`] per epoch (at least one). The
/// convenience accessors ([`decisions`](RunReport::decisions),
/// [`agreement`](RunReport::agreement), …) read the **last** epoch — the
/// current state of a monitoring session; multi-epoch analyses walk
/// [`epochs`](RunReport::epochs) directly.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The engine that executed the session.
    pub runtime: Runtime,
    /// System size (`n`).
    pub n: usize,
    /// Byzantine budget (`t`).
    pub t: usize,
    /// Base key seed (epoch `e` ran with `key_seed + e`).
    pub key_seed: u64,
    /// The Byzantine cast.
    pub byzantine: BTreeSet<NodeId>,
    /// The ground-truth topology (for property checks).
    pub topology: Graph,
    /// The topology schedule the session ran under, if any (applied
    /// identically in every epoch).
    pub schedule: Option<ScheduleRecord>,
    /// Per-epoch outcomes, in epoch order.
    pub epochs: Vec<EpochOutcome>,
}

impl RunReport {
    /// The last epoch's outcome.
    ///
    /// # Panics
    ///
    /// Panics on a report with no epochs (a run always produces at least
    /// one; only hand-built reports can be empty).
    pub fn last(&self) -> &EpochOutcome {
        self.epochs.last().expect("a run report holds at least one epoch")
    }

    /// The last epoch's decisions.
    pub fn decisions(&self) -> &BTreeMap<NodeId, Decision> {
        &self.last().decisions
    }

    /// The last epoch's traffic counters.
    pub fn metrics(&self) -> &Metrics {
        &self.last().metrics
    }

    /// The last epoch's oracle counters.
    pub fn oracle(&self) -> &OracleStats {
        &self.last().oracle
    }

    /// [`EpochOutcome::agreement`] of the last epoch.
    pub fn agreement(&self) -> bool {
        self.last().agreement()
    }

    /// [`EpochOutcome::unanimous_verdict`] of the last epoch.
    pub fn unanimous_verdict(&self) -> Option<Verdict> {
        self.last().unanimous_verdict()
    }

    /// [`EpochOutcome::success_rate`] of the last epoch.
    pub fn success_rate(&self, expected: Verdict) -> f64 {
        self.last().success_rate(expected)
    }

    /// [`EpochOutcome::mean_kb_sent_per_node`] of the last epoch.
    pub fn mean_kb_sent_per_node(&self) -> f64 {
        self.last().mean_kb_sent_per_node()
    }

    /// Ground truth: is the Byzantine cast a vertex cut of the topology
    /// (i.e. is the subgraph of correct nodes partitioned)?
    pub fn byzantine_cast_is_vertex_cut(&self) -> bool {
        let cut: Vec<NodeId> = self.byzantine.iter().copied().collect();
        traversal::is_partitioned_without(&self.topology, &cut)
    }

    /// Ground truth for the Validity property: does *some subset* of the
    /// Byzantine cast form a vertex cut of `G`? This is the reading of
    /// Theorem 2's proof: when a Byzantine node `b0` has no correct
    /// neighbor, `V_b \ {b0}` is a vertex cut separating `b0`, even though
    /// removing all of `V_b` leaves the correct nodes connected. Any subset
    /// cut either separates two correct nodes (then the full cast does too)
    /// or cuts a Byzantine node off the correct component (then the cast
    /// minus that node does), so checking those t + 1 candidates is
    /// exhaustive.
    pub fn byzantine_cast_can_cut(&self) -> bool {
        if self.byzantine_cast_is_vertex_cut() {
            return true;
        }
        let cast: Vec<NodeId> = self.byzantine.iter().copied().collect();
        cast.iter().any(|&b| {
            let others: Vec<NodeId> = cast.iter().copied().filter(|&x| x != b).collect();
            traversal::is_partitioned_without(&self.topology, &others)
        })
    }

    /// Ground truth: the topology's real vertex connectivity.
    pub fn true_connectivity(&self) -> usize {
        connectivity::vertex_connectivity(&self.topology)
    }

    /// Checks every epoch against Definition 3 and returns each property
    /// the run breaks, in [`Property`] order; its `κ(G)` thresholds are
    /// asked of `oracle`, so a sweep over one topology reuses the answers.
    ///
    /// * **Agreement** — in each epoch all correct nodes decide alike;
    /// * **Safety** — no NOT_PARTITIONABLE if the cast is a vertex cut, nor,
    ///   with at most one Byzantine node, if `κ(G) ≤ t`: a lone liar
    ///   cannot forge an edge, so every view is a subgraph of `G`;
    /// * **2t-Sensitivity** — only NOT_PARTITIONABLE if
    ///   `κ(G) ≥ max(2t, 1)` (at `t = 0` a disconnected `G` is rightly
    ///   flagged);
    /// * **Validity** — `confirmed` only if
    ///   [`byzantine_cast_can_cut`](Self::byzantine_cast_can_cut), which
    ///   holds whenever `G` itself is disconnected.
    ///
    /// # Errors
    ///
    /// Refuses a run Definition 3 does not speak about: one under a
    /// topology schedule, or one whose cast exceeds its budget `t`.
    pub fn definition3_violations(
        &self,
        oracle: &mut ConnectivityOracle,
    ) -> Result<Vec<Property>, OutsideDefinition3> {
        let (g, t, cast) = (&self.topology, self.t, self.byzantine.len());
        if self.schedule.is_some() {
            return Err(OutsideDefinition3::Scheduled);
        }
        if cast > t {
            return Err(OutsideDefinition3::CastOverBudget { cast, t });
        }
        let decisions = || self.epochs.iter().flat_map(|e| e.decisions.values());
        let decided = |verdict| decisions().any(|d| d.verdict == verdict);
        let checks = [
            (Property::Agreement, !self.epochs.iter().all(EpochOutcome::agreement)),
            (
                Property::Safety,
                decided(Verdict::NotPartitionable)
                    && (self.byzantine_cast_is_vertex_cut()
                        || cast <= 1 && oracle.is_t_partitionable(g, t)),
            ),
            (
                Property::Sensitivity,
                decided(Verdict::Partitionable)
                    && !oracle.is_t_partitionable(g, (2 * t).max(1) - 1),
            ),
            (
                Property::Validity,
                decisions().any(|d| d.confirmed) && !self.byzantine_cast_can_cut(),
            ),
        ];
        Ok(checks.into_iter().filter_map(|(property, broken)| broken.then_some(property)).collect())
    }

    /// Extracts the last epoch's traffic counters — what a
    /// [`metrics_only`](crate::sim::Simulation::metrics_only) run is for.
    ///
    /// # Panics
    ///
    /// Panics on a report with no epochs.
    pub fn into_metrics(mut self) -> Metrics {
        self.epochs.pop().expect("a run report holds at least one epoch").metrics
    }

    // ---- JSON ----------------------------------------------------------

    /// Serializes the full report as a JSON document (loss-free; parsed
    /// back by [`from_json`](Self::from_json)).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let w = &mut out;
        writeln!(w, "{{").expect("writing to String cannot fail");
        writeln!(w, "  \"version\": {REPORT_CODEC_VERSION},").expect("infallible");
        let workers = match self.runtime {
            Runtime::Parallel { workers } => workers,
            _ => 0,
        };
        writeln!(w, "  \"runtime\": \"{}\", \"workers\": {workers},", self.runtime)
            .expect("infallible");
        writeln!(w, "  \"n\": {}, \"t\": {}, \"key_seed\": {},", self.n, self.t, self.key_seed)
            .expect("infallible");
        writeln!(w, "  \"byzantine\": {},", json_usize_array(self.byzantine.iter().copied()))
            .expect("infallible");
        let edges = self
            .topology
            .edges()
            .map(|(u, v)| format!("[{u}, {v}]"))
            .collect::<Vec<_>>()
            .join(", ");
        writeln!(
            w,
            "  \"topology\": {{\"n\": {}, \"edges\": [{edges}]}},",
            self.topology.node_count()
        )
        .expect("infallible");
        match &self.schedule {
            None => writeln!(w, "  \"schedule\": null,").expect("infallible"),
            Some(s) => {
                let transitions = s
                    .transitions
                    .iter()
                    .map(|&(r, u, v, up)| format!("[{r}, {u}, {v}, {up}]"))
                    .collect::<Vec<_>>()
                    .join(", ");
                writeln!(
                    w,
                    "  \"schedule\": {{\"script\": \"{}\", \"transitions\": [{transitions}]}},",
                    json::escape(&s.script)
                )
                .expect("infallible");
            }
        }
        writeln!(w, "  \"epochs\": [").expect("infallible");
        for (i, e) in self.epochs.iter().enumerate() {
            let sep = if i + 1 == self.epochs.len() { "" } else { "," };
            writeln!(w, "    {{\"epoch\": {}, \"key_seed\": {},", e.epoch, e.key_seed)
                .expect("infallible");
            let decisions = e
                .decisions
                .iter()
                .map(|(node, d)| {
                    format!(
                        "{{\"node\": {node}, \"verdict\": \"{}\", \"confirmed\": {}, \
                         \"reachable\": {}, \"connectivity\": {}}}",
                        d.verdict, d.confirmed, d.reachable, d.connectivity
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(w, "     \"decisions\": [{decisions}],").expect("infallible");
            let m = &e.metrics;
            writeln!(
                w,
                "     \"metrics\": {{\"bytes_sent\": {}, \"msgs_sent\": {}, \
                 \"bytes_received\": {}, \"msgs_received\": {}, \"bytes_per_round\": {}, \
                 \"illegal_sends\": {}, \"schedule_drops\": {}}},",
                json_u64_array(m.bytes_sent()),
                json_u64_array(m.msgs_sent()),
                json_u64_array(m.bytes_received()),
                json_u64_array(m.msgs_received()),
                json_u64_array(m.bytes_per_round()),
                m.illegal_sends(),
                m.schedule_drops()
            )
            .expect("infallible");
            let s = &e.oracle;
            writeln!(
                w,
                "     \"oracle\": {{\"queries\": {}, \"cache_hits\": {}, \
                 \"structure_shortcuts\": {}, \"min_degree_shortcuts\": {}, \
                 \"bounded_flows\": {}, \"early_exits\": {}}},",
                s.queries,
                s.cache_hits,
                s.structure_shortcuts,
                s.min_degree_shortcuts,
                s.bounded_flows,
                s.early_exits
            )
            .expect("infallible");
            match &e.profile {
                None => writeln!(w, "     \"profile\": null}}{sep}").expect("infallible"),
                Some(p) => writeln!(
                    w,
                    "     \"profile\": {{\"disseminate_micros\": {}, \
                     \"decide_micros\": {}}}}}{sep}",
                    p.disseminate_micros, p.decide_micros
                )
                .expect("infallible"),
            }
        }
        writeln!(w, "  ]").expect("infallible");
        writeln!(w, "}}").expect("infallible");
        out
    }

    /// Parses a report back from [`to_json`](Self::to_json) output.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed or version-skewed
    /// input, and on a report with no epochs.
    pub fn from_json(input: &str) -> Result<RunReport, String> {
        let value = json::parse(input)?;
        let obj = value.as_obj("report")?;
        let version = obj.field("version")?.as_u64("version")?;
        if version != REPORT_CODEC_VERSION as u64 {
            return Err(format!("unsupported report version {version}"));
        }
        let workers = obj.field("workers")?.as_u64("workers")? as usize;
        let runtime = match obj.field("runtime")?.as_str("runtime")? {
            "parallel" => Runtime::Parallel { workers },
            name => name.parse::<Runtime>()?,
        };
        let n = obj.field("n")?.as_u64("n")? as usize;
        let t = obj.field("t")?.as_u64("t")? as usize;
        let key_seed = obj.field("key_seed")?.as_u64("key_seed")?;
        let byzantine: BTreeSet<NodeId> = obj
            .field("byzantine")?
            .as_arr("byzantine")?
            .iter()
            .map(|v| v.as_u64("byzantine node").map(|x| x as usize))
            .collect::<Result<_, _>>()?;
        let topo = obj.field("topology")?.as_obj("topology")?;
        let topo_n = topo.field("n")?.as_u64("topology.n")? as usize;
        // Checked before anything of that size is allocated.
        if topo_n != n || n > MAX_NODES {
            return Err(format!("topology.n {topo_n} must equal n {n}, at most {MAX_NODES}"));
        }
        let mut edges = Vec::new();
        for e in topo.field("edges")?.as_arr("topology.edges")? {
            let pair = e.as_arr("edge")?;
            if pair.len() != 2 {
                return Err("edge must be a [u, v] pair".into());
            }
            edges.push((
                pair[0].as_u64("edge endpoint")? as usize,
                pair[1].as_u64("edge endpoint")? as usize,
            ));
        }
        let topology = Graph::from_edges(topo_n, edges).map_err(|e| e.to_string())?;
        let schedule = match obj.field("schedule")? {
            json::Value::Null => None,
            value => {
                let s = value.as_obj("schedule")?;
                let script = s.field("script")?.as_str("schedule.script")?.to_string();
                let mut transitions = Vec::new();
                for t in s.field("transitions")?.as_arr("schedule.transitions")? {
                    let quad = t.as_arr("transition")?;
                    if quad.len() != 4 {
                        return Err("transition must be a [round, u, v, up] quad".into());
                    }
                    transitions.push((
                        quad[0].as_u64("transition round")? as usize,
                        quad[1].as_u64("transition endpoint")? as usize,
                        quad[2].as_u64("transition endpoint")? as usize,
                        quad[3].as_bool("transition up")?,
                    ));
                }
                Some(ScheduleRecord { script, transitions })
            }
        };
        let epoch_values = obj.field("epochs")?.as_arr("epochs")?;
        // Every accessor reads the last epoch; a run always has one.
        if epoch_values.is_empty() {
            return Err("epochs is empty: a run report holds at least one epoch".into());
        }
        let mut epochs = Vec::new();
        for e in epoch_values {
            let e = e.as_obj("epoch")?;
            let mut decisions = BTreeMap::new();
            for d in e.field("decisions")?.as_arr("decisions")? {
                let d = d.as_obj("decision")?;
                decisions.insert(
                    d.field("node")?.as_u64("node")? as usize,
                    Decision {
                        verdict: d.field("verdict")?.as_str("verdict")?.parse()?,
                        confirmed: d.field("confirmed")?.as_bool("confirmed")?,
                        reachable: d.field("reachable")?.as_u64("reachable")? as usize,
                        connectivity: d.field("connectivity")?.as_u64("connectivity")? as usize,
                    },
                );
            }
            let m = e.field("metrics")?.as_obj("metrics")?;
            let u64s = |key: &str| -> Result<Vec<u64>, String> {
                m.field(key)?.as_arr(key)?.iter().map(|v| v.as_u64(key)).collect()
            };
            let per_node = |key: &str| match u64s(key)? {
                v if v.len() == n => Ok(v),
                v => Err(format!("{key} has {} entries, not one per node (n = {n})", v.len())),
            };
            let metrics = Metrics::from_parts(
                per_node("bytes_sent")?,
                per_node("msgs_sent")?,
                per_node("bytes_received")?,
                per_node("msgs_received")?,
                u64s("bytes_per_round")?,
                m.field("illegal_sends")?.as_u64("illegal_sends")?,
                m.field("schedule_drops")?.as_u64("schedule_drops")?,
            );
            let o = e.field("oracle")?.as_obj("oracle")?;
            let stat = |key: &str| -> Result<u64, String> { o.field(key)?.as_u64(key) };
            let profile = match e.field("profile")? {
                json::Value::Null => None,
                value => {
                    let p = value.as_obj("profile")?;
                    let micros = |key: &str| -> Result<u64, String> { p.field(key)?.as_u64(key) };
                    Some(PhaseProfile {
                        disseminate_micros: micros("disseminate_micros")?,
                        decide_micros: micros("decide_micros")?,
                    })
                }
            };
            epochs.push(EpochOutcome {
                epoch: e.field("epoch")?.as_u64("epoch")? as usize,
                key_seed: e.field("key_seed")?.as_u64("key_seed")?,
                decisions,
                metrics,
                oracle: OracleStats {
                    queries: stat("queries")?,
                    cache_hits: stat("cache_hits")?,
                    structure_shortcuts: stat("structure_shortcuts")?,
                    min_degree_shortcuts: stat("min_degree_shortcuts")?,
                    bounded_flows: stat("bounded_flows")?,
                    early_exits: stat("early_exits")?,
                },
                profile,
            });
        }
        Ok(RunReport { runtime, n, t, key_seed, byzantine, topology, schedule, epochs })
    }

    /// Writes [`to_json`](Self::to_json) to `path` — the persistence hook
    /// behind `nectar-cli detect --report <path>`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads a report persisted by [`save_json`](Self::save_json).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on I/O or parse failure.
    pub fn load_json(path: impl AsRef<std::path::Path>) -> Result<RunReport, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("reading {}: {e}", path.as_ref().display()))?;
        Self::from_json(&text)
    }

    // ---- CSV -----------------------------------------------------------

    /// The per-node decision stream as CSV: header
    /// `epoch,node,verdict,confirmed,reachable,connectivity`, one row per
    /// correct node per epoch, in (epoch, node) order. Carries decisions
    /// only — metrics and ground truth live in the JSON form.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(DECISIONS_CSV_HEADER);
        out.push('\n');
        for e in &self.epochs {
            for (node, d) in &e.decisions {
                writeln!(
                    out,
                    "{},{node},{},{},{},{}",
                    e.epoch, d.verdict, d.confirmed, d.reachable, d.connectivity
                )
                .expect("writing to String cannot fail");
            }
        }
        out
    }
}

fn json_u64_array(values: &[u64]) -> String {
    let body = values.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    format!("[{body}]")
}

fn json_usize_array(values: impl Iterator<Item = usize>) -> String {
    let body = values.map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
    format!("[{body}]")
}

// ---- minimal JSON reader -----------------------------------------------

/// A tiny recursive-descent JSON reader covering exactly the grammar
/// [`RunReport::to_json`] emits (objects, arrays, strings without exotic
/// escapes, unsigned integers, booleans, null) — enough to round-trip
/// persisted reports without a serde dependency. Public so sibling crates
/// persisting in the same idiom (the experiment matrix's `MatrixReport`)
/// parse with the one shared grammar instead of a second hand-rolled
/// reader.
pub mod json {
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(u64),
        Str(String),
        Arr(Vec<Value>),
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        pub fn as_obj(&self, what: &str) -> Result<&BTreeMap<String, Value>, String> {
            match self {
                Value::Obj(map) => Ok(map),
                other => Err(format!("{what}: expected object, got {other:?}")),
            }
        }

        pub fn as_arr(&self, what: &str) -> Result<&[Value], String> {
            match self {
                Value::Arr(items) => Ok(items),
                other => Err(format!("{what}: expected array, got {other:?}")),
            }
        }

        pub fn as_u64(&self, what: &str) -> Result<u64, String> {
            match self {
                Value::Num(n) => Ok(*n),
                other => Err(format!("{what}: expected number, got {other:?}")),
            }
        }

        pub fn as_bool(&self, what: &str) -> Result<bool, String> {
            match self {
                Value::Bool(b) => Ok(*b),
                other => Err(format!("{what}: expected bool, got {other:?}")),
            }
        }

        pub fn as_str(&self, what: &str) -> Result<&str, String> {
            match self {
                Value::Str(s) => Ok(s),
                other => Err(format!("{what}: expected string, got {other:?}")),
            }
        }
    }

    /// Field lookup on parsed objects.
    pub trait Fields {
        /// The value under `key`.
        ///
        /// # Errors
        ///
        /// Errors when the key is absent.
        fn field(&self, key: &str) -> Result<&Value, String>;
    }

    impl Fields for BTreeMap<String, Value> {
        fn field(&self, key: &str) -> Result<&Value, String> {
            self.get(key).ok_or_else(|| format!("missing field {key}"))
        }
    }

    /// Escapes a string for the JSON subset [`parse`] understands
    /// (backslash, quote and newline — all the schedule script format and
    /// the matrix's family/cast names need).
    pub fn escape(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
    }

    /// How deeply arrays and objects may nest. The documents this crate
    /// and its siblings write nest about 5 deep; the cap keeps a hostile
    /// `[[[[…` from exhausting the stack of the recursive descent.
    const MAX_DEPTH: usize = 64;

    /// Parses one JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending byte offset, also when
    /// arrays and objects nest more than 64 deep.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser { text: input, bytes: input.as_bytes(), at: 0, depth: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.at));
        }
        Ok(value)
    }

    struct Parser<'a> {
        text: &'a str,
        bytes: &'a [u8],
        at: usize,
        /// Arrays and objects open around `at`.
        depth: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self.at < self.bytes.len()
                && matches!(self.bytes[self.at], b' ' | b'\t' | b'\n' | b'\r')
            {
                self.at += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.bytes.get(self.at).copied().ok_or_else(|| "unexpected end of input".to_string())
        }

        fn expect(&mut self, byte: u8) -> Result<(), String> {
            let got = self.peek()?;
            if got != byte {
                return Err(format!(
                    "expected {:?} at byte {}, got {:?}",
                    byte as char, self.at, got as char
                ));
            }
            self.at += 1;
            Ok(())
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek()? {
                b'{' | b'[' if self.depth == MAX_DEPTH => {
                    Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.at))
                }
                b'{' => self.nested(Self::object),
                b'[' => self.nested(Self::array),
                b'"' => Ok(Value::Str(self.string()?)),
                b'0'..=b'9' => self.number(),
                b't' => self.keyword("true", Value::Bool(true)),
                b'f' => self.keyword("false", Value::Bool(false)),
                b'n' => self.keyword("null", Value::Null),
                other => Err(format!("unexpected {:?} at byte {}", other as char, self.at)),
            }
        }

        fn nested(
            &mut self,
            body: fn(&mut Self) -> Result<Value, String>,
        ) -> Result<Value, String> {
            self.depth += 1;
            let value = body(self);
            self.depth -= 1;
            value
        }

        fn keyword(&mut self, word: &str, value: Value) -> Result<Value, String> {
            self.skip_ws();
            if self.bytes[self.at..].starts_with(word.as_bytes()) {
                self.at += word.len();
                Ok(value)
            } else {
                Err(format!("bad keyword at byte {}", self.at))
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            self.skip_ws();
            let start = self.at;
            while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_digit() {
                self.at += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii digits");
            text.parse::<u64>().map(Value::Num).map_err(|_| format!("bad number {text}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                // Copy the run up to the next quote or backslash whole: both
                // are ASCII, so the run ends on a character boundary.
                let run = self.at;
                while self.bytes.get(self.at).is_some_and(|b| !matches!(b, b'"' | b'\\')) {
                    self.at += 1;
                }
                out.push_str(&self.text[run..self.at]);
                let Some(&b) = self.bytes.get(self.at) else {
                    return Err("unterminated string".into());
                };
                self.at += 1;
                if b == b'"' {
                    return Ok(out);
                }
                let Some(&esc) = self.bytes.get(self.at) else {
                    return Err("unterminated escape".into());
                };
                self.at += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    other => return Err(format!("unsupported escape \\{}", other as char)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            if self.peek()? == b'}' {
                self.at += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                let key = self.string()?;
                self.expect(b':')?;
                map.insert(key, self.value()?);
                match self.peek()? {
                    b',' => self.at += 1,
                    b'}' => {
                        self.at += 1;
                        return Ok(Value::Obj(map));
                    }
                    other => {
                        return Err(format!("expected , or }} got {:?}", other as char));
                    }
                }
                self.skip_ws();
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if self.peek()? == b']' {
                self.at += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek()? {
                    b',' => self.at += 1,
                    b']' => {
                        self.at += 1;
                        return Ok(Value::Arr(items));
                    }
                    other => {
                        return Err(format!("expected , or ] got {:?}", other as char));
                    }
                }
            }
        }
    }
}

use json::Fields as _;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::ByzantineBehavior;
    use crate::runner::Scenario;
    use nectar_graph::gen;

    fn sample_report() -> RunReport {
        Scenario::new(gen::harary(4, 10).unwrap(), 2)
            .with_byzantine(3, ByzantineBehavior::Silent)
            .with_key_seed(9)
            .sim()
            .epochs(2)
            .run()
    }

    /// The checker's verdict on `report` after setting every decision to
    /// `verdict` (if given).
    fn violations(mut report: RunReport, verdict: Option<Verdict>) -> Vec<Property> {
        for d in report.epochs.iter_mut().flat_map(|e| e.decisions.values_mut()) {
            d.verdict = verdict.unwrap_or(d.verdict);
        }
        report.definition3_violations(&mut ConnectivityOracle::new()).expect("in Definition 3")
    }

    fn silent(g: Graph, t: usize, cast: &[usize]) -> RunReport {
        let mut scenario = Scenario::new(g, t);
        for &b in cast {
            scenario = scenario.with_byzantine(b, ByzantineBehavior::Silent);
        }
        scenario.sim().run()
    }

    #[test]
    fn each_broken_property_is_named() {
        use Property::*;
        use Verdict::{NotPartitionable as Clear, Partitionable as Flag};
        // κ = 4 = 2t: clearing complies, flagging breaks 2t-Sensitivity.
        assert_eq!(violations(sample_report(), None), []);
        assert_eq!(violations(sample_report(), Some(Flag)), [Sensitivity]);
        // t < κ = 3 < 2t: either verdict complies, a split one does not.
        let mut split = silent(gen::harary(3, 10).unwrap(), 2, &[]);
        assert_eq!(violations(split.clone(), Some(Flag)), []);
        split.epochs[0].decisions.get_mut(&4).unwrap().verdict = Flag;
        assert_eq!(violations(split, None), [Agreement]);
        // The hub cuts the star: flagging complies, clearing breaks Safety.
        assert_eq!(violations(silent(gen::star(6), 1, &[0]), None), []);
        assert_eq!(violations(silent(gen::star(6), 1, &[0]), Some(Clear)), [Safety]);
        // κ(C6) = 2 ≤ t and a lone member that cuts nothing: Safety still
        // forbids clearing, since one liar cannot forge an edge. Two can
        // (the one between them), so only the cut clause binds them.
        assert_eq!(violations(silent(gen::cycle(6), 2, &[0]), Some(Clear)), [Safety]);
        assert_eq!(violations(silent(gen::cycle(6), 2, &[0, 1]), Some(Clear)), []);
        // Nothing cuts a 4-connected graph: a confirmed partition is false.
        let mut confirmed = sample_report();
        confirmed.epochs[1].decisions.get_mut(&0).unwrap().confirmed = true;
        assert_eq!(violations(confirmed, None), [Validity]);
    }

    #[test]
    fn a_disconnected_graph_complies_whatever_the_budget() {
        // t = 0: κ ≥ 2t holds vacuously, yet every node rightly confirms.
        let split = silent(Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap(), 0, &[]);
        assert!(split.decisions().values().all(|d| d.confirmed));
        assert_eq!(violations(split, None), []);
        // Without its isolated member the path stays connected, but the
        // cast minus that member (the empty set) cuts G: Validity holds.
        let isolated = silent(Graph::from_edges(4, [(0, 1), (1, 2)]).unwrap(), 1, &[3]);
        assert!(!isolated.byzantine_cast_is_vertex_cut() && isolated.byzantine_cast_can_cut());
        assert!(isolated.last().any_confirmed());
        assert_eq!(violations(isolated, None), []);
    }

    #[test]
    fn runs_outside_definition3_are_refused() {
        let oracle = &mut ConnectivityOracle::new();
        let drop = nectar_net::TopologySchedule::new().drop_edge(1, 0, 1);
        let scheduled = Scenario::new(gen::cycle(6), 1).sim().schedule(drop).run();
        assert_eq!(scheduled.definition3_violations(oracle), Err(OutsideDefinition3::Scheduled));
        let mut crowded = sample_report();
        crowded.byzantine.extend([0, 1]);
        let over = OutsideDefinition3::CastOverBudget { cast: 3, t: 2 };
        assert_eq!(crowded.definition3_violations(oracle), Err(over));
    }

    #[test]
    fn json_round_trips_losslessly() {
        let report = sample_report();
        let json = report.to_json();
        let parsed = RunReport::from_json(&json).expect("parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn json_round_trips_metrics_only_and_parallel_runtime() {
        let report = Scenario::new(gen::cycle(6), 1)
            .sim()
            .runtime(Runtime::Parallel { workers: 3 })
            .metrics_only()
            .run();
        let parsed = RunReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
        assert_eq!(parsed.runtime, Runtime::Parallel { workers: 3 });
    }

    #[test]
    fn json_rejects_version_skew_and_garbage() {
        let report = sample_report();
        let skewed = report.to_json().replace("\"version\": 3", "\"version\": 99");
        assert!(RunReport::from_json(&skewed).is_err());
        assert!(RunReport::from_json("").is_err());
        assert!(RunReport::from_json("{\"version\": 3}").is_err());
        assert!(RunReport::from_json("nonsense").is_err());
        let json = report.to_json();
        assert!(json.contains("\"runtime\": \"sync\""), "the sample report runs on sync");
        let retired = json.replace("\"runtime\": \"sync\"", "\"runtime\": \"threaded\"");
        assert!(RunReport::from_json(&retired).unwrap_err().contains("unknown runtime threaded"));
    }

    #[test]
    fn profiled_reports_round_trip_on_both_codecs() {
        let report = Scenario::new(gen::cycle(8), 1).sim().epochs(2).profile().run();
        assert!(
            report.epochs.iter().all(|e| e.profile.is_some()),
            "profiled run records a breakdown per epoch"
        );
        let parsed = RunReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
        // Version-3 files written with per-stage decision timings still
        // load: keys the profile no longer has are ignored.
        let staged = report.to_json().replace(
            "\"decide_micros\":",
            "\"classify_micros\": 7, \"derive_micros\": 8, \"materialize_micros\": 9, \
             \"decide_micros\":",
        );
        assert_ne!(staged, report.to_json());
        assert_eq!(RunReport::from_json(&staged).expect("parses"), report);
        // The decision CSV is indifferent to profiling.
        let unprofiled = Scenario::new(gen::cycle(8), 1).sim().epochs(2).run();
        assert_eq!(report.to_csv(), unprofiled.to_csv());
        // Unprofiled runs keep the field absent.
        let plain = sample_report();
        assert!(plain.epochs.iter().all(|e| e.profile.is_none()));
        assert!(plain.to_json().contains("\"profile\": null"));
    }

    #[test]
    fn csv_carries_the_per_node_decision_stream() {
        // Golden: the header, then one row per correct node (node 3 is
        // Byzantine) per epoch, in (epoch, node) order.
        let golden = "epoch,node,verdict,confirmed,reachable,connectivity\n\
                      0,0,NOT_PARTITIONABLE,false,10,3\n\
                      0,1,NOT_PARTITIONABLE,false,10,3\n\
                      0,2,NOT_PARTITIONABLE,false,10,3\n\
                      0,4,NOT_PARTITIONABLE,false,10,3\n\
                      0,5,NOT_PARTITIONABLE,false,10,3\n\
                      0,6,NOT_PARTITIONABLE,false,10,3\n\
                      0,7,NOT_PARTITIONABLE,false,10,3\n\
                      0,8,NOT_PARTITIONABLE,false,10,3\n\
                      0,9,NOT_PARTITIONABLE,false,10,3\n\
                      1,0,NOT_PARTITIONABLE,false,10,3\n\
                      1,1,NOT_PARTITIONABLE,false,10,3\n\
                      1,2,NOT_PARTITIONABLE,false,10,3\n\
                      1,4,NOT_PARTITIONABLE,false,10,3\n\
                      1,5,NOT_PARTITIONABLE,false,10,3\n\
                      1,6,NOT_PARTITIONABLE,false,10,3\n\
                      1,7,NOT_PARTITIONABLE,false,10,3\n\
                      1,8,NOT_PARTITIONABLE,false,10,3\n\
                      1,9,NOT_PARTITIONABLE,false,10,3\n";
        assert_eq!(sample_report().to_csv(), golden);
    }

    #[test]
    fn save_and_load_json_persist_to_disk() {
        let report = sample_report();
        let path = std::env::temp_dir().join("nectar-report-roundtrip.json");
        report.save_json(&path).expect("writes");
        let loaded = RunReport::load_json(&path).expect("loads");
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, report);
    }
}
