//! Scenario builder and runner: NECTAR over any topology with any Byzantine
//! cast, on any runtime — the execution harness behind the paper's
//! evaluation campaigns (§V).
//!
//! This is the entry point the experiments, examples and integration tests
//! share. A [`Scenario`] owns the topology, the protocol parameters and the
//! Byzantine assignment; [`Scenario::sim`] starts the
//! [`Simulation`](crate::sim::Simulation) builder that executes the
//! propagation rounds and collects every correct node's decision plus
//! traffic metrics into a [`RunReport`](crate::report::RunReport). The
//! [`Runtime`] enum selects the execution engine — deterministic sync, or
//! the event-driven loop that hosts 10k+-node topologies, on one thread or
//! fanned out over every core — and all produce bit-identical results
//! (enforced by the cross-runtime equivalence property suite; the contract
//! lives in `docs/DETERMINISM.md`).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use nectar_crypto::{KeyStore, NeighborhoodProof, Verifier};
use nectar_graph::{traversal, ConnectivityOracle, Fingerprint, Graph, OracleStats};
use nectar_net::{
    parallel_map, CompiledSchedule, EventNetwork, Metrics, Mute, NodeId, Process, Scheduled,
    SyncNetwork,
};

use crate::byzantine::{falsify_flips, ByzantineBehavior, Participant};
use crate::config::{Decision, NectarConfig, MAX_NODES};
use crate::node::NectarNode;

/// Which engine executes a scenario's propagation rounds. Every variant
/// runs the same [`Participant`] code and produces bit-identical
/// [`RunReport`](crate::report::RunReport)s; they differ only in
/// scheduling:
///
/// * [`Sync`](Runtime::Sync) polls every node every round — the simple
///   deterministic baseline for tests and small sweeps;
/// * [`Event`](Runtime::Event) runs an [`EventNetwork`]: it polls only the
///   active nodes and commits each round's deliveries as one sorted vector
///   — hosting 10 000+-node topologies in one process;
/// * [`Parallel`](Runtime::Parallel) runs the same [`EventNetwork`] with
///   each round's polls and deliveries fanned out over `workers` threads
///   pulling from one shared queue of blocks (see `docs/DETERMINISM.md` §3
///   for why the per-round commit keeps this bit-identical); `parallel:1`
///   is `Event`.
///   The worker count never affects results, only wall-clock; participant
///   construction (proof signing) fans out over the same number of
///   workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Runtime {
    /// Deterministic single-threaded round engine.
    #[default]
    Sync,
    /// Single-threaded active-set loop, one sorted delivery vector per round.
    Event,
    /// The event loop, each round fanned out over a worker pool.
    Parallel {
        /// Worker threads; `0` means "match the machine"
        /// (see [`nectar_net::resolve_workers`]).
        workers: usize,
    },
}

impl Runtime {
    /// [`Parallel`](Runtime::Parallel) with the worker count matched to the
    /// machine.
    pub fn parallel() -> Runtime {
        Runtime::Parallel { workers: 0 }
    }

    /// Worker threads the engine and participant construction fan out
    /// over under this runtime (1 = inline, as `sync` and `event` run).
    pub(crate) fn workers(self) -> usize {
        match self {
            Runtime::Parallel { workers } => nectar_net::resolve_workers(workers),
            _ => 1,
        }
    }
}

impl std::fmt::Display for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Runtime::Sync => f.write_str("sync"),
            Runtime::Event => f.write_str("event"),
            // An explicit worker count is part of the runtime's identity,
            // so it must survive the Display/FromStr round trip; the
            // match-the-machine default stays plain "parallel".
            Runtime::Parallel { workers: 0 } => f.write_str("parallel"),
            Runtime::Parallel { workers } => write!(f, "parallel:{workers}"),
        }
    }
}

impl std::str::FromStr for Runtime {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sync" => Ok(Runtime::Sync),
            "event" => Ok(Runtime::Event),
            "parallel" => Ok(Runtime::parallel()),
            other => match other.strip_prefix("parallel:") {
                Some(count) => match count.parse() {
                    Ok(workers) => Ok(Runtime::Parallel { workers }),
                    Err(_) => Err(format!("bad parallel worker count {count:?}")),
                },
                None => Err(format!(
                    "unknown runtime {other}; expected sync, event, parallel or \
                     parallel:<workers>"
                )),
            },
        }
    }
}

/// A fully described NECTAR execution: topology, parameters, Byzantine cast.
#[derive(Debug, Clone)]
pub struct Scenario {
    topology: Graph,
    config: NectarConfig,
    byzantine: BTreeMap<NodeId, ByzantineBehavior>,
    key_seed: u64,
}

impl Scenario {
    /// A scenario over `topology` tolerating up to `t` Byzantine nodes,
    /// with paper-default parameters.
    ///
    /// # Panics
    ///
    /// Panics if the topology has more than [`MAX_NODES`] nodes (node ids
    /// are `u16` on the wire).
    pub fn new(topology: Graph, t: usize) -> Self {
        assert!(
            topology.node_count() <= MAX_NODES,
            "a fleet of {} nodes exceeds the {MAX_NODES}-node limit (node ids are u16 on the wire)",
            topology.node_count()
        );
        let config = NectarConfig::new(topology.node_count(), t);
        Scenario { topology, config, byzantine: BTreeMap::new(), key_seed: 0x4E45_4354 }
    }

    /// Replaces the protocol configuration (its `n` must match the
    /// topology).
    ///
    /// # Panics
    ///
    /// Panics if `config.n` differs from the topology size.
    pub fn with_config(mut self, config: NectarConfig) -> Self {
        assert_eq!(config.n, self.topology.node_count(), "config.n must match the topology");
        self.config = config;
        self
    }

    /// Seeds the key universe (runs with equal seeds are bit-identical).
    pub fn with_key_seed(mut self, seed: u64) -> Self {
        self.key_seed = seed;
        self
    }

    /// Casts `node` as Byzantine with the given behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range, or if a `FictitiousEdges` /
    /// `LateReveal` behaviour names non-Byzantine accomplices at
    /// [`Simulation::run`](crate::sim::Simulation::run) time.
    pub fn with_byzantine(mut self, node: NodeId, behavior: ByzantineBehavior) -> Self {
        assert!(node < self.topology.node_count(), "byzantine node {node} out of range");
        self.byzantine.insert(node, behavior);
        self
    }

    /// The Byzantine node set.
    pub fn byzantine_nodes(&self) -> BTreeSet<NodeId> {
        self.byzantine.keys().copied().collect()
    }

    /// The scenario's topology.
    pub fn topology(&self) -> &Graph {
        &self.topology
    }

    /// The protocol configuration.
    pub fn config(&self) -> &NectarConfig {
        &self.config
    }

    /// Builds the participant for every node — the exact processes a
    /// runtime executes, Byzantine wrappers included. Public so harnesses
    /// (custom runtimes, the quiescence-soundness audit suite) can drive
    /// them directly; any runtime that delivers messages in the canonical
    /// order of `docs/DETERMINISM.md` reproduces
    /// [`Simulation::run`](crate::sim::Simulation::run)'s report bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if a `FictitiousEdges` / `LateReveal` behaviour names
    /// non-Byzantine accomplices.
    pub fn build_participants(&self) -> Vec<Participant> {
        self.build_participants_keyed(self.key_seed, 1)
    }

    /// [`build_participants`](Self::build_participants) over the
    /// key universe of `key_seed` rather than the scenario's own — how a
    /// multi-epoch session re-keys each epoch — with the per-node work
    /// fanned over `workers` workers (`0` = match the machine, `1` =
    /// inline). The key-universe derivation stays sequential (it is one
    /// seeded stream shared by every node), and [`parallel_map`] preserves
    /// node order, so the participants are bit-identical at any worker
    /// count.
    ///
    /// Each topology edge's proof is signed once (§II: one proof per edge,
    /// signed by both endpoints), in a first pass over its lower endpoint,
    /// and both endpoints hold the same `Arc`, so the proof is also hashed
    /// once when it is relayed.
    fn build_participants_keyed(&self, key_seed: u64, workers: usize) -> Vec<Participant> {
        let n = self.topology.node_count();
        let keys = KeyStore::generate(n, key_seed);
        let verifier = keys.verifier();
        // upper[i]: the proofs of node i's edges to higher ids, ascending.
        let upper: Vec<Vec<Arc<NeighborhoodProof>>> =
            parallel_map((0..n).collect(), workers, |i| {
                self.topology.neighbors(i).filter(|&j| j > i).map(|j| sign(&keys, i, j)).collect()
            });
        parallel_map((0..n).collect(), workers, |i| {
            let proofs = self.topology.neighbors(i).map(|j| {
                let (lo, hi) = (i.min(j), i.max(j));
                let at = upper[lo].binary_search_by_key(&(hi as u16), |p| p.endpoints().1);
                (j, Arc::clone(&upper[lo][at.expect("signed in the first pass")]))
            });
            self.participant(i, proofs.collect(), &keys, &verifier)
        })
    }

    /// The participant for node `i` over its neighbourhood proofs: the
    /// correct node, then the Byzantine wrapping its behaviour asks for.
    fn participant(
        &self,
        i: NodeId,
        proofs: BTreeMap<NodeId, Arc<NeighborhoodProof>>,
        keys: &KeyStore,
        verifier: &Verifier,
    ) -> Participant {
        let mut node = NectarNode::new(
            i,
            self.config.clone(),
            keys.signer(i as u16),
            verifier.clone(),
            proofs,
        );
        match self.byzantine.get(&i) {
            None => Participant::correct(node),
            Some(ByzantineBehavior::Silent) => Participant::muted(node, Mute::From { round: 1 }),
            Some(ByzantineBehavior::CrashAfter { round }) => {
                Participant::muted(node, Mute::From { round: *round })
            }
            Some(ByzantineBehavior::TwoFaced { silent_toward }) => {
                Participant::muted(node, Mute::Toward(silent_toward.clone()))
            }
            Some(ByzantineBehavior::HideEdges { toward }) => {
                for &v in toward {
                    node.hide_edge_to(v);
                }
                Participant::correct(node)
            }
            Some(ByzantineBehavior::FictitiousEdges { partners }) => {
                for &p in partners {
                    assert!(
                        self.byzantine.contains_key(&p),
                        "fictitious edge partner {p} must be Byzantine (§II: proofs \
                         involving a correct node cannot be forged)"
                    );
                    if p != i && !self.topology.has_edge(i, p) {
                        node.announce_extra_proof(NeighborhoodProof::new(
                            &keys.signer(i as u16),
                            &keys.signer(p as u16),
                        ));
                    }
                }
                Participant::correct(node)
            }
            Some(ByzantineBehavior::LateReveal { partner, others }) => {
                assert!(
                    self.byzantine.contains_key(partner),
                    "late-reveal partner {partner} must be Byzantine"
                );
                for o in others {
                    assert!(
                        self.byzantine.contains_key(o),
                        "late-reveal accomplice {o} must be Byzantine"
                    );
                }
                let proof =
                    NeighborhoodProof::new(&keys.signer(i as u16), &keys.signer(*partner as u16));
                let partner_signer = keys.signer(*partner as u16);
                let other_signers: Vec<_> = others.iter().map(|&o| keys.signer(o as u16)).collect();
                let self_signer = keys.signer(i as u16);
                let mut chain_signers = vec![&partner_signer];
                chain_signers.extend(other_signers.iter());
                chain_signers.push(&self_signer);
                Participant::late_reveal(node, proof, &chain_signers)
            }
            Some(ByzantineBehavior::Equivocate { victims }) => {
                Participant::equivocator(node, victims.clone())
            }
            Some(ByzantineBehavior::FalsifyData { flips_per_mille, seed, partners }) => {
                // Fabricated "up" measurements first (they ride the normal
                // announcement machinery), then the send-time "down" flips.
                for &p in partners {
                    assert!(
                        self.byzantine.contains_key(&p),
                        "falsified measurement partner {p} must be Byzantine (§II: proofs \
                         involving a correct node cannot be forged)"
                    );
                    if p != i
                        && !self.topology.has_edge(i, p)
                        && falsify_flips(*seed, i, p, *flips_per_mille)
                    {
                        node.announce_extra_proof(NeighborhoodProof::new(
                            &keys.signer(i as u16),
                            &keys.signer(p as u16),
                        ));
                    }
                }
                Participant::falsifier(node, *flips_per_mille, *seed)
            }
        }
    }

    /// The scenario's key-universe seed.
    pub(crate) fn key_seed(&self) -> u64 {
        self.key_seed
    }

    /// Executes the propagation rounds on the chosen runtime, returning the
    /// final participants and traffic metrics — the one place all runtime
    /// dispatch happens. `key_seed` is the epoch's key universe (the
    /// scenario's own seed for a single-epoch run).
    pub(crate) fn propagate(
        &self,
        runtime: Runtime,
        key_seed: u64,
        schedule: Option<&Arc<CompiledSchedule>>,
    ) -> (Vec<Participant>, Metrics) {
        let participants = self.build_participants_keyed(key_seed, runtime.workers());
        let rounds = self.config.effective_rounds();
        match schedule {
            None => dispatch(runtime, participants, &self.topology, rounds),
            Some(compiled) => {
                // Same dispatch, with every participant behind the schedule
                // wrapper; the wrappers are pure functions of the shared
                // compiled schedule, so engine equivalence is untouched.
                let wrapped = Scheduled::wrap_all(participants, compiled);
                let (wrapped, mut metrics) = dispatch(runtime, wrapped, &self.topology, rounds);
                let drops = wrapped.iter().map(Scheduled::drops).sum();
                metrics.record_schedule_drops(drops);
                (wrapped.into_iter().map(Scheduled::into_inner).collect(), metrics)
            }
        }
    }

    /// The decision phase as a standalone, repeatable pass over borrowed
    /// participants: every correct node's decision plus this pass's share
    /// of the oracle counters — identical decisions and counters to the
    /// decision phase of a full
    /// [`Simulation::run`](crate::sim::Simulation::run) over the same
    /// participants. Public so steady-state consumers — epoch monitors
    /// re-deciding an unchanged fleet, the `collect_scaling` bench — can
    /// re-run decisions without re-running dissemination. `_workers` is
    /// ignored (the phase is one sequential loop); it keeps the signature
    /// the frozen benchmark compiles against.
    pub fn collect_decisions(
        &self,
        participants: &[Participant],
        oracle: &mut ConnectivityOracle,
        _workers: usize,
    ) -> (BTreeMap<NodeId, Decision>, OracleStats) {
        self.collect(participants, oracle)
    }

    /// The decision phase: every correct node's decision, in ascending node
    /// order, plus this run's share of the oracle counters.
    ///
    /// Each node issues its own oracle query under its rolling view
    /// fingerprint, exactly as [`NectarNode::decide_with`] would — the
    /// first node of a view pays, the rest hit the verdict cache without
    /// touching their edge lists (Lemma 2: usually one view) — so decisions
    /// and counters equal node-by-node `decide_with` at any cache capacity.
    /// The one thing shared across nodes here is `reachable`: the component
    /// sizes of a view are derived once, the first time its fingerprint is
    /// seen, for O(n + Σ_views m) overall instead of O(n · m). Keying by
    /// fingerprint accepts the same 2⁻⁶⁴ collision the oracle's verdict
    /// cache always has (docs/DETERMINISM.md §6).
    pub(crate) fn collect(
        &self,
        participants: &[Participant],
        oracle: &mut ConnectivityOracle,
    ) -> (BTreeMap<NodeId, Decision>, OracleStats) {
        let before = *oracle.stats();
        let mut component_sizes: HashMap<Fingerprint, BTreeMap<NodeId, usize>> = HashMap::new();
        let mut decisions = BTreeMap::new();
        for node in participants.iter().map(Participant::nectar) {
            if self.byzantine.contains_key(&node.node_id()) {
                continue;
            }
            let sizes = component_sizes
                .entry(node.view_fingerprint())
                .or_insert_with(|| traversal::edge_component_sizes(node.view_edges()));
            decisions.insert(node.node_id(), node.decide_in_view(oracle, sizes));
        }
        (decisions, oracle.stats().since(&before))
    }
}

/// The proof of the edge `{i, j}`, signed by both endpoints.
fn sign(keys: &KeyStore, i: NodeId, j: NodeId) -> Arc<NeighborhoodProof> {
    Arc::new(NeighborhoodProof::new(&keys.signer(i as u16), &keys.signer(j as u16)))
}

/// Runs `procs` for `rounds` on the chosen engine — the single runtime
/// dispatch shared by scheduled (wrapper-clad) and plain executions.
fn dispatch<P>(
    runtime: Runtime,
    procs: Vec<P>,
    topology: &Graph,
    rounds: usize,
) -> (Vec<P>, Metrics)
where
    P: Process + Send,
    P::Msg: Send,
{
    match runtime {
        Runtime::Sync => {
            let mut net = SyncNetwork::new(procs, topology.clone());
            net.run_rounds(rounds);
            net.into_parts()
        }
        Runtime::Event | Runtime::Parallel { .. } => {
            let mut net = EventNetwork::with_workers(procs, topology.clone(), runtime.workers());
            net.run_rounds(rounds);
            net.into_parts()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Verdict;
    use nectar_graph::gen;

    #[test]
    fn clean_ring_reaches_unanimous_not_partitionable() {
        let out = Scenario::new(gen::cycle(6), 1).sim().run();
        assert!(out.agreement());
        assert_eq!(out.unanimous_verdict(), Some(Verdict::NotPartitionable));
        assert_eq!(out.decisions().len(), 6);
    }

    #[test]
    fn event_driven_run_matches_sync_run() {
        let scenario = Scenario::new(gen::harary(4, 10).unwrap(), 2).with_key_seed(5);
        let a = scenario.sim().run();
        let b = scenario.sim().runtime(Runtime::Event).run();
        assert_eq!(a.decisions(), b.decisions());
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.oracle(), b.oracle());
    }

    #[test]
    fn event_driven_run_matches_sync_under_spontaneous_byzantine_sends() {
        // LateReveal sends *without* receiving first: the quiescence hints
        // must keep it scheduled or the reveal is lost on the event loop.
        let build = || {
            Scenario::new(gen::cycle(7), 2)
                .with_byzantine(0, ByzantineBehavior::LateReveal { partner: 1, others: vec![] })
                .with_byzantine(1, ByzantineBehavior::Silent)
                .with_key_seed(9)
        };
        let a = build().sim().run();
        let b = build().sim().runtime(Runtime::Event).run();
        assert_eq!(a.decisions(), b.decisions());
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn runtime_names_round_trip() {
        for rt in
            [Runtime::Sync, Runtime::Event, Runtime::parallel(), Runtime::Parallel { workers: 7 }]
        {
            assert_eq!(rt.to_string().parse::<Runtime>().unwrap(), rt);
        }
        // An explicit worker count is carried in the name; the
        // match-the-machine default keeps the historical plain form.
        assert_eq!(Runtime::Parallel { workers: 7 }.to_string(), "parallel:7");
        assert_eq!(Runtime::parallel().to_string(), "parallel");
        assert!("warp".parse::<Runtime>().is_err());
        assert!("parallel:".parse::<Runtime>().is_err());
        assert!("parallel:x".parse::<Runtime>().is_err());
        assert_eq!(Runtime::default(), Runtime::Sync);
    }

    #[test]
    fn parallel_run_matches_sync_run_at_any_worker_count() {
        let scenario = Scenario::new(gen::harary(4, 12).unwrap(), 2)
            .with_byzantine(2, ByzantineBehavior::TwoFaced { silent_toward: [7, 8].into() })
            .with_key_seed(5);
        let a = scenario.sim().run();
        for workers in [0, 1, 2, 5] {
            let b = scenario.sim().runtime(Runtime::Parallel { workers }).run();
            assert_eq!(a.decisions(), b.decisions(), "{workers} workers");
            assert_eq!(a.metrics(), b.metrics(), "{workers} workers");
            assert_eq!(a.oracle(), b.oracle(), "{workers} workers");
        }
    }

    #[test]
    fn parallel_run_matches_sync_under_spontaneous_byzantine_sends() {
        // LateReveal sends *without* receiving first: the quiescence hints
        // must keep it scheduled or the reveal is lost on the parallel
        // engine's active-set schedule.
        let build = || {
            Scenario::new(gen::cycle(7), 2)
                .with_byzantine(0, ByzantineBehavior::LateReveal { partner: 1, others: vec![] })
                .with_byzantine(1, ByzantineBehavior::Silent)
                .with_key_seed(9)
        };
        let a = build().sim().run();
        let b = build().sim().runtime(Runtime::Parallel { workers: 3 }).run();
        assert_eq!(a.decisions(), b.decisions());
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn participants_are_bit_identical_at_any_build_worker_count() {
        // build_participants_keyed fans proof signing across the pool; the
        // fan-out must never change what is built. Debug formatting covers
        // every field of every participant (keys, proofs, wrappers), so
        // equal strings mean bit-identical construction.
        let scenario = Scenario::new(gen::harary(4, 40).unwrap(), 2)
            .with_byzantine(2, ByzantineBehavior::TwoFaced { silent_toward: [7, 8].into() })
            .with_byzantine(9, ByzantineBehavior::LateReveal { partner: 2, others: vec![] })
            .with_key_seed(11);
        let reference: Vec<String> =
            scenario.build_participants().iter().map(|p| format!("{p:?}")).collect();
        assert_eq!(reference.len(), 40);
        for workers in [0, 2, 3, 7] {
            let built: Vec<String> = scenario
                .build_participants_keyed(scenario.key_seed, workers)
                .iter()
                .map(|p| format!("{p:?}"))
                .collect();
            assert_eq!(built, reference, "{workers} workers");
        }
    }

    #[test]
    fn both_endpoints_of_an_edge_announce_one_shared_proof() {
        // Set-up signs each edge's proof once and hands both endpoints the
        // same `Arc`, so a relayed proof is hashed once. Round 1 carries
        // only announcements: every correct node must announce each of its
        // edges, and the two announcements of an edge between correct
        // nodes must be one object.
        for (g, byzantine) in [
            (gen::harary(4, 12).unwrap(), vec![]),
            (gen::cycle(9), vec![4]),
            (gen::complete(6), vec![0, 5]),
        ] {
            let mut scenario = Scenario::new(g.clone(), 2).with_key_seed(3);
            for &b in &byzantine {
                scenario = scenario.with_byzantine(b, ByzantineBehavior::Silent);
            }
            let announced: Vec<BTreeMap<(u16, u16), Arc<NeighborhoodProof>>> = scenario
                .build_participants()
                .iter_mut()
                .map(|p| {
                    let out = p.send(1);
                    out.first()
                        .into_iter()
                        .flat_map(|o| o.msg.edges.iter())
                        .map(|e| (e.proof.endpoints(), Arc::clone(&e.proof)))
                        .collect()
                })
                .collect();
            for (u, v) in g.edges() {
                if byzantine.contains(&u) || byzantine.contains(&v) {
                    continue;
                }
                let key = (u as u16, v as u16);
                let (a, b) = (&announced[u][&key], &announced[v][&key]);
                assert!(Arc::ptr_eq(a, b), "edge {key:?}");
            }
        }
    }

    #[test]
    fn silent_byzantine_cannot_fake_a_partition_in_a_2t_connected_graph() {
        // κ(H_{4,10}) = 4 = 2t with t = 2: Lemma 1 says everyone decides
        // NOT_PARTITIONABLE no matter what the Byzantine nodes do.
        let g = gen::harary(4, 10).unwrap();
        let out = Scenario::new(g, 2)
            .with_byzantine(3, ByzantineBehavior::Silent)
            .with_byzantine(7, ByzantineBehavior::Silent)
            .sim()
            .run();
        assert!(out.agreement());
        assert_eq!(out.unanimous_verdict(), Some(Verdict::NotPartitionable));
    }

    #[test]
    fn star_hub_byzantine_is_detected_as_partitionable() {
        // Fig. 1b: the hub is a cut vertex; κ = 1 ≤ t.
        let out =
            Scenario::new(gen::star(6), 1).with_byzantine(0, ByzantineBehavior::Silent).sim().run();
        assert!(out.agreement());
        assert_eq!(out.unanimous_verdict(), Some(Verdict::Partitionable));
        // The hub's silence means leaves saw nothing beyond themselves:
        // everyone confirms a real partition.
        assert!(out.decisions().values().all(|d| d.confirmed));
        assert!(out.byzantine_cast_is_vertex_cut());
    }

    #[test]
    fn batched_view_class_decisions_match_per_node_decide_with() {
        // collect() shares one component-size derivation across identical
        // views (Lemma 2); the result must equal node-by-node decide_with,
        // oracle counters included.
        let scenario = Scenario::new(gen::harary(4, 12).unwrap(), 2)
            .with_byzantine(2, ByzantineBehavior::TwoFaced { silent_toward: [7, 8].into() })
            .with_byzantine(9, ByzantineBehavior::Silent)
            .with_key_seed(3);
        let out = scenario.sim().run();
        let participants = scenario.sim().participants();
        let mut oracle = ConnectivityOracle::new();
        for p in participants.iter().filter(|p| p.is_correct()) {
            let expected = p.nectar().decide_with(&mut oracle);
            assert_eq!(out.decisions()[&p.nectar().node_id()], expected);
        }
        assert_eq!(out.oracle().queries, oracle.stats().queries);
        assert_eq!(out.oracle().cache_hits, oracle.stats().cache_hits);
    }

    #[test]
    fn starved_oracle_caches_change_neither_decisions_nor_counters() {
        // With no cache every node re-decides its view; with one slot the
        // views evict each other between queries. Either way collect must
        // stay node-by-node `decide_with` — decisions and all six counters
        // — on flow-bound views (a Byzantine-split Harary graph: several
        // distinct views, δ > t) and on layer-1 views (a partitioned fleet)
        // alike.
        let split_views = Scenario::new(gen::harary(4, 12).unwrap(), 2)
            .with_byzantine(2, ByzantineBehavior::TwoFaced { silent_toward: [7, 8].into() })
            .with_byzantine(9, ByzantineBehavior::Silent)
            .with_key_seed(3);
        let partitioned = Scenario::new(gen::disjoint_cliques(5, 4), 2).with_key_seed(3);
        for (scenario, flow_bound) in [(split_views, true), (partitioned, false)] {
            let participants = scenario.sim().participants();
            for capacity in [0, 1] {
                let mut batched = ConnectivityOracle::with_capacity(capacity);
                let (decisions, stats) = scenario.collect_decisions(&participants, &mut batched, 1);
                let mut one_by_one = ConnectivityOracle::with_capacity(capacity);
                let expected: BTreeMap<NodeId, Decision> = participants
                    .iter()
                    .filter(|p| p.is_correct())
                    .map(|p| (p.nectar().node_id(), p.nectar().decide_with(&mut one_by_one)))
                    .collect();
                assert_eq!(decisions, expected, "capacity {capacity}");
                assert_eq!(stats, *one_by_one.stats(), "capacity {capacity}");
                assert_eq!(stats.bounded_flows > 0, flow_bound, "the premise of each case");
            }
        }
    }

    #[test]
    fn outcome_reports_oracle_cache_sharing_across_identical_views() {
        // Clean ring: all 6 correct views are identical (Lemma 2), so the
        // decision phase pays for one connectivity query and hits the cache
        // five times.
        let out = Scenario::new(gen::cycle(6), 1).sim().run();
        assert_eq!(out.oracle().queries, 6);
        assert_eq!(out.oracle().cache_hits, 5);
    }

    #[test]
    fn success_rate_counts_expected_verdicts() {
        let out = Scenario::new(gen::cycle(5), 1).sim().run();
        assert_eq!(out.success_rate(Verdict::NotPartitionable), 1.0);
        assert_eq!(out.success_rate(Verdict::Partitionable), 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds the 65536-node limit")]
    fn a_fleet_beyond_the_node_id_space_is_refused() {
        let _ = Scenario::new(Graph::empty(MAX_NODES + 1), 1);
    }

    #[test]
    #[should_panic(expected = "must be Byzantine")]
    fn fictitious_edges_require_byzantine_partner() {
        let _ = Scenario::new(gen::cycle(5), 1)
            .with_byzantine(0, ByzantineBehavior::FictitiousEdges { partners: vec![2] })
            .sim()
            .run();
    }
}
