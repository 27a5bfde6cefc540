//! Soundness of the [`Process::quiescent`] scheduling hint across the
//! Byzantine zoo.
//!
//! The event-driven and parallel runtimes stop polling a node the moment it
//! reports quiescent, trusting the hint's one-sided contract: a node that
//! answers `true` must stay silent — every future `send` empty, the hint
//! itself stable — until its next `receive`. A behaviour that answered
//! `true` with a spontaneous send still pending (a timed reveal, a delayed
//! crash transition) would silently lose messages on those schedulers while
//! the sync engine, which polls everyone, would deliver them: the
//! equivalence suite would eventually catch the drift, but only on a
//! scenario that happens to hit it. This suite guards the assumption
//! directly: every participant of the Byzantine behaviour zoo is wrapped in
//! an auditor and driven on the sync engine (which polls even "quiescent"
//! nodes every round), so any hint violation fails loudly at the exact
//! round it occurs.

mod common;

use proptest::prelude::*;
use std::collections::BTreeSet;

use common::{arb_cast, arb_scenario, arb_zoo_graph};
use nectar::net::{
    run_event_driven, EventNetwork, NodeId, Outgoing, Process, Scheduled, SyncNetwork, WireSized,
};
use nectar::prelude::*;

/// Wraps a process and asserts the quiescence contract at every poll:
/// once the inner process reports quiescent, it must neither produce
/// messages nor flip back to non-quiescent until a message is received.
#[derive(Debug)]
struct QuiescenceAuditor<P: Process> {
    inner: P,
    /// Latched when the inner process last reported quiescent; cleared by
    /// the next receive.
    claimed_quiescent: bool,
}

impl<P: Process> QuiescenceAuditor<P> {
    fn new(inner: P) -> Self {
        QuiescenceAuditor { inner, claimed_quiescent: false }
    }
}

impl<P: Process> Process for QuiescenceAuditor<P> {
    type Msg = P::Msg;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn send(&mut self, round: usize) -> Vec<Outgoing<Self::Msg>> {
        if self.inner.quiescent() {
            self.claimed_quiescent = true;
        }
        let out = self.inner.send(round);
        if self.claimed_quiescent {
            assert!(
                out.is_empty(),
                "node {} claimed quiescent but produced {} message(s) when polled at round \
                 {round} — the event/parallel schedulers would have lost them",
                self.inner.id(),
                out.len()
            );
            assert!(
                self.inner.quiescent(),
                "node {} un-quiesced at round {round} without receiving a message",
                self.inner.id()
            );
        }
        out
    }

    fn receive(&mut self, round: usize, from: NodeId, msg: Self::Msg) {
        self.claimed_quiescent = false;
        self.inner.receive(round, from, msg);
    }

    fn quiescent(&self) -> bool {
        self.inner.quiescent()
    }

    fn link_changed(&mut self, round: usize, peer: NodeId, up: bool) {
        // The other legal un-quiesce point: a topology notice may wake the
        // process (contract: silent until the next receive *or*
        // link_changed), so the latch clears just as it does on receive.
        self.claimed_quiescent = false;
        self.inner.link_changed(round, peer, up);
    }
}

/// Runs the scenario's participants under audit on the sync engine, which
/// polls every node every round — so the auditor checks every behaviour at
/// every round, including the rounds the other schedulers would skip.
fn audit(scenario: &Scenario) {
    let rounds = scenario.config().effective_rounds();
    let audited: Vec<QuiescenceAuditor<_>> =
        scenario.build_participants().into_iter().map(QuiescenceAuditor::new).collect();
    let mut net = SyncNetwork::new(audited, scenario.topology().clone());
    net.run_rounds(rounds);
}

/// Audits the scenario under an active [`TopologySchedule`], on the
/// polling sync engine and on the engine that trusts the hint (event, on
/// one worker and on three). The stack is
/// `Scheduled<QuiescenceAuditor<Participant>>`: the schedule wrapper
/// filters traffic and delivers `link_changed` notices *into* the
/// auditor, so the audited contract is exactly the one inner processes
/// live under on a dynamic network. Metrics must agree
/// across all three runs — a node skipped while a notice was pending
/// would show up as lost traffic.
fn audit_scheduled(scenario: &Scenario, schedule: &TopologySchedule) {
    let rounds = scenario.config().effective_rounds();
    let compiled =
        std::sync::Arc::new(schedule.compile(scenario.topology()).expect("valid schedule"));
    let stack = || {
        Scheduled::wrap_all(
            scenario.build_participants().into_iter().map(QuiescenceAuditor::new).collect(),
            &compiled,
        )
    };
    let mut net = SyncNetwork::new(stack(), scenario.topology().clone());
    net.run_rounds(rounds);
    let (_, sync_metrics) = net.into_parts();
    let (_, event_metrics) = run_event_driven(stack(), scenario.topology(), rounds);
    let mut net = EventNetwork::with_workers(stack(), scenario.topology().clone(), 3);
    net.run_rounds(rounds);
    let (_, parallel_metrics) = net.into_parts();
    assert_eq!(sync_metrics, event_metrics, "sync vs event under schedule");
    assert_eq!(sync_metrics, parallel_metrics, "sync vs parallel under schedule");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No participant in the behaviour zoo ever produces a message from a
    /// round in which it reported quiescent, and none un-quiesces without
    /// a receive — the exact assumption the event/parallel schedulers make.
    #[test]
    fn quiescent_hints_are_sound_across_the_zoo(
        (g, t, cast) in arb_scenario(),
        seed in 0u64..1000,
    ) {
        let mut scenario = Scenario::new(g, t).with_key_seed(seed);
        for (node, behavior) in cast {
            scenario = scenario.with_byzantine(node, behavior);
        }
        audit(&scenario);
    }
}

/// A compact schedule for the scheduled audit: per-edge flap chains,
/// node churn and an optional partition window over the given graph.
fn arb_audit_schedule(
    n: usize,
    edges: Vec<(usize, usize)>,
) -> impl Strategy<Value = TopologySchedule> {
    let m = edges.len();
    let horizon = n.saturating_sub(1).max(2);
    let flaps = proptest::collection::btree_set(0..m.max(1), 0..3).prop_flat_map(move |idxs| {
        let idxs: Vec<usize> = idxs.into_iter().filter(|&e| e < m).collect();
        let len = idxs.len();
        proptest::collection::vec(1..horizon, len)
            .prop_map(move |starts| idxs.iter().copied().zip(starts).collect::<Vec<_>>())
    });
    let churn = proptest::collection::btree_set(0..n, 0..2).prop_flat_map(move |nodes| {
        let nodes: Vec<usize> = nodes.into_iter().collect();
        let len = nodes.len();
        proptest::collection::vec((1..horizon, 1..3usize), len)
            .prop_map(move |w| nodes.iter().copied().zip(w).collect::<Vec<_>>())
    });
    let split = (proptest::collection::btree_set(0..n, 1..3), 1..horizon, 0..3usize);
    (flaps, churn, split).prop_map(move |(flaps, churn, (side, round, heal_after))| {
        let mut s = TopologySchedule::new();
        for (e, start) in flaps {
            let (u, v) = edges[e];
            s = s.drop_edge(start, u, v).heal_edge(start + 1, u, v);
        }
        for (node, (r, gap)) in churn {
            s = s.crash(r, node).rejoin(r + gap, node);
        }
        if !side.is_empty() && side.len() < n {
            s = s.partition(round, side.iter().copied());
            if heal_after > 0 {
                s = s.heal_partition(round + heal_after, side.iter().copied());
            }
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The quiescence contract holds on *dynamic* networks too: under
    /// flapping edges, churning nodes and partition windows, no zoo
    /// participant ever sends from a round it claimed quiescent in, and
    /// un-quiescing is only ever caused by a receive or a link notice.
    /// Runs on sync, event and parallel engines; their metrics must agree.
    #[test]
    fn quiescent_hints_stay_sound_under_active_schedules(
        (g, t, cast, sched) in arb_zoo_graph().prop_flat_map(|g| {
            let n = g.node_count();
            let t = 2.min(n / 3);
            let edges: Vec<(usize, usize)> = g.edges().collect();
            (arb_cast(n, t), arb_audit_schedule(n, edges))
                .prop_map(move |(cast, sched)| (g.clone(), t, cast, sched))
        }),
        seed in 0u64..1000,
    ) {
        let mut scenario = Scenario::new(g, t).with_key_seed(seed);
        for (node, behavior) in cast {
            scenario = scenario.with_byzantine(node, behavior);
        }
        audit_scheduled(&scenario, &sched);
    }
}

/// A flooding process that re-announces everything it knows when a link
/// comes back up — the canonical client of the `link_changed` hook.
#[derive(Debug, Clone)]
struct Token(usize);
impl WireSized for Token {
    fn wire_bytes(&self) -> usize {
        8
    }
}

#[derive(Debug)]
struct Flood {
    id: usize,
    neighbors: Vec<usize>,
    known: BTreeSet<usize>,
    fresh: Vec<usize>,
}

impl Flood {
    fn fleet(g: &Graph) -> Vec<Flood> {
        (0..g.node_count())
            .map(|id| Flood {
                id,
                neighbors: g.neighbors(id).collect(),
                known: [id].into(),
                fresh: vec![id],
            })
            .collect()
    }
}

impl Process for Flood {
    type Msg = Token;
    fn id(&self) -> usize {
        self.id
    }
    fn send(&mut self, _round: usize) -> Vec<Outgoing<Token>> {
        let neighbors = self.neighbors.clone();
        self.fresh
            .drain(..)
            .flat_map(|v| neighbors.iter().map(move |&n| Outgoing::new(n, Token(v))))
            .collect()
    }
    fn receive(&mut self, _round: usize, _from: usize, Token(v): Token) {
        if self.known.insert(v) {
            self.fresh.push(v);
        }
    }
    fn quiescent(&self) -> bool {
        self.fresh.is_empty()
    }
    fn link_changed(&mut self, _round: usize, _peer: usize, up: bool) {
        if up {
            self.fresh = self.known.iter().copied().collect();
        }
    }
}

/// The heal-re-wake guarantee on the engines that skip quiescent nodes:
/// cutting the middle edge of a path splits the flood, both sides quiesce,
/// and the healed edge must *re-wake* them via `link_changed` — the
/// schedule wrapper keeps a node schedulable until its last pending
/// notice, so neither the event loop nor the parallel active set may drop
/// it early. Every engine must converge to complete knowledge.
#[test]
fn a_healed_edge_rewakes_quiescent_nodes_on_event_and_parallel_engines() {
    let g = gen::path(4);
    let sched = TopologySchedule::new().drop_edge(1, 1, 2).heal_edge(4, 1, 2);
    let compiled = std::sync::Arc::new(sched.compile(&g).expect("valid schedule"));
    let rounds = 8;
    let full: BTreeSet<usize> = (0..4).collect();
    let stack = || {
        Scheduled::wrap_all(
            Flood::fleet(&g).into_iter().map(QuiescenceAuditor::new).collect(),
            &compiled,
        )
    };

    let mut net = SyncNetwork::new(stack(), g.clone());
    net.run_rounds(rounds);
    let (sync_procs, sync_metrics) = net.into_parts();
    let (event_procs, event_metrics) = run_event_driven(stack(), &g, rounds);
    let mut net = EventNetwork::with_workers(stack(), g.clone(), 2);
    net.run_rounds(rounds);
    let (par_procs, par_metrics) = net.into_parts();
    for procs in [&sync_procs, &event_procs, &par_procs] {
        for p in procs.iter() {
            assert_eq!(p.inner().inner.known, full, "node {} never re-flooded", p.inner().inner.id);
        }
    }
    assert_eq!(sync_metrics, event_metrics, "sync vs event");
    assert_eq!(sync_metrics, par_metrics, "sync vs parallel");

    // Negative control: without the heal the flood must stay split — the
    // re-wake above really is the healed link's doing.
    let cut_only = TopologySchedule::new().drop_edge(1, 1, 2);
    let cut = std::sync::Arc::new(cut_only.compile(&g).expect("valid schedule"));
    let (procs, _) = run_event_driven(
        Scheduled::wrap_all(
            Flood::fleet(&g).into_iter().map(QuiescenceAuditor::new).collect(),
            &cut,
        ),
        &g,
        rounds,
    );
    assert_eq!(procs[0].inner().inner.known, [0, 1].into());
    assert_eq!(procs[3].inner().inner.known, [2, 3].into());
}

/// The colluding behaviours the random cast cannot produce. LateReveal is
/// the sharpest case: it *must* answer non-quiescent while its timed reveal
/// is pending, and the audit confirms it never claims otherwise.
#[test]
fn colluding_casts_keep_their_hints_sound() {
    let g = gen::cycle(8);
    let scenario = Scenario::new(g, 2)
        .with_key_seed(13)
        .with_byzantine(0, ByzantineBehavior::LateReveal { partner: 1, others: vec![] })
        .with_byzantine(1, ByzantineBehavior::FictitiousEdges { partners: vec![0] });
    audit(&scenario);

    // The colluding data-falsifying cast (matrix attack zoo): falsifiers
    // only ever *remove* sends from the honest stream, so their quiescence
    // hint must inherit the honest node's soundness unchanged.
    let g = gen::path(8);
    let mut scenario = Scenario::new(g.clone(), 2).with_key_seed(13);
    for (node, behavior) in nectar_experiments::articulation_falsifier_cast(&g, 2, 700, 13) {
        scenario = scenario.with_byzantine(node, behavior);
    }
    audit(&scenario);
}

/// The auditor itself must catch a lying hint — otherwise the suite above
/// proves nothing.
#[test]
#[should_panic(expected = "claimed quiescent but produced")]
fn auditor_catches_a_lying_hint() {
    #[derive(Debug, Clone)]
    struct Unit;
    impl nectar::net::WireSized for Unit {
        fn wire_bytes(&self) -> usize {
            1
        }
    }
    /// Claims quiescence from the start, then sends at round 2 anyway.
    #[derive(Debug)]
    struct Liar {
        id: usize,
    }
    impl Process for Liar {
        type Msg = Unit;
        fn id(&self) -> usize {
            self.id
        }
        fn send(&mut self, round: usize) -> Vec<Outgoing<Unit>> {
            if round == 2 && self.id == 0 {
                vec![Outgoing::new(1, Unit)]
            } else {
                Vec::new()
            }
        }
        fn receive(&mut self, _round: usize, _from: usize, _msg: Unit) {}
        fn quiescent(&self) -> bool {
            true
        }
    }
    let g = gen::path(2);
    let audited: Vec<_> =
        vec![Liar { id: 0 }, Liar { id: 1 }].into_iter().map(QuiescenceAuditor::new).collect();
    let mut net = SyncNetwork::new(audited, g);
    net.run_rounds(3);
}
