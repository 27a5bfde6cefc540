//! Dynamic-network chaos testing: scripted topology schedules across all
//! three runtimes.
//!
//! The determinism contract (docs/DETERMINISM.md §4) extends to dynamic
//! networks: a [`TopologySchedule`] — edges flapping, nodes crashing and
//! rejoining, partitions opening and healing, per-link loss and delay
//! windows — produces *bit-identical* outcomes on sync, event and
//! parallel engines at any worker count, because every fault is
//! applied at the round-commit barrier as a pure function of
//! `(round, from, to, emission)`. This suite enforces that with a
//! schedule zoo (flap storms, rolling churn, clean splits,
//! split-then-heal, asymmetric loss) in the style of FoundationDB's
//! deterministic simulation testing, and pins the ground truth: a
//! scripted cut that leaves `κ ≤ t` at the decision round is detected by
//! every correct node, and a cut healed early enough raises no false
//! positive.

mod common;

use proptest::prelude::*;
use std::collections::BTreeSet;

use common::{arb_cast, arb_zoo_graph, assert_reports_identical, build_scenario};
use nectar::graph::{ConnectivityOracle, Fingerprint};
use nectar::net::{run_event_driven, Outgoing, Process, Scheduled, SyncNetwork, WireSized};
use nectar::prelude::*;

/// Per-edge flap chains: each selected edge drops at its start round and
/// then alternates heal/drop for `cycles` cycles. Distinct edges keep the
/// drop/heal pairing trivially balanced.
fn arb_flaps(m: usize, horizon: usize) -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::btree_set(0..m.max(1), 0..4).prop_flat_map(move |idxs| {
        let idxs: Vec<usize> = idxs.into_iter().filter(|&e| e < m).collect();
        let len = idxs.len();
        proptest::collection::vec((1..horizon, 1..3usize), len).prop_map(move |params| {
            idxs.iter().copied().zip(params).map(|(e, (r, c))| (e, r, c)).collect()
        })
    })
}

/// Rolling churn: distinct nodes crash at a round and rejoin `gap` rounds
/// later.
fn arb_churn(n: usize, horizon: usize) -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::btree_set(0..n, 0..3).prop_flat_map(move |nodes| {
        let nodes: Vec<usize> = nodes.into_iter().collect();
        let len = nodes.len();
        proptest::collection::vec((1..horizon, 1..3usize), len).prop_map(move |params| {
            nodes.iter().copied().zip(params).map(|(x, (r, g))| (x, r, g)).collect()
        })
    })
}

/// Loss/delay windows over base edges: `(edge, start, len, strength,
/// one_way)` with strength a probability for loss windows and a round
/// count for delay windows.
type Windows = Vec<(usize, usize, usize, f64, bool)>;

fn arb_windows(m: usize, horizon: usize) -> impl Strategy<Value = Windows> {
    proptest::collection::vec(
        (0..m.max(1), (1..horizon, 1..4usize), 0.0f64..1.0, proptest::bool::ANY),
        0..3,
    )
    .prop_map(move |ws| {
        ws.into_iter()
            .filter(|&(e, ..)| e < m)
            .map(|(e, (start, len), s, one_way)| (e, start, len, s, one_way))
            .collect()
    })
}

/// `(side, round, heal_after)`; `0` as the heal distance means the split
/// never heals.
type Split = (BTreeSet<usize>, usize, usize);

/// The zoo's link events — flap chains, rolling churn and an optional
/// split — scripted onto `s` over the base graph's `edges`.
fn script_link_events(
    mut s: TopologySchedule,
    n: usize,
    edges: &[(usize, usize)],
    flaps: Vec<(usize, usize, usize)>,
    churn: Vec<(usize, usize, usize)>,
    (side, round, heal_after): Split,
) -> TopologySchedule {
    for (e, start, cycles) in flaps {
        let (u, v) = edges[e];
        for c in 0..cycles {
            s = s.drop_edge(start + 2 * c, u, v).heal_edge(start + 2 * c + 1, u, v);
        }
    }
    for (node, round, gap) in churn {
        s = s.crash(round, node).rejoin(round + gap, node);
    }
    if !side.is_empty() && side.len() < n {
        s = s.partition(round, side.iter().copied());
        if heal_after > 0 {
            s = s.heal_partition(round + heal_after, side.iter().copied());
        }
    }
    s
}

/// One scripted scenario from the schedule zoo: flap storms, rolling
/// churn, an optional clean split or split-then-heal, and (a)symmetric
/// loss and delay windows, all over one zoo graph with a zoo cast.
fn arb_scheduled_scenario(
) -> impl Strategy<Value = (Graph, usize, Vec<(usize, ByzantineBehavior)>, TopologySchedule)> {
    arb_zoo_graph().prop_flat_map(|g| {
        let n = g.node_count();
        let t = 2.min(n / 3);
        let m = g.edge_count();
        let edges: Vec<(usize, usize)> = g.edges().collect();
        let horizon = n.saturating_sub(1).max(2);
        let split = (proptest::collection::btree_set(0..n, 1..3), 1..horizon, 0..4usize);
        let parts = (
            (0u64..1_000_000, arb_flaps(m, horizon)),
            (arb_churn(n, horizon), split),
            (arb_windows(m, horizon), arb_windows(m, horizon)),
        );
        (arb_cast(n, t), parts).prop_map(
            move |(cast, ((seed, flaps), (churn, split), (loss, delays)))| {
                let s = TopologySchedule::new().with_seed(seed);
                let mut s = script_link_events(s, n, &edges, flaps, churn, split);
                for (e, start, len, p, one_way) in loss {
                    let (u, v) = edges[e];
                    s = if one_way {
                        s.loss_one_way(u, v, start..start + len, p)
                    } else {
                        s.loss(u, v, start..start + len, p)
                    };
                }
                for (e, start, len, strength, one_way) in delays {
                    let (u, v) = edges[e];
                    let d = 1 + (strength * 2.0) as usize;
                    s = if one_way {
                        s.delay_one_way(u, v, start..start + len, d)
                    } else {
                        s.delay(u, v, start..start + len, d)
                    };
                }
                (g.clone(), t, cast, s)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// sync == event == parallel at worker counts {0, 2, 3, 7}
    /// (0 = size the pool to the machine), bit for bit, for every schedule
    /// the zoo scripts: decisions, traffic metrics (schedule drops
    /// included), oracle counters and the recorded schedule itself.
    #[test]
    fn all_runtimes_agree_under_scripted_faults(
        (g, t, cast, sched) in arb_scheduled_scenario(),
    ) {
        let scenario = build_scenario(&g, t, &cast);
        let run = |rt: Runtime| scenario.sim().runtime(rt).schedule(sched.clone()).run();
        let sync = run(Runtime::Sync);
        assert_reports_identical(&sync, &run(Runtime::Event), "sync vs event");
        for workers in [0, 2, 3, 7] {
            let parallel = run(Runtime::Parallel { workers });
            assert_reports_identical(&sync, &parallel, &format!("sync vs parallel[{workers}]"));
        }
        // The report's schedule record carries the applied script.
        let record = sync.schedule.as_ref().expect("scheduled run records its schedule");
        assert_eq!(TopologySchedule::parse(&record.script), Ok(sched.clone()));
    }
}

/// Ground truth, detection side: cutting (0, 1) and (3, 4) from round 1
/// splits cycle-6 into the arcs {1, 2, 3} and {4, 5, 0}. A node still
/// *believes* the cut edges exist — their endpoints keep announcing them —
/// so each view reaches 5 of 6 nodes (everyone but the far arc's middle
/// node), is disconnected (perceived `κ = 0 ≤ t = 1`) and confirms the
/// partition, on every runtime.
#[test]
fn a_scripted_split_is_detected_on_every_runtime() {
    let sched = TopologySchedule::new().drop_edge(1, 0, 1).drop_edge(1, 3, 4);
    let scenario = Scenario::new(gen::cycle(6), 1).with_key_seed(7);
    for runtime in [Runtime::Sync, Runtime::Event, Runtime::Parallel { workers: 3 }] {
        let out = scenario.sim().runtime(runtime).schedule(sched.clone()).run();
        assert!(out.agreement(), "{runtime:?}");
        assert_eq!(out.unanimous_verdict(), Some(Verdict::Partitionable), "{runtime:?}");
        assert!(out.decisions().values().all(|d| d.confirmed), "{runtime:?}");
        assert!(out.decisions().values().all(|d| d.reachable == 5), "{runtime:?}");
        assert!(out.decisions().values().all(|d| d.connectivity == 0), "{runtime:?}");
        assert!(out.metrics().schedule_drops() > 0, "{runtime:?}: the cut dropped traffic");
        let record = out.schedule.expect("schedule recorded");
        assert_eq!(record.transitions, vec![(1, 0, 1, false), (1, 3, 4, false)]);
    }
}

/// Ground truth, no-false-positive side: the same split healed at round 2
/// still lets every announcement cross the cut while the dissemination
/// wave is alive, so the horizon view is complete and the verdict stays
/// NOT_PARTITIONABLE on every runtime — a partition that heals before the
/// detection horizon must not be reported.
#[test]
fn a_split_healed_before_the_horizon_raises_no_false_positive() {
    let sched = TopologySchedule::new()
        .drop_edge(1, 0, 1)
        .drop_edge(1, 3, 4)
        .heal_edge(2, 0, 1)
        .heal_edge(2, 3, 4);
    let scenario = Scenario::new(gen::cycle(6), 1).with_key_seed(7);
    for runtime in [Runtime::Sync, Runtime::Event, Runtime::Parallel { workers: 2 }] {
        let out = scenario.sim().runtime(runtime).schedule(sched.clone()).run();
        assert!(out.agreement(), "{runtime:?}");
        assert_eq!(out.unanimous_verdict(), Some(Verdict::NotPartitionable), "{runtime:?}");
        assert!(out.decisions().values().all(|d| !d.confirmed), "{runtime:?}");
        assert!(out.decisions().values().all(|d| d.reachable == 6), "{runtime:?}");
    }
}

/// The flooding-suppression boundary: tokens suppressed at the cut are
/// not re-flooded, so a heal helps only while the wave is still alive
/// next to it. Healing at round 3 restores the physical ring one round
/// too late — the round-2 relays already died against the cut — so the
/// horizon views stay incomplete and NECTAR reports the partition it
/// witnessed.
#[test]
fn a_heal_after_the_dissemination_wave_dies_is_too_late() {
    let sched = TopologySchedule::new()
        .drop_edge(1, 0, 1)
        .drop_edge(1, 3, 4)
        .heal_edge(3, 0, 1)
        .heal_edge(3, 3, 4);
    let out = Scenario::new(gen::cycle(6), 1).with_key_seed(7).sim().schedule(sched).run();
    assert!(out.agreement());
    assert_eq!(out.unanimous_verdict(), Some(Verdict::Partitionable));
}

/// A single-edge flap on a 2-connected ring is absorbed: dropping one
/// edge leaves the other arc intact, so views complete and the verdict is
/// the static one.
#[test]
fn a_single_edge_flap_on_a_resilient_ring_is_absorbed() {
    let sched = TopologySchedule::new().drop_edge(1, 0, 1).heal_edge(2, 0, 1);
    let out = Scenario::new(gen::cycle(6), 1).with_key_seed(7).sim().schedule(sched).run();
    assert_eq!(out.unanimous_verdict(), Some(Verdict::NotPartitionable));
    assert!(out.decisions().values().all(|d| !d.confirmed));
}

/// Node churn as a fault: crashing the hub of a star isolates every leaf —
/// the scripted-fault analogue of the silent-Byzantine-hub scenario — and
/// every leaf confirms the partition.
#[test]
fn crashing_the_hub_partitions_the_star() {
    let sched = TopologySchedule::new().crash(1, 0);
    let scenario = Scenario::new(gen::star(8), 1).with_key_seed(7);
    for runtime in [Runtime::Sync, Runtime::Event] {
        let out = scenario.sim().runtime(runtime).schedule(sched.clone()).run();
        // Every node is correct here (the crash is scripted, not
        // Byzantine), so all 8 decide — the hub from its a-priori
        // knowledge of its own incident edges (the whole star, κ = 1 ≤ t),
        // the leaves from their starved single-edge views.
        assert_eq!(out.decisions().len(), 8, "{runtime:?}");
        assert_eq!(out.unanimous_verdict(), Some(Verdict::Partitionable), "{runtime:?}");
        // Each leaf heard nothing: it can only prove itself and the hub
        // reachable, a confirmed partition.
        assert!(
            out.decisions().iter().filter(|(&id, _)| id != 0).all(|(_, d)| d.confirmed),
            "{runtime:?}"
        );
    }
}

/// Total asymmetric loss on one direction of a link starves only that
/// direction; the loss-window extremes behave like a one-way cut
/// (p = 1.0) and a no-op (p = 0.0), identically on every runtime.
#[test]
fn asymmetric_loss_windows_apply_per_direction() {
    let g = gen::cycle(6);
    let lossless = TopologySchedule::new().loss_one_way(0, 1, 1..6, 0.0);
    let lossy = TopologySchedule::new().loss_one_way(0, 1, 1..6, 1.0);
    let base = Scenario::new(g, 1).with_key_seed(7);
    let clean = base.sim().schedule(lossless).run();
    assert_eq!(clean.metrics().schedule_drops(), 0);
    assert_eq!(clean.unanimous_verdict(), Some(Verdict::NotPartitionable));
    for runtime in [Runtime::Sync, Runtime::Parallel { workers: 2 }] {
        let out = base.sim().runtime(runtime).schedule(lossy.clone()).run();
        assert!(out.metrics().schedule_drops() > 0, "{runtime:?}");
        // One direction of one ring edge is dead; the reverse direction
        // and the rest of the ring still complete every view.
        assert!(out.agreement(), "{runtime:?}");
    }
}

/// The connectivity oracle's XOR fingerprint absorbs a schedule's
/// incremental edge updates: walking the compiled transitions while
/// toggling the fingerprint edge by edge always matches a from-scratch
/// digest, and revisiting a healed (hence previously seen) topology is a
/// pure cache hit.
#[test]
fn the_oracle_fingerprint_absorbs_incremental_schedule_updates() {
    let g = gen::cycle(6);
    let sched = TopologySchedule::new()
        .drop_edge(1, 0, 1)
        .drop_edge(2, 3, 4)
        .heal_edge(4, 3, 4)
        .heal_edge(5, 0, 1);
    let compiled = sched.compile(&g).expect("valid schedule");
    let mut oracle = ConnectivityOracle::new();
    let mut current = g.clone();
    let mut fp = Fingerprint::of(&g);
    let first = oracle.answer_fingerprinted(fp, &current, 1);
    assert!(!first.partitionable);
    let rounds: Vec<usize> = compiled.transition_rounds().collect();
    for r in rounds {
        for &(u, v, up) in compiled.transitions_at(r) {
            if up {
                current.add_edge(u, v).expect("healing a base edge");
            } else {
                current.remove_edge(u, v);
            }
            fp.toggle_edge(u, v);
        }
        // The incremental digest is exactly the from-scratch digest …
        assert_eq!(fp, Fingerprint::of(&current), "round {r}");
        // … and answers agree with the non-fingerprinted entry point.
        let fast = oracle.answer_fingerprinted(fp, &current, 1);
        let slow = oracle.answer(&current, 1);
        assert_eq!(fast, slow, "round {r}");
    }
    // After both heals the topology is the starting ring again: the final
    // query must be served from cache, not recomputed.
    let hits_before = oracle.stats().cache_hits;
    let last = oracle.answer_fingerprinted(fp, &current, 1);
    assert_eq!(last, first);
    assert_eq!(oracle.stats().cache_hits, hits_before + 1);
}

/// A scheduled run's report round-trips through JSON with the schedule
/// record (script and transitions) intact, and the schedule re-applies
/// identically in every epoch.
#[test]
fn scheduled_reports_round_trip_and_epochs_repeat_the_schedule() {
    let sched = TopologySchedule::new().drop_edge(1, 0, 1).drop_edge(1, 3, 4);
    let out =
        Scenario::new(gen::cycle(6), 1).with_key_seed(7).sim().schedule(sched).epochs(3).run();
    assert_eq!(out.epochs.len(), 3);
    for (i, epoch) in out.epochs.iter().enumerate() {
        assert_eq!(epoch.unanimous_verdict(), Some(Verdict::Partitionable), "epoch {i}");
        assert!(epoch.metrics.schedule_drops() > 0, "epoch {i}");
        assert_eq!(
            epoch.metrics.schedule_drops(),
            out.epochs[0].metrics.schedule_drops(),
            "epoch {i}: schedules diverge across epochs"
        );
    }
    let restored = RunReport::from_json(&out.to_json()).expect("round-trips");
    assert_eq!(restored.schedule, out.schedule);
    assert_eq!(restored.decisions(), out.decisions());
    assert_eq!(restored.metrics(), out.metrics());
}

#[derive(Debug, Clone)]
struct Ping;

impl WireSized for Ping {
    fn wire_bytes(&self) -> usize {
        1
    }
}

/// Sends one token to every base neighbour every round and records what it
/// hears and every `link_changed` it is told: what it observes is exactly
/// the live topology as its `Scheduled` wrapper enforces it.
#[derive(Debug)]
struct Probe {
    id: usize,
    peers: Vec<usize>,
    heard: Vec<(usize, usize)>,
    notices: Vec<(usize, usize, bool)>,
}

impl Process for Probe {
    type Msg = Ping;

    fn id(&self) -> usize {
        self.id
    }

    fn send(&mut self, _round: usize) -> Vec<Outgoing<Ping>> {
        self.peers.iter().map(|&to| Outgoing::new(to, Ping)).collect()
    }

    fn receive(&mut self, round: usize, from: usize, _msg: Ping) {
        self.heard.push((round, from));
    }

    fn link_changed(&mut self, round: usize, peer: usize, up: bool) {
        self.notices.push((round, peer, up));
    }
}

/// The per-node index against the global truth. `graph_at` replays the
/// round-keyed `transitions` map from the base graph and shares no code
/// with the index the wrappers read, so on the sync and event engines:
/// (a) the delivered `(round, from, to)` set is exactly the live directed
/// edges of `graph_at(round)`, and (b) node i's `link_changed` calls are
/// exactly the incident subset of `transitions_at`, ascending (round, peer).
fn assert_wrappers_enforce_graph_at(g: &Graph, sched: &TopologySchedule) {
    let compiled = std::sync::Arc::new(sched.compile(g).expect("valid schedule"));
    let rounds = compiled.last_transition_round() + 2;
    let mut live = BTreeSet::new();
    for r in 1..=rounds {
        let now = compiled.graph_at(r);
        for (u, v) in g.edges().filter(|&(u, v)| now.has_edge(u, v)) {
            live.extend([(r, u, v), (r, v, u)]);
        }
    }
    let fleet = || {
        let probes = (0..g.node_count())
            .map(|id| Probe { id, peers: g.neighborhood(id), heard: vec![], notices: vec![] })
            .collect();
        Scheduled::wrap_all(probes, &compiled)
    };
    let mut net = SyncNetwork::new(fleet(), g.clone());
    net.run_rounds(rounds);
    let (sync_procs, _) = net.into_parts();
    let (event_procs, _) = run_event_driven(fleet(), g, rounds);
    for (engine, procs) in [("sync", sync_procs), ("event", event_procs)] {
        let delivered: BTreeSet<(usize, usize, usize)> = procs
            .iter()
            .flat_map(|p| p.inner().heard.iter().map(|&(r, from)| (r, from, p.inner().id)))
            .collect();
        assert_eq!(delivered, live, "{engine}: deliveries differ from graph_at");
        for p in &procs {
            let id = p.inner().id;
            let mut incident: Vec<(usize, usize, bool)> = compiled
                .transition_rounds()
                .flat_map(|r| compiled.transitions_at(r).iter().map(move |&flip| (r, flip)))
                .filter_map(|(r, (u, v, up))| {
                    let peer = if u == id { Some(v) } else { (v == id).then_some(u) };
                    peer.map(|peer| (r, peer, up))
                })
                .collect();
            incident.sort_unstable();
            assert_eq!(p.inner().notices, incident, "{engine}: node {id}'s notices");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wrappers_enforce_exactly_graph_at_across_the_link_event_zoo(
        (g, sched) in arb_zoo_graph().prop_flat_map(|g| {
            let n = g.node_count();
            let edges: Vec<(usize, usize)> = g.edges().collect();
            let horizon = n.saturating_sub(1).max(2);
            let split = (proptest::collection::btree_set(0..n, 1..3), 1..horizon, 0..4usize);
            (arb_flaps(edges.len(), horizon), arb_churn(n, horizon), split).prop_map(
                move |(flaps, churn, split)| {
                    let s = script_link_events(
                        TopologySchedule::new(), n, &edges, flaps, churn, split,
                    );
                    (g.clone(), s)
                },
            )
        }),
    ) {
        assert_wrappers_enforce_graph_at(&g, &sched);
    }
}

/// Every cause at once on edge (1, 2) of a ring: dropped, an endpoint
/// crashed, and cut by a partition, lifted one at a time in a different
/// order — the edge comes back only when the last cause lifts.
#[test]
fn wrappers_enforce_graph_at_under_overlapping_causes_on_one_edge() {
    let sched = TopologySchedule::new()
        .drop_edge(2, 1, 2)
        .crash(3, 2)
        .partition(3, [0, 1])
        .heal_edge(4, 1, 2)
        .rejoin(5, 2)
        .heal_partition(7, [0, 1]);
    let g = gen::cycle(6);
    let compiled = sched.compile(&g).expect("valid schedule");
    assert!(!compiled.graph_at(6).has_edge(1, 2) && compiled.graph_at(7).has_edge(1, 2));
    assert_wrappers_enforce_graph_at(&g, &sched);
}
