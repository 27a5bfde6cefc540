//! Scaling pins for the decision phase. On a partitioned fleet every view is
//! a small island in the fleet's id space, so `collect_decisions` must cost
//! O(m_view) per distinct view — no `n`-sized graph, no per-component queue.
//! Allocation *counts* are exact and machine-independent, so the pin is a
//! count: a per-view `Graph::empty(n)` plus a BFS over its ~n singleton
//! components costs ~n allocations per view (~1 M here), against a
//! handful per view when the oracle decides from the edge list. On a
//! converged fleet every node holds the same view, which must be derived
//! once, not once per node.
//!
//! The same kind of pin holds the relay path: an accepted edge owns its
//! slot in the view and its one signed chain in the sender's round batch —
//! not a set for its single excluded neighbor, byte vectors for digests, or
//! a memo entry per verified proof or chain — and sending the batch costs
//! the same whatever it holds and however many neighbors get it. And the
//! schedule layer: a flap schedule adds O(n + T), not n × T, and a
//! scenario's schedule is compiled once. And the topology: a clone shares
//! the graph, so handing it to a run costs nothing per node. And the wire
//! path: over the sync engine's own count, a loopback run allocates per
//! delivered edge and per frame what decoding and framing must own — not a
//! heap vector per integer read, nor a copy of every buffer it fills — and
//! reserves for the bytes it was given, not for a length those bytes claim.
//!
//! These counts hold on any machine; the `collect_scaling` bench group
//! gates the time half. The counting allocator is process-global, which is
//! why these tests have an integration-test binary to themselves and take
//! turns under `SERIAL`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use nectar::crypto::{CodecError, Decode, Encode, KeyStore, NeighborhoodProof, SignatureChain};
use nectar::graph::ConnectivityOracle;
use nectar::net::{run_over_loopback, NodeId, Outgoing, Process, SyncNetwork};
use nectar::prelude::*;
use nectar::protocol::{NectarMsg, RelayedEdge};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only additions are statistics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Held by a test while it reads `ALLOCATIONS`, so the other's work is not
/// counted against it.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn deciding_a_partitioned_fleet_allocates_per_class_not_per_node_squared() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let n = 2_000;
    let scenario = Scenario::new(gen::disjoint_cliques(n / 4, 4), 2).with_key_seed(5);
    let participants = scenario.sim().runtime(Runtime::Event).participants();
    let mut oracle = ConnectivityOracle::new();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (decisions, stats) = scenario.collect_decisions(&participants, &mut oracle, 1);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(decisions.len(), n);
    assert!(decisions.values().all(|d| d.confirmed && d.reachable == 4));
    assert_eq!(stats.structure_shortcuts, n as u64 / 4, "one cold query per clique");
    assert_eq!(stats.bounded_flows, 0);
    assert!(
        allocations < 20 * n as u64,
        "collect_decisions made {allocations} allocations for {n} nodes in {} classes",
        n / 4
    );
}

/// The other extreme: one connected view shared by the whole fleet. Its
/// component sizes are derived once, not once per node. (Measured: 129
/// allocations; 19 456 — 76 per node, growing with n — when every node
/// derives the n-vertex map for itself, as node-by-node `decide_with` does.)
#[test]
fn deciding_a_converged_connected_fleet_derives_its_one_view_once() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let n = 256;
    let scenario = Scenario::new(gen::star(n), 1).with_key_seed(5);
    let participants = scenario.sim().runtime(Runtime::Event).participants();
    let mut oracle = ConnectivityOracle::new();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (decisions, stats) = scenario.collect_decisions(&participants, &mut oracle, 1);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(decisions.len(), n);
    assert!(decisions.values().all(|d| !d.confirmed && d.reachable == n));
    assert_eq!(stats.cache_hits, n as u64 - 1, "one view: one cold query");
    assert!(
        allocations < 20 * n as u64,
        "collect_decisions made {allocations} allocations for {n} nodes sharing one view"
    );
}

/// 64 cliques of a 4-clique fleet flap one edge 8 times: 1 024 transitions
/// over 16 rounds. Returns the schedule and its transition count.
fn flap_schedule() -> (TopologySchedule, usize) {
    let (flapping, flaps) = (64, 8);
    let mut schedule = TopologySchedule::new();
    for c in 0..flapping {
        for k in 0..flaps {
            let (u, v) = (4 * c, 4 * c + 1);
            schedule = schedule.drop_edge(1 + 2 * k, u, v).heal_edge(2 + 2 * k, u, v);
        }
    }
    (schedule, 2 * flapping * flaps)
}

/// The schedule layer costs what the flapping links cost: each `Scheduled`
/// wrapper reads its own node's row of the compiled index, so wrapping a
/// fleet and running it under T transitions adds allocations in O(n + T) —
/// the compile, and the protocol's own re-announcements on the 128 flapping
/// endpoints — never a fleet-wide down-set per wrapper (n × T).
///
/// Measured: 36 545 allocations plain, 37 100 flapped (555 added, 0.2 per
/// unit of n + T); 38 546 and 41 101 while the engine and the compile each
/// copied the graph. With every wrapper replaying every flip of the fleet
/// into its own B-tree of down edges and filtering the whole transition
/// list for its notices, the flapped run made 127 659 (55 636 added).
#[test]
fn a_flap_schedule_adds_allocations_in_its_own_size_not_fleet_times_flips() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let n = 2_000;
    let scenario = Scenario::new(gen::disjoint_cliques(n / 4, 4), 2).with_key_seed(5);
    let (schedule, transitions) = flap_schedule();
    let propagate = |schedule: Option<TopologySchedule>| {
        let sim = scenario.sim().runtime(Runtime::Event);
        let sim = match schedule {
            Some(schedule) => sim.schedule(schedule),
            None => sim,
        };
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let participants = sim.participants();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(participants.len(), n);
        allocations
    };
    let plain = propagate(None);
    let flapped = propagate(Some(schedule));
    let added = flapped.saturating_sub(plain);
    assert!(
        added <= 2 * (n + transitions) as u64,
        "{transitions} transitions on a {n}-node fleet added {added} allocations \
         ({plain} plain, {flapped} flapped)"
    );
}

/// A scenario's schedule is compiled once: `ScenarioSpec::compile`
/// validates it by compiling it, and `run_report` runs on that compilation
/// instead of compiling the script again. So a scheduled `run_report` makes
/// at least one compile's allocations fewer than a session over the same
/// scenario that is handed the script.
///
/// Measured on the flap fleet above, after a warm-up run: `run_report`
/// 41 704, the session given the script 42 052, one compile 346. While `run_report` compiled the
/// script again, and the lowered scenario, the compile, the engine and the
/// report each copied the graph: `run_report` 49 974, one compile 2 346.
#[test]
fn a_scheduled_run_report_compiles_its_schedule_once() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut text = String::from("topology cliques 2000\nt 2\nseed 5\nruntime event\n");
    for line in flap_schedule().0.to_script().lines() {
        text.push_str(&format!("schedule {line}\n"));
    }
    let plan =
        ScenarioSpec::parse(&text, "").and_then(|spec| spec.compile()).expect("a valid scenario");
    let schedule = plan.schedule.clone().expect("the plan has a schedule");
    let count = |run: &dyn Fn() -> RunReport| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = run();
        (report, ALLOCATIONS.load(Ordering::Relaxed) - before)
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    schedule.compile(&plan.graph).expect("a valid schedule");
    let compile = ALLOCATIONS.load(Ordering::Relaxed) - before;
    // `receive` reuses one signature batch per thread: the first run on a
    // thread grows it, so warm it before counting either run.
    plan.run_report();
    let (cached, once) = count(&|| plan.run_report());
    let (fresh, twice) =
        count(&|| plan.scenario().sim().runtime(Runtime::Event).schedule(schedule.clone()).run());
    assert_eq!(cached, fresh);
    assert!(
        once + compile <= twice,
        "run_report made {once} allocations, a session compiling the script {twice}, \
         one compile {compile}"
    );
}

/// A topology is shared by everything that holds it during a run, not
/// copied: cloning a 10 000-node fleet allocates nothing. (Measured: 0;
/// 10 001, a vector and a set per node, while each clone owned its
/// adjacency.)
#[test]
fn cloning_a_fleet_topology_allocates_nothing() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let g = gen::disjoint_cliques(2_500, 4);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let copy = g.clone();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(copy, g);
    assert_eq!(allocations, 0, "cloning a {}-node graph", g.node_count());
}

/// Lowering a compiled scenario onto the protocol layer costs its cast, not
/// its fleet. (Measured on 2 000 nodes: 0 allocations without a cast, 2
/// with the three-member one below; 2 001 and 2 003 while `scenario()`
/// copied the graph.)
#[test]
fn lowering_a_compiled_fleet_allocates_per_cast_member_not_per_node() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let cast = "byz 0:silent\nbyz 4:two-faced@8-11\nbyz 9:crash@2\n";
    for (members, cast) in [(0, ""), (3, cast)] {
        let plan = ScenarioSpec::parse(&format!("topology cliques 2000\nt 2\nseed 5\n{cast}"), "")
            .and_then(|spec| spec.compile())
            .expect("a valid scenario");
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let scenario = plan.scenario();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(scenario.byzantine_nodes().len(), members);
        assert!(
            allocations <= 2 * members as u64,
            "lowering 2 000 nodes with {members} cast members made {allocations} allocations"
        );
    }
}

#[test]
fn a_whole_run_allocates_a_handful_per_accepted_edge() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (n, k) = (48, 6);
    let plan = ScenarioSpec::parse(&format!("topology harary-k{k} {n}\nt 2\nseed 1\n"), "")
        .and_then(|spec| spec.compile())
        .expect("a valid scenario");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = plan.run_report();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(report.unanimous_verdict(), Some(Verdict::NotPartitionable));
    // Every node starts with its k own edges and accepts each of the others
    // exactly once.
    let edges = n * k / 2;
    let accepted = (n * (edges - k)) as u64;
    // Measured 11 473 (1.7 per accepted edge); 27 831 (4.2) with a vector per
    // neighbor per round and an `Arc` per extended chain; 90 181 (13.6) with
    // a set per excluded neighbor, heap-built digests and statements, a set
    // per distinctness check, a doubled chain buffer and the chain memo.
    assert!(
        allocations < 2 * accepted,
        "run_report made {allocations} allocations for {accepted} accepted edges"
    );
}

/// Counts the relayed edges delivered to a process; allocates nothing.
struct CountEdges<P> {
    inner: P,
    edges: u64,
}

impl<P: Process<Msg = NectarMsg>> Process for CountEdges<P> {
    type Msg = NectarMsg;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn send(&mut self, round: usize) -> Vec<Outgoing<NectarMsg>> {
        self.inner.send(round)
    }

    fn receive(&mut self, round: usize, from: NodeId, msg: NectarMsg) {
        self.edges += msg.edges.len() as u64;
        self.inner.receive(round, from, msg);
    }

    fn quiescent(&self) -> bool {
        self.inner.quiescent()
    }

    fn link_changed(&mut self, round: usize, peer: NodeId, up: bool) {
        self.inner.link_changed(round, peer, up);
    }
}

/// The wire path costs what it delivers. The same fleet is run on the sync
/// engine and over loopback; what loopback adds is bounded by what a
/// delivered edge must own after decode (its proof and its chain's links:
/// 2, + the message's edge vector and the `Arc` around it) and what a frame
/// must own in flight (its one send buffer, its payload out of the
/// `FrameBuffer`, its share of the driver's per-round maps).
///
/// Measured: sync 10 087, loopback 111 131 (34 848 edges delivered in 2 592
/// messages, 16 128 frames; ceiling 243 655). Before messages were views of
/// one round batch: sync 27 287, loopback 160 587. With a `Vec` per
/// `get_u16`, a second header parse per frame and `to_vec()` at the end of
/// every encode, the same run made 697 549.
#[test]
fn a_loopback_run_allocates_per_edge_and_per_frame_over_the_sync_engine() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (n, k) = (48, 6);
    let scenario = Scenario::new(gen::harary(k, n).expect("harary(6, 48)"), 2).with_key_seed(1);
    let rounds = scenario.config().effective_rounds();
    let fleet = || -> Vec<_> {
        let participants = scenario.build_participants();
        participants.into_iter().map(|inner| CountEdges { inner, edges: 0 }).collect()
    };
    let delivered = |fleet: &[CountEdges<_>]| fleet.iter().map(|p| p.edges).sum::<u64>();

    let processes = fleet();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut net = SyncNetwork::new(processes, scenario.topology().clone());
    net.run_rounds(rounds);
    let (sync_fleet, sync_metrics) = net.into_parts();
    let sync = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let processes = fleet();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (wire_fleet, wire_metrics, ()) =
        run_over_loopback(processes, scenario.topology(), rounds).expect("loopback run");
    let loopback = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(wire_metrics, sync_metrics);
    let edges = delivered(&wire_fleet);
    assert_eq!(edges, delivered(&sync_fleet));
    // Every message is a Data frame; every node closes every round toward
    // every neighbour with a RoundEnd frame.
    let messages: u64 = wire_metrics.msgs_sent().iter().sum();
    let frames = messages + (2 * scenario.topology().edge_count() * rounds) as u64;
    assert!(
        loopback < sync + 3 * edges + 8 * frames,
        "loopback made {loopback} allocations against sync's {sync}, \
         for {edges} delivered edges in {messages} messages and {frames} frames"
    );
}

/// Decoding a message allocates what the decoded value owns — per edge the
/// proof's `Arc` and the chain's link vector, plus the edge vector and the
/// `Arc` the message shares it behind — whatever the chain length: no read
/// of a length, an id or a tag touches the heap. (34 for 16 edges; 49 with
/// an `Arc` per chain; 164 at chain length 2 and 228 at length 6 when every
/// `get_u16` returned a `Vec`.)
#[test]
fn decoding_a_message_allocates_two_per_edge_whatever_the_chain_length() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let e = 16u16;
    let ks = KeyStore::generate(e as usize + 1, 3);
    let decode_allocations = |chain_len: u16| {
        let edges = (0..e)
            .map(|a| {
                let proof = NeighborhoodProof::new(&ks.signer(a), &ks.signer(a + 1));
                let digest = proof.digest();
                let chain = (0..chain_len).fold(SignatureChain::new(), |chain, hop| {
                    chain.extend(&ks.signer(hop), &digest)
                });
                RelayedEdge::new(proof, chain)
            })
            .collect();
        let msg = NectarMsg::new(edges);
        let wire = msg.to_wire_bytes();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let decoded = NectarMsg::decode(&mut wire.as_slice());
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(decoded, Ok(msg));
        allocations
    };
    let (short, long) = (decode_allocations(2), decode_allocations(6));
    assert_eq!(short, long, "allocations must not depend on the chain length");
    assert!(long <= 2 * e as u64 + 2, "decoding {e} edges made {long} allocations");
}

/// A correct node's `send` makes its round's messages in a constant number
/// of allocations: the batch was signed as its edges were accepted, and each
/// neighbor's message is a view of it. With p queued relays and d
/// neighbors, copying each edge into a vector per neighbor and sharing each
/// extended chain behind an `Arc` cost d + 2p + 1.
#[test]
fn sending_a_round_allocates_the_same_whatever_the_batch_and_the_neighborhood() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let ks = KeyStore::generate(64, 9);
    // Node 0 joined to nodes 1..=d, announcing its d edges and `extra`
    // fictitious ones, then accepting `relayed` edges (1, j) from node 1 in
    // round 1, which go to every neighbor but node 1.
    let send_allocations = |d: u16, extra: u16, relayed: u16| {
        let proof = |a: u16, b: u16| NeighborhoodProof::new(&ks.signer(a), &ks.signer(b));
        let own = (1..=d).map(|j| (j as NodeId, proof(0, j))).collect();
        let mut node =
            NectarNode::new(0, NectarConfig::new(64, 1), ks.signer(0), ks.verifier(), own);
        for j in 0..extra {
            node.announce_extra_proof(proof(40 + j % 8, 48 + j / 8));
        }
        let msg: NectarMsg = (0..relayed)
            .map(|j| {
                let proof = proof(1, 20 + j);
                let chain = SignatureChain::new().extend(&ks.signer(1), &proof.digest());
                RelayedEdge::new(proof, chain)
            })
            .collect();
        node.receive(1, 1, msg);
        assert!(node.rejections().is_empty());
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let out = node.send(1);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let p = (d + extra + relayed) as usize;
        assert_eq!(out.len(), d as usize);
        assert_eq!(out[0].msg.edges.len(), p - relayed as usize, "node 1 gets none of its own");
        assert!(out[1..].iter().all(|o| o.msg.edges.len() == p));
        allocations
    };
    let least = send_allocations(2, 0, 0);
    for (d, extra, relayed) in [(2, 0, 8), (8, 0, 0), (8, 16, 0), (16, 16, 16), (4, 0, 32)] {
        let allocations = send_allocations(d, extra, relayed);
        assert_eq!(
            allocations, least,
            "d = {d}, {extra} extra announcements, {relayed} relays: {allocations} allocations"
        );
    }
    assert!(least <= 2, "send made {least} allocations");
}

/// A chain's 2-byte length prefix is a claim, not a size: a buffer that
/// claims 65 535 links and holds none ends early without the decoder having
/// reserved the 2.2 MB (65 535 × 34 B) the claim describes.
#[test]
fn decoding_a_chain_reserves_for_the_buffer_not_for_the_claimed_length() {
    let _turn = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let wire = u16::MAX.to_be_bytes();
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let decoded = SignatureChain::decode(&mut wire.as_slice());
    let requested = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    assert!(matches!(decoded, Err(CodecError::UnexpectedEnd { .. })), "{decoded:?}");
    assert!(requested < 4096, "decoding an empty claim of 65 535 links requested {requested} B");
}
