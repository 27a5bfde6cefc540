//! The connectivity oracle: bounded, cached `κ(G) ≤ t` decisions.
//!
//! The paper's Corollary 1 reduces partition detection to the *decision*
//! question "is the discovered graph t-Byzantine partitionable", i.e.
//! `κ(G) ≤ t` — the exact value of `κ` is never needed by Algorithm 1's
//! decision phase. [`ConnectivityOracle`] exploits that with a layered fast
//! path whose last layer is the exact [`connectivity`](crate::connectivity)
//! routines' own Even pair scan, stopped as soon as the decision is known.
//! Both are tested against brute-force κ
//! ([`vertex_connectivity_brute`](crate::connectivity::vertex_connectivity_brute)):
//!
//! 1. **O(m) short-circuits on the edge list.** A disconnected graph has
//!    `κ = 0 ≤ t`; a complete graph has `κ = n − 1`; and since `κ ≤ δ` (the
//!    minimum degree), `δ ≤ t` already proves partitionability — the
//!    neighborhood of a minimum-degree node is the candidate cut. All three
//!    are read off the edge list alone — `m = n(n − 1)/2` is completeness,
//!    `m + 1 < n` or a second union-find component is disconnectedness, `δ`
//!    is a degree count — so a view that is a small island in a large id
//!    space (every view of a partitioned fleet) is settled in O(m_view)
//!    with no `n`-sized structure: the [`Graph`] is asked for, through a
//!    closure, only when layer 2 must run flows on it
//!    ([`ConnectivityOracle::answer_edges`]).
//! 2. **Bounded max-flow.** When `δ > t`, Even's pair scan runs on one
//!    reusable split network with each flow capped at `t + 1`: deciding
//!    `κ(s, t) ≤ t` never needs more than `t + 1` vertex-disjoint paths, so
//!    each flow computation exits `κ(s, t) − t` augmentations early. Any
//!    pair at `≤ t` answers YES immediately; if every pair reaches the cap,
//!    `κ ≥ t + 1` and the answer is NO. Pairs are probed low-degree-first
//!    (see the measured note in `pair_scan`), so YES answers surface before
//!    the scan exhausts.
//! 3. **Fingerprint cache.** Verdicts are memoized under a cheap
//!    order-independent edge fingerprint, so repeated queries on unchanged
//!    graphs — the common case when every node of a NECTAR run converges to
//!    the same discovered view (Lemma 2), or across monitoring epochs whose
//!    topology did not move — cost O(n + m) hashing (O(1) for callers that
//!    maintain the digest incrementally) instead of max-flows.
//!    Merging a new edge changes the fingerprint, which invalidates the
//!    stale verdict by construction.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::ops::ControlFlow;

use crate::connectivity::{even_pairs, PairScanner};
use crate::graph::Graph;
use crate::rng::mix64;
use crate::traversal::DisjointSets;

/// An order-independent 64-bit digest of a graph's node count and edge set.
///
/// Per-edge hashes are combined with XOR, so the fingerprint can be updated
/// incrementally in O(1) as a node merges a newly discovered edge (XOR is
/// self-inverse: toggling the same edge twice restores the fingerprint).
/// Distinct edge sets collide with probability ~2⁻⁶⁴ per pair — negligible
/// against the cache sizes involved, and the exact
/// [`vertex_connectivity`](crate::connectivity::vertex_connectivity) stays
/// available for callers that cannot tolerate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    n: usize,
    acc: u64,
}

impl Fingerprint {
    /// Digests `g` in O(n + m).
    pub fn of(g: &Graph) -> Self {
        Self::of_edges(g.node_count(), g.edges())
    }

    /// Digests an explicit edge list over an `n`-node universe, in O(m)
    /// with no graph in hand — [`empty`](Self::empty) plus one
    /// [`toggle_edge`](Self::toggle_edge) per edge, equal to
    /// [`Fingerprint::of`] of the graph those edges span. The one home for
    /// the fold every edge-list consumer (view classes, incremental
    /// per-node digests, equivalence tests) used to spell out by hand.
    pub fn of_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut fp = Fingerprint { n, acc: 0 };
        for (u, v) in edges {
            fp.toggle_edge(u, v);
        }
        fp
    }

    /// The digest of an `n`-node edgeless graph — the starting point for
    /// callers that fold in edges via [`toggle_edge`](Self::toggle_edge)
    /// from an edge list, in O(m) with no graph in hand. Equals
    /// [`Fingerprint::of`] of the same edge set over the same `n`.
    pub fn empty(n: usize) -> Self {
        Fingerprint { n, acc: 0 }
    }

    /// Folds the undirected edge `(u, v)` into the digest. XOR-based, hence
    /// self-inverse: call once to account for a merged edge, again to
    /// account for its removal.
    pub fn toggle_edge(&mut self, u: usize, v: usize) {
        let (a, b) = (u.min(v) as u64, u.max(v) as u64);
        self.acc ^= mix64(((a << 32) | b).wrapping_add(0x9e37_79b9_7f4a_7c15));
    }
}

/// What the oracle learned about `κ(G)` while deciding `κ ≤ t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KappaBound {
    /// `κ` is known exactly (degenerate, disconnected or complete graphs).
    Exact(usize),
    /// `κ` is at most this value, which is `≤ t` (a partitionability
    /// witness: a min-degree neighborhood or a bounded pair cut).
    AtMost(usize),
    /// `κ` is at least this value, which is `t + 1` (every candidate pair
    /// reached the flow cap).
    AtLeast(usize),
}

impl KappaBound {
    /// The bound value, for reporting fields that want a single number
    /// (e.g. `Decision::connectivity`). Exactness is encoded in the variant.
    pub fn report(self) -> usize {
        match self {
            KappaBound::Exact(k) | KappaBound::AtMost(k) | KappaBound::AtLeast(k) => k,
        }
    }
}

/// One oracle verdict: the decision bit plus the `κ` knowledge behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleAnswer {
    /// Whether `G` is t-Byzantine partitionable, i.e. `κ(G) ≤ t`.
    pub partitionable: bool,
    /// The `κ` bound that justified the verdict.
    pub kappa: KappaBound,
}

/// Counters describing how the oracle answered its queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Total queries answered.
    pub queries: u64,
    /// Queries answered from the fingerprint cache.
    pub cache_hits: u64,
    /// Queries short-circuited by a disconnectedness / degeneracy /
    /// completeness check (`κ` known exactly, no flow run).
    pub structure_shortcuts: u64,
    /// Queries short-circuited by the `κ ≤ δ ≤ t` min-degree bound.
    pub min_degree_shortcuts: u64,
    /// Bounded pair max-flows run.
    pub bounded_flows: u64,
    /// Bounded pair max-flows that exited early at the `t + 1` cap.
    pub early_exits: u64,
}

impl OracleStats {
    /// Component-wise difference against an earlier snapshot — the per-run
    /// share of a shared oracle's cumulative counters.
    pub fn since(&self, earlier: &OracleStats) -> OracleStats {
        OracleStats {
            queries: self.queries.saturating_sub(earlier.queries),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            structure_shortcuts: self
                .structure_shortcuts
                .saturating_sub(earlier.structure_shortcuts),
            min_degree_shortcuts: self
                .min_degree_shortcuts
                .saturating_sub(earlier.min_degree_shortcuts),
            bounded_flows: self.bounded_flows.saturating_sub(earlier.bounded_flows),
            early_exits: self.early_exits.saturating_sub(earlier.early_exits),
        }
    }
}

/// What layer 1 reads off a view's edge list.
enum LayerOne {
    /// Degenerate, complete or disconnected: `κ` is known exactly.
    Structure(OracleAnswer),
    /// Connected with `δ ≤ t`: `κ ≤ δ` proves partitionability.
    MinDegree(OracleAnswer),
    /// Connected, incomplete, `δ > t`: only flows can tell.
    Open,
}

/// The simple graph an edge list spans over nodes `0..n`, as a strictly
/// ascending list of `(u, v)` pairs with `u < v`: self-loops and
/// out-of-range pairs dropped, orientation and duplicates folded. A list
/// already in that form — [`Graph::edges`], a node's discovered-edge key —
/// passes through in one O(m) sweep without sorting.
fn simple_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Vec<(usize, usize)> {
    let mut list: Vec<(usize, usize)> = edges
        .into_iter()
        .filter(|&(u, v)| u != v && u < n && v < n)
        .map(|(u, v)| (u.min(v), u.max(v)))
        .collect();
    if !list.windows(2).all(|w| w[0] < w[1]) {
        list.sort_unstable();
        list.dedup();
    }
    list
}

/// Layer 1: the structural short-circuits, decided from the
/// [`simple_edges`] of an edge list over `n` nodes in O(m). The `n`-sized
/// union-find and degree tables are only reached when `m ≥ n − 1`, so they
/// are O(m) too.
fn layer_one(n: usize, edges: impl IntoIterator<Item = (usize, usize)>, t: usize) -> LayerOne {
    let exact = |partitionable, kappa| {
        LayerOne::Structure(OracleAnswer { partitionable, kappa: KappaBound::Exact(kappa) })
    };
    if n <= 1 {
        return exact(true, 0);
    }
    let edges = simple_edges(n, edges);
    let m = edges.len();
    // An overflowing pair count is one no list can reach.
    if n.checked_mul(n - 1).is_some_and(|ordered_pairs| m == ordered_pairs / 2) {
        return exact(n - 1 <= t, n - 1);
    }
    // A connected graph needs a spanning tree's n − 1 edges; with that many
    // in hand, every merging edge removes one of the n initial components.
    let connected = m + 1 >= n && {
        let mut sets = DisjointSets::new(n);
        edges.iter().filter(|&&(u, v)| sets.union(u, v)).count() + 1 == n
    };
    if !connected {
        return exact(true, 0);
    }
    let mut degree = vec![0usize; n];
    for (u, v) in edges {
        degree[u] += 1;
        degree[v] += 1;
    }
    let delta = degree.into_iter().min().expect("n > 1");
    if delta <= t {
        // κ ≤ δ ≤ t: Γ(v) of a minimum-degree node is the candidate cut
        // (for a complete graph δ = n − 1 = κ, handled above).
        return LayerOne::MinDegree(OracleAnswer {
            partitionable: true,
            kappa: KappaBound::AtMost(delta),
        });
    }
    LayerOne::Open
}

/// Answers `κ(G) ≤ t` decision queries with bounds, early exit and caching.
///
/// # Example
///
/// ```
/// use nectar_graph::oracle::ConnectivityOracle;
///
/// let ring = nectar_graph::gen::cycle(8);
/// let mut oracle = ConnectivityOracle::new();
/// assert!(!oracle.is_t_partitionable(&ring, 1)); // κ = 2 > 1
/// assert!(oracle.is_t_partitionable(&ring, 2)); // κ = 2 ≤ 2
/// // The second query on an unchanged graph is a cache hit.
/// assert!(!oracle.is_t_partitionable(&ring, 1));
/// assert_eq!(oracle.stats().cache_hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ConnectivityOracle {
    cache: HashMap<(Fingerprint, usize), OracleAnswer>,
    max_entries: usize,
    stats: OracleStats,
}

impl Default for ConnectivityOracle {
    fn default() -> Self {
        Self::new()
    }
}

impl ConnectivityOracle {
    /// An oracle with the default cache bound (4096 verdicts).
    pub fn new() -> Self {
        Self::with_capacity(4096)
    }

    /// An oracle holding at most `max_entries` cached verdicts. When the
    /// bound is hit the cache is flushed wholesale — the epoch workload is
    /// "same few graphs, queried often", where eviction finesse buys
    /// nothing. `max_entries == 0` disables caching.
    pub fn with_capacity(max_entries: usize) -> Self {
        ConnectivityOracle { cache: HashMap::new(), max_entries, stats: OracleStats::default() }
    }

    /// Whether `g` is *t-Byzantine partitionable* (Definition 2 via
    /// Corollary 1): `κ(g) ≤ t`.
    pub fn is_t_partitionable(&mut self, g: &Graph, t: usize) -> bool {
        self.answer(g, t).partitionable
    }

    /// Full answer for `κ(g) ≤ t`, including the `κ` bound established.
    pub fn answer(&mut self, g: &Graph, t: usize) -> OracleAnswer {
        self.answer_edges(Fingerprint::of(g), g.edges(), t, || g)
    }

    /// [`answer`](Self::answer) for callers that hold a view as an *edge
    /// list* plus its digest and would have to build the [`Graph`]: the
    /// cache and the layer-1 shortcuts read only `edges` (consumed on a
    /// cache miss, in O(m)), and `graph` is called — at most once — only
    /// when bounded flows must run. Same checks in the same order moving
    /// the same counters as a query with the graph in hand, which is this
    /// very code fed `g.edges()`.
    ///
    /// The list is normalized, not trusted: self-loops and pairs outside
    /// `0..n` are dropped, orientation and duplicates are ignored. `fp`
    /// must digest the simple graph that leaves over `n` nodes (`n` is
    /// read from `fp`), and `graph` must build exactly that graph.
    pub fn answer_edges<G: Borrow<Graph>>(
        &mut self,
        fp: Fingerprint,
        edges: impl IntoIterator<Item = (usize, usize)>,
        t: usize,
        graph: impl FnOnce() -> G,
    ) -> OracleAnswer {
        self.stats.queries += 1;
        let key = (fp, t);
        if let Some(&hit) = self.cache.get(&key) {
            self.stats.cache_hits += 1;
            return hit;
        }
        let answer = match layer_one(fp.n, edges, t) {
            LayerOne::Structure(answer) => {
                self.stats.structure_shortcuts += 1;
                answer
            }
            LayerOne::MinDegree(answer) => {
                self.stats.min_degree_shortcuts += 1;
                answer
            }
            LayerOne::Open => self.pair_scan(graph().borrow(), t),
        };
        if self.max_entries > 0 {
            if self.cache.len() >= self.max_entries {
                self.cache.clear();
            }
            self.cache.insert(key, answer);
        }
        answer
    }

    /// Cumulative counters since construction.
    pub fn stats(&self) -> &OracleStats {
        &self.stats
    }

    /// Number of cached verdicts.
    pub fn cached_verdicts(&self) -> usize {
        self.cache.len()
    }

    /// Layer 2, for graphs layer 1 left open (connected, incomplete,
    /// `δ > t`).
    fn pair_scan(&mut self, g: &Graph, t: usize) -> OracleAnswer {
        // Even's pair scan with the max-flow capped at t + 1 on a single
        // reusable split network. The scanned pairs cover a minimum vertex
        // cut (see `even_pairs`), so:
        //   * any pair with κ(s, t) ≤ t proves κ(G) ≤ t (for non-adjacent
        //     s, t, κ(G) ≤ κ(s, t));
        //   * all pairs at ≥ t + 1, together with δ > t, prove κ(G) > t.
        //
        // Pair *order* never affects the partitionable bit, only how fast
        // a YES surfaces — and which witness reports it: the scan stops at
        // the first pair below the cap, so reordering can return a
        // different (equally valid, still ≤ t) `AtMost` bound than the
        // ascending-id scan did, which is visible downstream wherever the
        // bound is reported (e.g. `Decision::connectivity`, documented as
        // a bound rather than exact κ). The scan probes low-degree
        // non-neighbors first — a vertex of small degree
        // is the cheapest to disconnect (κ(v, w) ≤ min(deg v, deg w)) and
        // in the geometric/LHG families the low-degree fringe is where cuts
        // live, so they surface before the scan exhausts. Measured over
        // every (graph, t) pair with κ ≤ t < δ in a 66-graph zoo sweep
        // (drone, Watts–Strogatz, Barabási–Albert, pasted-tree, diamond;
        // 141 flow-answered YES queries): total bounded flows fell from 146
        // to 141 and the worst single query from 2 flows to 1 — a small
        // effect, because the min-degree endpoint `v` already sits on the
        // cheap side of the cut in most of the zoo, and a free one: the
        // O(n log n) sort is noise next to one max-flow. κ > t queries,
        // which must exhaust the scan regardless of order, are unchanged.
        let cap = t + 1;
        let mut scanner = PairScanner::new(g);
        let stats = &mut self.stats;
        let scan = even_pairs(
            g,
            |w| (g.degree(w), w),
            |s, w| {
                stats.bounded_flows += 1;
                let c = scanner.bounded_pair_connectivity(s, w, cap);
                if c < cap {
                    return ControlFlow::Break(c);
                }
                stats.early_exits += 1;
                ControlFlow::Continue(())
            },
        );
        match scan {
            ControlFlow::Break(c) => {
                OracleAnswer { partitionable: true, kappa: KappaBound::AtMost(c) }
            }
            ControlFlow::Continue(()) => {
                OracleAnswer { partitionable: false, kappa: KappaBound::AtLeast(cap) }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{vertex_connectivity, vertex_connectivity_brute};
    use crate::gen;

    fn exact(g: &Graph, t: usize) -> bool {
        vertex_connectivity(g) <= t
    }

    #[test]
    fn agrees_with_exact_on_classics() {
        let mut oracle = ConnectivityOracle::new();
        for g in [
            gen::path(6),
            gen::cycle(7),
            gen::star(6),
            gen::complete(5),
            gen::harary(4, 11).unwrap(),
            Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap(),
            Graph::empty(0),
            Graph::empty(1),
        ] {
            let kappa = vertex_connectivity(&g);
            for t in 0..kappa + 3 {
                assert_eq!(oracle.is_t_partitionable(&g, t), exact(&g, t), "graph {g:?}, t = {t}");
            }
        }
    }

    #[test]
    fn bounds_bracket_the_true_connectivity() {
        let mut oracle = ConnectivityOracle::new();
        for g in [gen::cycle(8), gen::star(7), gen::harary(4, 10).unwrap(), gen::complete(4)] {
            let kappa = vertex_connectivity(&g);
            for t in 0..kappa + 2 {
                match oracle.answer(&g, t).kappa {
                    KappaBound::Exact(k) => assert_eq!(k, kappa),
                    KappaBound::AtMost(k) => {
                        assert!(kappa <= k && k <= t, "κ = {kappa}, bound {k}, t = {t}")
                    }
                    KappaBound::AtLeast(k) => {
                        assert_eq!(k, t + 1);
                        assert!(kappa >= k, "κ = {kappa}, bound {k}");
                    }
                }
            }
        }
    }

    /// Checks every labelled graph on `n` nodes at every t <= 3, answered
    /// from its ascending edge list by an oracle that caches nothing, so
    /// each verdict is the layers' own, against brute-force κ (exact κ
    /// shares the oracle's pair scan, so it cannot vouch for it). Returns
    /// the number of queries.
    fn sweep_every_graph_on(n: usize) -> usize {
        let mut oracle = ConnectivityOracle::with_capacity(0);
        let mut queries = 0;
        let pairs: Vec<(usize, usize)> =
            (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
        for mask in 0u32..1 << pairs.len() {
            let edges: Vec<(usize, usize)> =
                (0..pairs.len()).filter(|&i| mask >> i & 1 == 1).map(|i| pairs[i]).collect();
            let g = Graph::from_edges(n, edges.iter().copied()).unwrap();
            let kappa = vertex_connectivity_brute(&g);
            for t in 0..=3 {
                let answer =
                    oracle.answer_edges(Fingerprint::of(&g), edges.iter().copied(), t, || &g);
                let case = || format!("n = {n}, edges {edges:?}, t = {t}, κ = {kappa}");
                assert_eq!(answer.partitionable, kappa <= t, "{}", case());
                let bracketed = match answer.kappa {
                    KappaBound::Exact(k) => k == kappa,
                    KappaBound::AtMost(k) => kappa <= k && k <= t,
                    KappaBound::AtLeast(k) => k == t + 1 && kappa >= k,
                };
                assert!(bracketed, "{:?} does not bracket: {}", answer.kappa, case());
                queries += 1;
            }
        }
        assert_eq!(oracle.stats().cache_hits, 0);
        queries
    }

    #[test]
    fn answer_edges_agrees_with_exact_kappa_on_every_graph_up_to_five_nodes() {
        let queries: usize = (2..=5).map(sweep_every_graph_on).sum();
        assert_eq!(queries, 4 * (2 + 8 + 64 + 1024));
    }

    /// The n = 6 sweep (32 768 graphs), too slow for a debug build:
    /// `cargo test -q --release -p nectar-graph -- --ignored` runs it.
    #[test]
    #[ignore = "32 768 graphs; run under --release with --ignored"]
    fn answer_edges_agrees_with_exact_kappa_on_every_six_node_graph() {
        assert_eq!(sweep_every_graph_on(6), 4 * 32_768);
    }

    #[test]
    fn unchanged_graphs_hit_the_cache() {
        let g = gen::harary(4, 12).unwrap();
        let mut oracle = ConnectivityOracle::new();
        assert!(!oracle.is_t_partitionable(&g, 2));
        let flows_after_first = oracle.stats().bounded_flows;
        assert!(flows_after_first > 0, "first query must run flows");
        for _ in 0..5 {
            assert!(!oracle.is_t_partitionable(&g, 2));
        }
        assert_eq!(oracle.stats().cache_hits, 5);
        assert_eq!(oracle.stats().bounded_flows, flows_after_first, "cache hits run no flows");
        // A different t is a different decision problem: miss, then hit.
        assert!(oracle.is_t_partitionable(&g, 4));
        assert!(oracle.is_t_partitionable(&g, 4));
        assert_eq!(oracle.stats().cache_hits, 6);
    }

    #[test]
    fn merging_an_edge_flushes_the_stale_verdict() {
        // A near-ring with one chord missing: κ = 1 until the chord closes
        // the cycle, then κ = 2. The cached t = 1 verdict must flip.
        let mut g = gen::path(6);
        let mut oracle = ConnectivityOracle::new();
        assert!(oracle.is_t_partitionable(&g, 1), "path: κ = 1 ≤ 1");
        g.add_edge(5, 0).unwrap();
        assert!(!oracle.is_t_partitionable(&g, 1), "ring: κ = 2 > 1, stale verdict would say yes");
        // And removal flips it back — a third distinct fingerprint.
        g.remove_edge(2, 3);
        assert!(oracle.is_t_partitionable(&g, 1));
        assert_eq!(oracle.stats().cache_hits, 0, "every mutation must miss the cache");
    }

    #[test]
    fn incremental_fingerprint_tracks_rebuilds() {
        let mut g = gen::cycle(5);
        let mut fp = Fingerprint::of(&g);
        g.add_edge(0, 2).unwrap();
        fp.toggle_edge(0, 2);
        assert_eq!(fp, Fingerprint::of(&g));
        g.remove_edge(0, 2);
        fp.toggle_edge(2, 0); // orientation must not matter
        assert_eq!(fp, Fingerprint::of(&g));
        // Same edges, different node count: distinct fingerprints.
        let padded = Graph::from_edges(6, g.edges().collect::<Vec<_>>()).unwrap();
        assert_ne!(Fingerprint::of(&padded), fp);
    }

    #[test]
    fn answer_fingerprinted_reuses_an_incremental_digest() {
        let mut g = gen::cycle(6);
        let mut fp = Fingerprint::of(&g);
        let mut oracle = ConnectivityOracle::new();
        assert!(!oracle.answer_edges(fp, g.edges(), 1, || &g).partitionable);
        g.add_edge(0, 3).unwrap();
        fp.toggle_edge(0, 3);
        assert!(!oracle.answer_edges(fp, g.edges(), 1, || &g).partitionable);
        assert_eq!(oracle.stats().cache_hits, 0);
        assert!(!oracle.answer_edges(fp, g.edges(), 1, || &g).partitionable);
        assert_eq!(oracle.stats().cache_hits, 1);
    }

    #[test]
    fn early_exits_are_counted_when_kappa_exceeds_t() {
        let g = gen::harary(6, 14).unwrap(); // κ = 6
        let mut oracle = ConnectivityOracle::new();
        assert!(!oracle.is_t_partitionable(&g, 2));
        let s = oracle.stats();
        assert!(s.early_exits > 0, "κ > t must trip the flow cap");
        assert_eq!(s.early_exits, s.bounded_flows, "no pair sits below the cap");
    }

    #[test]
    fn shortcut_layers_are_attributed() {
        let mut oracle = ConnectivityOracle::new();
        let disconnected = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        oracle.is_t_partitionable(&disconnected, 0);
        assert_eq!(oracle.stats().structure_shortcuts, 1);
        oracle.is_t_partitionable(&gen::complete(4), 1);
        assert_eq!(oracle.stats().structure_shortcuts, 2);
        oracle.is_t_partitionable(&gen::star(6), 1); // δ = 1 ≤ t
        assert_eq!(oracle.stats().min_degree_shortcuts, 1);
        assert_eq!(oracle.stats().bounded_flows, 0, "no query needed a flow");
    }

    #[test]
    fn capacity_zero_disables_caching_and_bound_flushes() {
        let g = gen::cycle(5);
        let mut uncached = ConnectivityOracle::with_capacity(0);
        uncached.is_t_partitionable(&g, 1);
        uncached.is_t_partitionable(&g, 1);
        assert_eq!(uncached.stats().cache_hits, 0);
        assert_eq!(uncached.cached_verdicts(), 0);

        let mut tiny = ConnectivityOracle::with_capacity(2);
        for t in 0..5 {
            tiny.is_t_partitionable(&g, t);
        }
        assert!(tiny.cached_verdicts() <= 2);
    }

    #[test]
    fn low_degree_pairs_are_probed_first() {
        // A κ = 2 drone placement whose min-degree vertex has both dense
        // (κ(v, w) > t) and fringe (κ(v, w) ≤ t) non-neighbors: the
        // low-degree-first order must answer YES with a single bounded flow.
        use crate::rng::Rng;
        let mut rng = Rng::seed_from_u64(0);
        let g = gen::drone_scenario(24, 3.0, 2.2, &mut rng).unwrap().graph;
        let kappa = vertex_connectivity(&g);
        let delta = g.min_degree().unwrap();
        assert!(kappa < delta, "the scan only runs below the min degree");
        let mut oracle = ConnectivityOracle::with_capacity(0);
        assert!(oracle.is_t_partitionable(&g, kappa));
        assert_eq!(oracle.stats().bounded_flows, 1, "cut must surface on the first probe");
    }

    #[test]
    fn stats_since_reports_the_delta() {
        let g = gen::cycle(6);
        let mut oracle = ConnectivityOracle::new();
        oracle.is_t_partitionable(&g, 1);
        let snapshot = *oracle.stats();
        oracle.is_t_partitionable(&g, 1);
        oracle.is_t_partitionable(&g, 2);
        let delta = oracle.stats().since(&snapshot);
        assert_eq!(delta.queries, 2);
        assert_eq!(delta.cache_hits, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::connectivity::vertex_connectivity;
    use crate::gen;
    use crate::rng::Rng;
    use proptest::prelude::*;

    /// One shared oracle across all cases also exercises cache keying: any
    /// fingerprint mix-up between the zoo's graphs would surface as a
    /// mismatch against the exact reference.
    fn check_against_exact(oracle: &mut ConnectivityOracle, g: &Graph) {
        let kappa = vertex_connectivity(g);
        for t in 0..kappa + 2 {
            let answer = oracle.answer(g, t);
            assert_eq!(
                answer.partitionable,
                kappa <= t,
                "oracle disagrees with exact κ = {kappa} at t = {t} on {g:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn matches_exact_on_harary(k in 2usize..6, extra in 0usize..12) {
            let n = k + 2 + extra;
            let mut oracle = ConnectivityOracle::new();
            check_against_exact(&mut oracle, &gen::harary(k, n).unwrap());
        }

        #[test]
        fn matches_exact_on_wheels(k in 3usize..6, extra in 0usize..10) {
            let n = (2 * k + 2 + extra).max(k + 3);
            let mut oracle = ConnectivityOracle::new();
            check_against_exact(&mut oracle, &gen::generalized_wheel(k, n).unwrap());
            let km = k.max(4); // multipartite wheels need k >= 4
            check_against_exact(&mut oracle, &gen::multipartite_wheel(km, n.max(km + 2), 2).unwrap());
        }

        #[test]
        fn matches_exact_on_lhg(k in 2usize..5, extra in 0usize..10) {
            let n = 2 * k + 4 + extra;
            let mut oracle = ConnectivityOracle::new();
            check_against_exact(&mut oracle, &gen::k_pasted_tree(k, n).unwrap());
            check_against_exact(&mut oracle, &gen::k_diamond(k, n).unwrap());
        }

        #[test]
        fn matches_exact_on_geometric(seed in 0u64..1000, d in 0usize..7) {
            let mut rng = Rng::seed_from_u64(seed);
            let placement = gen::drone_scenario(12, d as f64, 2.0, &mut rng).unwrap();
            let mut oracle = ConnectivityOracle::new();
            check_against_exact(&mut oracle, &placement.graph);
        }

        #[test]
        fn matches_exact_on_random_regular(seed in 0u64..1000, k in 3usize..6) {
            let mut rng = Rng::seed_from_u64(seed);
            let n = if k % 2 == 1 { 12 } else { 13 };
            let g = gen::random_regular(k, n, &mut rng).unwrap();
            let mut oracle = ConnectivityOracle::new();
            check_against_exact(&mut oracle, &g);
        }

        #[test]
        fn matches_exact_on_dense_random(g in arb_graph(9)) {
            let mut oracle = ConnectivityOracle::new();
            check_against_exact(&mut oracle, &g);
        }

        #[test]
        fn shared_cache_never_corrupts_verdicts(graphs in proptest::collection::vec(arb_graph(7), 3)) {
            let mut oracle = ConnectivityOracle::new();
            // Interleave queries on several graphs twice over: second pass
            // must agree with exact despite cache hits from the first.
            for _ in 0..2 {
                for g in &graphs {
                    check_against_exact(&mut oracle, g);
                }
            }
        }
    }

    /// Layer 1 as it was before it read edge lists — the [`Graph`]
    /// predicates, in the original order — in front of the shared pair
    /// scan: the reference the edge-list implementation must reproduce,
    /// answer and counters alike.
    fn dense_reference(g: &Graph, t: usize) -> (OracleAnswer, OracleStats) {
        let mut oracle = ConnectivityOracle::with_capacity(0);
        oracle.stats.queries += 1;
        let n = g.node_count();
        let exact = |partitionable, k| OracleAnswer { partitionable, kappa: KappaBound::Exact(k) };
        let answer = if n <= 1 {
            oracle.stats.structure_shortcuts += 1;
            exact(true, 0)
        } else if g.is_complete() {
            oracle.stats.structure_shortcuts += 1;
            exact(n - 1 <= t, n - 1)
        } else if !crate::traversal::is_connected(g) {
            oracle.stats.structure_shortcuts += 1;
            exact(true, 0)
        } else {
            let delta = g.min_degree().expect("n > 1");
            if delta <= t {
                oracle.stats.min_degree_shortcuts += 1;
                OracleAnswer { partitionable: true, kappa: KappaBound::AtMost(delta) }
            } else {
                oracle.pair_scan(g, t)
            }
        };
        (answer, oracle.stats)
    }

    /// `g`'s edges as a list no entry point may trust: reverse order,
    /// mixed orientation, duplicates, self-loops and out-of-range pairs,
    /// placed by `salt`.
    fn untrusted_edge_list(g: &Graph, salt: u64) -> Vec<(usize, usize)> {
        let n = g.node_count();
        let mut list = vec![(n, n + 1), (0, 0), (0, n)];
        for (i, (u, v)) in g.edges().enumerate() {
            let r = mix64((salt ^ i as u64).wrapping_add(0x9e37_79b9_7f4a_7c15));
            list.push(if r & 1 == 0 { (u, v) } else { (v, u) });
            if r & 2 != 0 {
                list.push((v, u));
            }
            if r & 4 != 0 {
                list.push((v, v));
            }
            if r & 8 != 0 {
                list.push((n + (r >> 8) as usize % 3, u));
            }
        }
        list.reverse();
        list
    }

    /// The graph path and the edge-list path (fed an untrusted list) both
    /// reproduce the dense reference on `(g, t)` — the answer and all six
    /// counters — and the graph is asked for exactly when flows run.
    fn check_against_dense_reference(g: &Graph, t: usize, salt: u64) {
        let (expected, expected_stats) = dense_reference(g, t);
        let fp = Fingerprint::of(g);
        let list = untrusted_edge_list(g, salt);

        let mut with_graph = ConnectivityOracle::with_capacity(0);
        assert_eq!(with_graph.answer(g, t), expected, "graph path, t = {t}, {g:?}");
        assert_eq!(*with_graph.stats(), expected_stats, "graph path, t = {t}, {g:?}");

        let mut from_edges = ConnectivityOracle::with_capacity(0);
        let mut graph_built = false;
        let answer = from_edges.answer_edges(fp, list.iter().copied(), t, || {
            graph_built = true;
            g
        });
        assert_eq!(answer, expected, "edge path, t = {t}, {g:?}, list {list:?}");
        assert_eq!(*from_edges.stats(), expected_stats, "edge path, t = {t}, {g:?}");
        assert_eq!(graph_built, expected_stats.bounded_flows > 0, "graph is for flows only");
    }

    #[test]
    fn oracle_edge_list_layer_one_matches_the_dense_reference_on_the_zoo() {
        for n in 0..=9usize {
            let mut zoo = vec![
                Graph::empty(n),
                gen::complete(n),
                gen::path(n),
                gen::cycle(n),
                gen::star(n),
                gen::disjoint_cliques(n / 3, 3),
                gen::disjoint_cliques(2, n / 2),
            ];
            // An island in a larger id space, and every family member that
            // exists at this size.
            zoo.push(Graph::from_edges(n + 4, gen::complete(n).edges()).unwrap());
            zoo.extend((1..n).filter_map(|k| gen::harary(k, n).ok()));
            zoo.extend((1..n).filter_map(|k| gen::generalized_wheel(k, n).ok()));
            zoo.extend((1..n).filter_map(|k| gen::k_pasted_tree(k, n).ok()));
            zoo.extend((1..n).filter_map(|k| gen::k_diamond(k, n).ok()));
            for (i, g) in zoo.iter().enumerate() {
                for t in 0..=3 {
                    check_against_dense_reference(g, t, (n * 64 + i) as u64);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn oracle_edge_list_layer_one_matches_the_dense_reference_on_gnp(
            n in 0usize..=9,
            seed in 0u64..10_000,
            per_mille in 0u32..=1000,
        ) {
            let p = f64::from(per_mille) / 1000.0;
            let g = gen::erdos_renyi(n, p, &mut Rng::seed_from_u64(seed));
            for t in 0..=3 {
                check_against_dense_reference(&g, t, seed);
            }
        }
    }

    fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
        (2..=max_n).prop_flat_map(|n| {
            let pairs: Vec<(usize, usize)> =
                (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
            proptest::collection::vec(proptest::bool::ANY, pairs.len()).prop_map(move |mask| {
                let edges = pairs.iter().zip(&mask).filter_map(|(&e, &keep)| keep.then_some(e));
                Graph::from_edges(n, edges).expect("generated edges are in range")
            })
        })
    }
}
