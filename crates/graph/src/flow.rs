//! Dinic's maximum-flow algorithm on unit-capacity-style networks.
//!
//! Vertex connectivity reduces to max-flow through the classic vertex-split
//! construction (Menger's theorem, which the paper's Lemma 1 invokes): every
//! vertex `v` becomes an arc `v_in → v_out` of capacity 1, and every
//! undirected edge `(u, v)` becomes the arcs `u_out → v_in` and `v_out → u_in`
//! of effectively infinite capacity. The maximum `s_out → t_in` flow then
//! equals the maximum number of internally vertex-disjoint `s–t` paths.

/// Capacity value treated as infinite. Large enough that no simple graph on
/// `usize::MAX >> 2` nodes can saturate it.
pub const INF: u64 = u64::MAX / 4;

#[derive(Debug, Clone)]
struct Arc {
    to: usize,
    cap: u64,
    /// Construction-time capacity, restored by [`FlowNetwork::reset`].
    init: u64,
    /// Index of the reverse arc in `to`'s adjacency list.
    rev: usize,
}

/// A flow network with dense node indices, built incrementally.
///
/// # Example
///
/// ```
/// use nectar_graph::flow::FlowNetwork;
///
/// let mut net = FlowNetwork::new(4);
/// net.add_arc(0, 1, 2);
/// net.add_arc(0, 2, 2);
/// net.add_arc(1, 3, 1);
/// net.add_arc(2, 3, 3);
/// assert_eq!(net.max_flow(0, 3), 3);
/// ```
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    arcs: Vec<Vec<Arc>>,
    level: Vec<i32>,
    iter: Vec<usize>,
    /// The augmenting search's current path, `s` first.
    path: Vec<usize>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            arcs: vec![Vec::new(); n],
            level: vec![0; n],
            iter: vec![0; n],
            path: Vec::new(),
        }
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.arcs.len()
    }

    /// Adds a directed arc `from → to` with capacity `cap` (and the implicit
    /// residual reverse arc of capacity 0).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_arc(&mut self, from: usize, to: usize, cap: u64) {
        assert!(from < self.arcs.len() && to < self.arcs.len(), "arc endpoint out of range");
        let rev_from = self.arcs[to].len();
        let rev_to = self.arcs[from].len();
        self.arcs[from].push(Arc { to, cap, init: cap, rev: rev_from });
        self.arcs[to].push(Arc { to: from, cap: 0, init: 0, rev: rev_to });
    }

    /// Restores every arc to its construction-time capacity, undoing all
    /// flow (and any [`override_arc_capacity`] overrides).
    ///
    /// This turns one network into a reusable template: computing max-flows
    /// for many source/sink pairs of the same graph costs one construction
    /// plus an O(arcs) sweep per pair, instead of rebuilding the adjacency
    /// structure from scratch each time — the connectivity oracle's pair
    /// scan depends on this.
    ///
    /// [`override_arc_capacity`]: Self::override_arc_capacity
    pub fn reset(&mut self) {
        for arcs in &mut self.arcs {
            for arc in arcs {
                arc.cap = arc.init;
            }
        }
    }

    /// Overrides the *current* capacity of the `idx`-th arc out of `from`
    /// (reverse arcs included, in insertion order), leaving the value
    /// [`reset`](Self::reset) restores untouched. Pair scanners use this to
    /// mark the current endpoints' vertex arcs as uncuttable (capacity
    /// [`INF`]) for one computation.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `idx` is out of range.
    pub fn override_arc_capacity(&mut self, from: usize, idx: usize, cap: u64) {
        self.arcs[from][idx].cap = cap;
    }

    /// The head of the `idx`-th arc out of `from` (for layout assertions in
    /// code that relies on insertion order).
    pub fn arc_head(&self, from: usize, idx: usize) -> usize {
        self.arcs[from][idx].to
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut queue = std::collections::VecDeque::new();
        self.level[s] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for arc in &self.arcs[u] {
                if arc.cap > 0 && self.level[arc.to] < 0 {
                    self.level[arc.to] = self.level[u] + 1;
                    queue.push_back(arc.to);
                }
            }
        }
        self.level[t] >= 0
    }

    /// Finds one augmenting `s → t` path in the level graph and pushes its
    /// bottleneck along it, returning that amount (0 once the level graph
    /// is blocked). A depth-first search over the current arcs `iter`, run
    /// on the explicit stack `path` so that a long path costs heap, not
    /// thread stack: the top vertex advances along its first admissible
    /// arc, and a dead end is popped and its parent's arc skipped.
    fn augment(&mut self, s: usize, t: usize) -> u64 {
        self.path.clear();
        self.path.push(s);
        while let Some(&u) = self.path.last() {
            if u == t {
                break;
            }
            let admissible = (self.iter[u]..self.arcs[u].len()).find(|&i| {
                let a = &self.arcs[u][i];
                a.cap > 0 && self.level[a.to] == self.level[u] + 1
            });
            match admissible {
                Some(i) => {
                    self.iter[u] = i;
                    self.path.push(self.arcs[u][i].to);
                }
                None => {
                    self.iter[u] = self.arcs[u].len();
                    self.path.pop();
                    match self.path.last() {
                        Some(&parent) => self.iter[parent] += 1,
                        None => return 0,
                    }
                }
            }
        }
        let hops = self.path.len() - 1;
        let pushed =
            self.path[..hops].iter().fold(INF, |d, &v| d.min(self.arcs[v][self.iter[v]].cap));
        for &v in &self.path[..hops] {
            let arc = &mut self.arcs[v][self.iter[v]];
            arc.cap -= pushed;
            let (to, rev) = (arc.to, arc.rev);
            self.arcs[to][rev].cap += pushed;
        }
        pushed
    }

    /// Computes the maximum flow from `s` to `t`, consuming the capacities
    /// (the network afterwards holds the residual graph).
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either endpoint is out of range.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        self.max_flow_bounded(s, t, u64::MAX)
    }

    /// Computes the maximum flow from `s` to `t`, but stops augmenting as
    /// soon as the accumulated flow reaches `limit`.
    ///
    /// The return value is exact when it is `< limit`; a return value
    /// `>= limit` only certifies that the true maximum flow is at least
    /// `limit`. This is the decision-problem workhorse behind
    /// [`ConnectivityOracle`](crate::oracle::ConnectivityOracle): deciding
    /// `κ(s, t) ≤ t` never needs more than `t + 1` vertex-disjoint paths, so
    /// the flow computation can quit `κ − t` augmentations early.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either endpoint is out of range.
    pub fn max_flow_bounded(&mut self, s: usize, t: usize, limit: u64) -> u64 {
        assert!(s != t, "source and sink must differ");
        assert!(s < self.arcs.len() && t < self.arcs.len(), "flow endpoint out of range");
        let mut flow = 0;
        if flow >= limit {
            return flow;
        }
        while self.bfs(s, t) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.augment(s, t);
                if f == 0 {
                    break;
                }
                flow += f;
                if flow >= limit {
                    return flow;
                }
            }
        }
        flow
    }

    /// After [`max_flow`](Self::max_flow), returns the set of nodes reachable
    /// from `s` in the residual graph — the source side of a minimum cut.
    pub fn residual_reachable(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.arcs.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[s] = true;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for arc in &self.arcs[u] {
                if arc.cap > 0 && !seen[arc.to] {
                    seen[arc.to] = true;
                    queue.push_back(arc.to);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_arc() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 5);
        assert_eq!(net.max_flow(0, 1), 5);
    }

    #[test]
    fn bottleneck_is_respected() {
        // 0 -> 1 -> 2 with caps 7 and 3.
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 7);
        net.add_arc(1, 2, 3);
        assert_eq!(net.max_flow(0, 2), 3);
    }

    #[test]
    fn parallel_paths_add_up() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 2);
        net.add_arc(1, 3, 2);
        net.add_arc(0, 2, 4);
        net.add_arc(2, 3, 1);
        assert_eq!(net.max_flow(0, 3), 3);
    }

    #[test]
    fn classic_augmenting_path_example() {
        // The textbook network where a naive greedy needs the residual arc.
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 1);
        net.add_arc(0, 2, 1);
        net.add_arc(1, 2, 1);
        net.add_arc(1, 3, 1);
        net.add_arc(2, 3, 1);
        assert_eq!(net.max_flow(0, 3), 2);
    }

    #[test]
    fn no_path_means_zero_flow() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 9);
        net.add_arc(2, 3, 9);
        assert_eq!(net.max_flow(0, 3), 0);
    }

    #[test]
    fn residual_reachability_identifies_min_cut_side() {
        // 0 ->(1) 1 ->(1) 2 : min cut saturates both arcs; from 0 only {0}
        // stays reachable after 0->1 saturates.
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 1);
        net.add_arc(1, 2, 1);
        assert_eq!(net.max_flow(0, 2), 1);
        let seen = net.residual_reachable(0);
        assert!(seen[0]);
        assert!(!seen[1]);
        assert!(!seen[2]);
    }

    #[test]
    fn bounded_flow_stops_early_but_stays_exact_below_the_limit() {
        // Four parallel unit paths 0 -> i -> 5: max flow 4.
        let build = || {
            let mut net = FlowNetwork::new(6);
            for mid in 1..5 {
                net.add_arc(0, mid, 1);
                net.add_arc(mid, 5, 1);
            }
            net
        };
        // Unbounded (or generous limits) return the exact value.
        assert_eq!(build().max_flow(0, 5), 4);
        assert_eq!(build().max_flow_bounded(0, 5, u64::MAX), 4);
        assert_eq!(build().max_flow_bounded(0, 5, 5), 4);
        // At or below the true flow the result saturates at the limit.
        assert_eq!(build().max_flow_bounded(0, 5, 2), 2);
        assert_eq!(build().max_flow_bounded(0, 5, 0), 0);
    }

    #[test]
    fn reset_restores_capacities_and_overrides_are_transient() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 1);
        net.add_arc(1, 2, 1);
        assert_eq!(net.max_flow(0, 2), 1);
        // Consumed: a second run on the residual finds nothing.
        assert_eq!(net.max_flow(0, 2), 0);
        net.reset();
        assert_eq!(net.max_flow(0, 2), 1);
        // An override widens the bottleneck for one computation only.
        net.reset();
        net.override_arc_capacity(0, 0, 7);
        assert_eq!(net.arc_head(0, 0), 1);
        assert_eq!(net.max_flow(0, 1), 7);
        net.reset();
        assert_eq!(net.max_flow(0, 1), 1);
    }

    #[test]
    fn bounded_flow_may_overshoot_on_fat_arcs() {
        // A single capacity-5 path pushes 5 in one augmentation: the bound
        // certifies "at least 2" without splitting the push.
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 5);
        assert!(net.max_flow_bounded(0, 1, 2) >= 2);
    }

    #[test]
    fn an_augmenting_path_longer_than_the_stack_allows_is_found() {
        // Two antipodes of a 100 000-cycle: each augmenting path crosses
        // 50 000 vertices, 100 000 arcs of the split network, which a
        // recursive search would take one stack frame per arc for.
        let g = crate::gen::cycle(100_000);
        let mut scanner = crate::connectivity::PairScanner::new(&g);
        assert_eq!(scanner.bounded_pair_connectivity(0, 50_000, 3), 2);
    }

    #[test]
    #[should_panic(expected = "source and sink must differ")]
    fn same_source_and_sink_panics() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 1);
        net.max_flow(1, 1);
    }
}
