//! Breadth-first traversal: reachability, components, distances, diameter.
//!
//! These routines back two parts of the paper: the decision phase of
//! Algorithm 1 (`DetectReachableNode`, which counts how many nodes a correct
//! process sees as reachable in its discovered graph) and the evaluation's
//! discussion of how NECTAR's cost scales with the network diameter (§IV-E,
//! §V-C).

use std::collections::{BTreeMap, VecDeque};

use crate::graph::Graph;

/// Marks every node reachable from `start` (including `start` itself).
///
/// # Panics
///
/// Panics if `start >= n`.
pub fn reachable_from(g: &Graph, start: usize) -> Vec<bool> {
    assert!(start < g.node_count(), "start node {start} out of range");
    let mut seen = vec![false; g.node_count()];
    let mut queue = VecDeque::new();
    seen[start] = true;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        for v in g.neighbors(u) {
            if !seen[v] {
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    seen
}

/// Number of nodes reachable from `start`, including `start`.
///
/// This is the paper's `DetectReachableNode(G_i)` evaluated at the node
/// running the decision phase (Alg. 1 l. 16).
pub fn reachable_count(g: &Graph, start: usize) -> usize {
    reachable_from(g, start).iter().filter(|&&b| b).count()
}

/// Assigns a component id to every node and returns `(ids, component_count)`.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.node_count();
    let mut ids = vec![usize::MAX; n];
    let mut next = 0;
    // One queue for the whole sweep: it is empty again whenever a component
    // is exhausted, so a graph of many small components (a partitioned
    // fleet's view) costs one allocation, not one per component.
    let mut queue = VecDeque::new();
    for s in 0..n {
        if ids[s] != usize::MAX {
            continue;
        }
        ids[s] = next;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for v in g.neighbors(u) {
                if ids[v] == usize::MAX {
                    ids[v] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    (ids, next)
}

/// Disjoint sets over slots `0..len` (union-find with path halving): the
/// component structure of an edge list, with no adjacency structure in
/// hand. Shared by [`edge_component_sizes`] and the connectivity oracle's
/// edge-list connectedness check.
#[derive(Debug, Default)]
pub(crate) struct DisjointSets {
    parent: Vec<usize>,
}

impl DisjointSets {
    /// `len` singleton sets.
    pub(crate) fn new(len: usize) -> Self {
        DisjointSets { parent: (0..len).collect() }
    }

    /// Adds one more singleton set and returns its slot.
    fn push(&mut self) -> usize {
        self.parent.push(self.parent.len());
        self.parent.len() - 1
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets holding `a` and `b`; `true` iff they were distinct.
    pub(crate) fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra] = rb;
        ra != rb
    }
}

/// Component sizes of the graph an edge list spans, keyed by vertex, via
/// union-find over only the vertices the edges name — O(m α) however large
/// the id space around them is. Vertices absent from the map are isolated
/// (size 1). This is [`reachable_count`] for every named vertex at once,
/// without building a [`Graph`]: the decision phase's `DetectReachableNode`
/// on a view that is a small island in a large fleet.
pub fn edge_component_sizes(
    edges: impl IntoIterator<Item = (usize, usize)>,
) -> BTreeMap<usize, usize> {
    let mut slot_of: BTreeMap<usize, usize> = BTreeMap::new();
    let mut sets = DisjointSets::default();
    for (u, v) in edges {
        let a = *slot_of.entry(u).or_insert_with(|| sets.push());
        let b = *slot_of.entry(v).or_insert_with(|| sets.push());
        sets.union(a, b);
    }
    let mut root_size = vec![0usize; slot_of.len()];
    for &slot in slot_of.values() {
        root_size[sets.find(slot)] += 1;
    }
    slot_of.iter().map(|(&v, &slot)| (v, root_size[sets.find(slot)])).collect()
}

/// Whether the graph is connected: not partitioned per the paper's
/// Definition 1, whose partitioned graph splits into two or more mutually
/// unreachable parts. The empty graph and singletons are considered
/// connected.
pub fn is_connected(g: &Graph) -> bool {
    let (_, count) = connected_components(g);
    count <= 1
}

/// Whether the subgraph induced by `V \ removed` is partitioned
/// (Theorem 1's condition with `removed = V_b`).
///
/// Nodes listed in `removed` are skipped entirely; if fewer than two nodes
/// remain the induced subgraph cannot be partitioned and `false` is returned.
pub fn is_partitioned_without(g: &Graph, removed: &[usize]) -> bool {
    let n = g.node_count();
    let mut excluded = vec![false; n];
    for &r in removed {
        if r < n {
            excluded[r] = true;
        }
    }
    let remaining: Vec<usize> = (0..n).filter(|&u| !excluded[u]).collect();
    if remaining.len() < 2 {
        return false;
    }
    let start = remaining[0];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    seen[start] = true;
    queue.push_back(start);
    let mut reached = 1;
    while let Some(u) = queue.pop_front() {
        for v in g.neighbors(u) {
            if !seen[v] && !excluded[v] {
                seen[v] = true;
                reached += 1;
                queue.push_back(v);
            }
        }
    }
    reached < remaining.len()
}

/// BFS distances from `start`; `None` for unreachable nodes.
///
/// # Panics
///
/// Panics if `start >= n`.
pub fn bfs_distances(g: &Graph, start: usize) -> Vec<Option<usize>> {
    assert!(start < g.node_count(), "start node {start} out of range");
    let mut dist = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    dist[start] = Some(0);
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        let du = dist[u].expect("queued nodes have a distance");
        for v in g.neighbors(u) {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Eccentricity of `start` (greatest BFS distance); `None` if some node is
/// unreachable from `start`.
pub fn eccentricity(g: &Graph, start: usize) -> Option<usize> {
    let dist = bfs_distances(g, start);
    dist.into_iter().try_fold(0usize, |acc, d| d.map(|d| acc.max(d)))
}

/// Diameter of the graph; `None` if the graph is disconnected or empty.
///
/// The number of propagation rounds after which NECTAR's edge dissemination
/// goes silent is exactly this quantity (§IV-B, "no node will learn a new
/// edge after the round that corresponds to the graph diameter").
pub fn diameter(g: &Graph) -> Option<usize> {
    if g.node_count() == 0 {
        return None;
    }
    (0..g.node_count()).map(|u| eccentricity(g, u)).try_fold(0usize, |acc, e| e.map(|e| acc.max(e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn reachability_on_a_path() {
        let g = path4();
        assert_eq!(reachable_count(&g, 0), 4);
        assert!(reachable_from(&g, 3)[0]);
    }

    #[test]
    fn reachability_on_disconnected_graph() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(reachable_count(&g, 0), 2);
        assert_eq!(reachable_count(&g, 2), 2);
        assert_eq!(reachable_count(&g, 4), 1);
    }

    #[test]
    fn components_are_counted() {
        let g = Graph::from_edges(6, [(0, 1), (2, 3), (3, 4)]).unwrap();
        let (ids, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[2], ids[3]);
        assert_eq!(ids[3], ids[4]);
        assert_ne!(ids[0], ids[2]);
        assert_ne!(ids[0], ids[5]);
    }

    #[test]
    fn edge_component_sizes_match_bfs_reachability() {
        // Unordered, duplicated and reversed pairs over a sparse id space.
        let edges = [(7, 3), (3, 7), (3, 9), (20, 21), (9, 7)];
        let sizes = edge_component_sizes(edges);
        let g = Graph::from_edges(30, edges).unwrap();
        for v in 0..30 {
            assert_eq!(sizes.get(&v).copied().unwrap_or(1), reachable_count(&g, v), "vertex {v}");
        }
        assert_eq!(sizes.len(), 5, "only named vertices are keyed");
        assert!(edge_component_sizes([]).is_empty());
    }

    #[test]
    fn connectivity_predicates() {
        assert!(is_connected(&path4()));
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!is_connected(&g));
        assert!(is_connected(&Graph::empty(0)));
        assert!(is_connected(&Graph::empty(1)));
        assert!(!is_connected(&Graph::empty(2)));
    }

    #[test]
    fn partition_after_removal_detects_cut_vertices() {
        // Star: removing the hub partitions the leaves (Fig. 1b).
        let star = crate::gen::star(5);
        assert!(is_connected(&star));
        assert!(is_partitioned_without(&star, &[0]));
        // Removing a leaf does not partition the rest.
        assert!(!is_partitioned_without(&star, &[1]));
    }

    #[test]
    fn partition_after_removal_with_too_few_remaining_nodes() {
        let g = path4();
        assert!(!is_partitioned_without(&g, &[0, 1, 2]));
        assert!(!is_partitioned_without(&g, &[0, 1, 2, 3]));
    }

    #[test]
    fn removal_list_tolerates_duplicates_and_out_of_range() {
        let g = path4();
        assert!(is_partitioned_without(&g, &[1, 1, 99]));
    }

    #[test]
    fn distances_and_diameter_on_a_path() {
        let g = path4();
        assert_eq!(bfs_distances(&g, 0), vec![Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(eccentricity(&g, 1), Some(2));
        assert_eq!(diameter(&g), Some(3));
    }

    #[test]
    fn diameter_of_disconnected_graph_is_none() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter(&g), None);
        assert_eq!(eccentricity(&g, 0), None);
    }

    #[test]
    fn diameter_of_complete_graph_is_one() {
        let g = crate::gen::complete(5);
        assert_eq!(diameter(&g), Some(1));
        assert_eq!(diameter(&Graph::empty(1)), Some(0));
        assert_eq!(diameter(&Graph::empty(0)), None);
    }
}
