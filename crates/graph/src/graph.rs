//! Undirected simple graph over nodes `0..n`.
//!
//! The paper models the communication network as a static undirected graph
//! `G = (V, E)` whose vertices host exactly one process each (§II). Nodes are
//! identified by dense indices, which keeps adjacency queries and the
//! flow-based connectivity algorithms allocation-friendly.

use std::collections::BTreeSet;

use crate::error::GraphError;

/// An undirected simple graph on the vertex set `{0, …, n-1}`.
///
/// Edges are stored as sorted adjacency sets, so neighbor iteration is
/// deterministic — a property the synchronous simulator relies on for
/// reproducible runs.
///
/// # Example
///
/// ```
/// use nectar_graph::Graph;
///
/// let mut g = Graph::empty(4);
/// g.add_edge(0, 1)?;
/// g.add_edge(1, 2)?;
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.has_edge(1, 0));
/// assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
/// # Ok::<(), nectar_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Graph {
    adj: Vec<BTreeSet<usize>>,
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn empty(n: usize) -> Self {
        Graph { adj: vec![BTreeSet::new(); n] }
    }

    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// Duplicate edges are ignored (the graph is simple).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is `>= n` and
    /// [`GraphError::SelfLoop`] for edges of the form `(u, u)`.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut g = Graph::empty(n);
        for (u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Inserts the undirected edge `(u, v)`.
    ///
    /// Returns `true` if the edge was newly inserted, `false` if it already
    /// existed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`] on
    /// invalid endpoints.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<bool, GraphError> {
        let n = self.node_count();
        for node in [u, v] {
            if node >= n {
                return Err(GraphError::NodeOutOfRange { node, n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let inserted = self.adj[u].insert(v);
        self.adj[v].insert(u);
        Ok(inserted)
    }

    /// Removes the undirected edge `(u, v)`; returns `true` if it existed.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if u >= self.node_count() || v >= self.node_count() {
            return false;
        }
        let removed = self.adj[u].remove(&v);
        self.adj[v].remove(&u);
        removed
    }

    /// Whether the undirected edge `(u, v)` is present.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj.get(u).is_some_and(|s| s.contains(&v))
    }

    /// Iterates over the neighbors of `u` in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[u].iter().copied()
    }

    /// The neighborhood Γ(u) as a sorted vector.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    pub fn neighborhood(&self, u: usize) -> Vec<usize> {
        self.adj[u].iter().copied().collect()
    }

    /// Degree of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Minimum degree over all nodes; `None` for the empty graph.
    pub fn min_degree(&self) -> Option<usize> {
        self.adj.iter().map(BTreeSet::len).min()
    }

    /// Maximum degree over all nodes; `None` for the empty graph.
    pub fn max_degree(&self) -> Option<usize> {
        self.adj.iter().map(BTreeSet::len).max()
    }

    /// A node of minimum degree; `None` for the empty graph.
    pub fn min_degree_node(&self) -> Option<usize> {
        (0..self.node_count()).min_by_key(|&u| self.degree(u))
    }

    /// Iterates over all undirected edges as `(u, v)` pairs with `u < v`, in
    /// lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, nbrs)| nbrs.iter().copied().filter(move |&v| u < v).map(move |v| (u, v)))
    }

    /// Whether the graph is complete (every pair of distinct nodes adjacent).
    pub fn is_complete(&self) -> bool {
        let n = self.node_count();
        n <= 1 || self.adj.iter().all(|s| s.len() == n - 1)
    }

    /// Returns the nodes that are *not* adjacent to `u` (excluding `u`
    /// itself), in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    pub fn non_neighbors(&self, u: usize) -> Vec<usize> {
        (0..self.node_count()).filter(|&v| v != u && !self.has_edge(u, v)).collect()
    }

    /// Returns a copy of the graph with all edges incident to `removed`
    /// deleted (the removed nodes stay as isolated vertices, preserving
    /// indices).
    ///
    /// This models the paper's "subgraph induced by `V \ V_b`" while keeping
    /// node identities stable; pair it with
    /// [`traversal::is_partitioned_without`](crate::traversal::is_partitioned_without)
    /// to test Theorem 1's condition.
    pub fn without_nodes(&self, removed: &[usize]) -> Graph {
        let mut out = self.clone();
        for &r in removed {
            if r >= out.node_count() {
                continue;
            }
            let nbrs: Vec<usize> = out.adj[r].iter().copied().collect();
            for v in nbrs {
                out.remove_edge(r, v);
            }
        }
        out
    }

    /// Merges all edges of `other` into `self`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if `other` has more nodes than
    /// `self`.
    pub fn union_edges(&mut self, other: &Graph) -> Result<(), GraphError> {
        for (u, v) in other.edges() {
            self.add_edge(u, v)?;
        }
        Ok(())
    }

    /// Dense adjacency-matrix view (`true` where an edge is present).
    pub fn to_adjacency_matrix(&self) -> Vec<Vec<bool>> {
        let n = self.node_count();
        let mut m = vec![vec![false; n]; n];
        for (u, v) in self.edges() {
            m[u][v] = true;
            m[v][u] = true;
        }
        m
    }
}

impl FromIterator<(usize, usize)> for Graph {
    /// Builds a graph from an edge iterator, sizing the vertex set to the
    /// largest endpoint seen.
    ///
    /// # Panics
    ///
    /// Panics on self-loops.
    fn from_iter<I: IntoIterator<Item = (usize, usize)>>(iter: I) -> Self {
        let edges: Vec<(usize, usize)> = iter.into_iter().collect();
        let n = edges.iter().map(|&(u, v)| u.max(v) + 1).max().unwrap_or(0);
        Graph::from_edges(n, edges).expect("endpoints bounded by construction; self-loops panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.min_degree(), Some(0));
    }

    #[test]
    fn add_edge_is_symmetric_and_idempotent() {
        let mut g = Graph::empty(3);
        assert!(g.add_edge(0, 2).unwrap());
        assert!(!g.add_edge(2, 0).unwrap());
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut g = Graph::empty(3);
        assert_eq!(g.add_edge(1, 1), Err(GraphError::SelfLoop { node: 1 }));
    }

    #[test]
    fn out_of_range_nodes_are_rejected() {
        let mut g = Graph::empty(3);
        assert_eq!(g.add_edge(0, 3), Err(GraphError::NodeOutOfRange { node: 3, n: 3 }));
    }

    #[test]
    fn remove_edge_round_trips() {
        let mut g = Graph::from_edges(4, [(0, 1), (1, 2)]).unwrap();
        assert!(g.remove_edge(1, 0));
        assert!(!g.remove_edge(1, 0));
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn edges_are_listed_once_in_order() {
        let g = Graph::from_edges(4, [(2, 3), (0, 1), (1, 2)]).unwrap();
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn neighborhood_is_sorted() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3)]).unwrap();
        assert_eq!(g.neighborhood(2), vec![0, 3, 4]);
        assert_eq!(g.degree(2), 3);
    }

    #[test]
    fn complete_detection() {
        let g = Graph::from_edges(3, [(0, 1), (0, 2), (1, 2)]).unwrap();
        assert!(g.is_complete());
        let g = Graph::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        assert!(!g.is_complete());
        assert!(Graph::empty(1).is_complete());
        assert!(Graph::empty(0).is_complete());
    }

    #[test]
    fn without_nodes_keeps_indices_and_drops_incident_edges() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let h = g.without_nodes(&[1]);
        assert_eq!(h.node_count(), 4);
        assert!(!h.has_edge(0, 1));
        assert!(!h.has_edge(1, 2));
        assert!(h.has_edge(2, 3));
    }

    #[test]
    fn non_neighbors_excludes_self_and_adjacent() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2)]).unwrap();
        assert_eq!(g.non_neighbors(0), vec![3]);
        assert_eq!(g.non_neighbors(3), vec![0, 1, 2]);
    }

    #[test]
    fn union_edges_merges_graphs() {
        let mut a = Graph::from_edges(4, [(0, 1)]).unwrap();
        let b = Graph::from_edges(4, [(2, 3), (0, 1)]).unwrap();
        a.union_edges(&b).unwrap();
        assert_eq!(a.edge_count(), 2);
    }

    #[test]
    fn from_iterator_sizes_vertex_set() {
        let g: Graph = [(0, 4), (1, 2)].into_iter().collect();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn adjacency_matrix_matches_edges() {
        let g = Graph::from_edges(3, [(0, 2)]).unwrap();
        let m = g.to_adjacency_matrix();
        assert!(m[0][2] && m[2][0]);
        assert!(!m[0][1] && !m[1][0]);
    }
}
