//! Two-barycenter random geometric graphs: the paper's drone scenario
//! (Fig. 2).
//!
//! Two scatters of points are generated around two barycenters separated by
//! a distance `d`; an edge joins two drones whenever their Euclidean
//! distance is at most the communication scope `radius`. With `radius = 2.4`
//! and `d = 0` the graph is complete; `d = 6` yields a partitioned network
//! (§V-B).

use crate::error::GraphError;
use crate::graph::Graph;
use crate::rng::Rng;

/// A drone placement: node coordinates plus the induced communication graph.
#[derive(Debug, Clone, PartialEq)]
pub struct DronePlacement {
    /// Position of each drone in the plane.
    pub positions: Vec<(f64, f64)>,
    /// Induced communication graph: `(i, j) ∈ E` iff
    /// `dist(positions[i], positions[j]) ≤ radius`.
    pub graph: Graph,
    /// Communication scope used to build the graph.
    pub radius: f64,
}

impl DronePlacement {
    /// Nodes belonging to the first scatter (around the origin barycenter).
    pub fn first_cluster(&self) -> std::ops::Range<usize> {
        0..self.positions.len() / 2
    }

    /// Nodes belonging to the second scatter.
    pub fn second_cluster(&self) -> std::ops::Range<usize> {
        self.positions.len() / 2..self.positions.len()
    }

    /// Translates the second scatter by `dx` along the x axis (the two
    /// barycenters drifting apart) and recomputes the communication graph.
    pub fn with_second_cluster_shift(&self, dx: f64) -> DronePlacement {
        let mut positions = self.positions.clone();
        for i in self.second_cluster() {
            positions[i].0 += dx;
        }
        DronePlacement {
            graph: graph_from_positions(&positions, self.radius),
            positions,
            radius: self.radius,
        }
    }
}

/// Samples the paper's drone scenario: `⌈n/2⌉` drones uniform in the unit
/// disk around `(0, 0)` and `⌊n/2⌋` around `(d, 0)`, joined when within
/// `radius` of each other.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `radius` or `d` is negative
/// or not finite.
pub fn drone_scenario(
    n: usize,
    d: f64,
    radius: f64,
    rng: &mut Rng,
) -> Result<DronePlacement, GraphError> {
    two_cluster_geometric(n, d, radius, 1.0, rng)
}

/// Generalized two-cluster geometric sampler with a configurable scatter
/// (cluster) radius.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if any of `d`, `radius`,
/// `cluster_radius` is negative or not finite.
pub fn two_cluster_geometric(
    n: usize,
    d: f64,
    radius: f64,
    cluster_radius: f64,
    rng: &mut Rng,
) -> Result<DronePlacement, GraphError> {
    for (name, v) in [("d", d), ("radius", radius), ("cluster_radius", cluster_radius)] {
        if !v.is_finite() || v < 0.0 {
            return Err(GraphError::InvalidParameters {
                reason: format!("{name} must be finite and non-negative (got {v})"),
            });
        }
    }
    let first = n / 2;
    let mut positions = Vec::with_capacity(n);
    for i in 0..n {
        let center_x = if i < first { 0.0 } else { d };
        positions.push(sample_in_disk(center_x, 0.0, cluster_radius, rng));
    }
    let graph = graph_from_positions(&positions, radius);
    Ok(DronePlacement { positions, graph, radius })
}

fn sample_in_disk(cx: f64, cy: f64, disk_radius: f64, rng: &mut Rng) -> (f64, f64) {
    let r = disk_radius * rng.next_f64().sqrt();
    let theta = 2.0 * std::f64::consts::PI * rng.next_f64();
    (cx + r * theta.cos(), cy + r * theta.sin())
}

fn graph_from_positions(positions: &[(f64, f64)], radius: f64) -> Graph {
    let n = positions.len();
    let mut g = Graph::empty(n);
    for i in 0..n {
        for j in i + 1..n {
            let (xi, yi) = positions[i];
            let (xj, yj) = positions[j];
            let dist2 = (xi - xj).powi(2) + (yi - yj).powi(2);
            if dist2 <= radius * radius {
                g.add_edge(i, j).expect("indices in range");
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = Rng::seed_from_u64(0);
        assert!(drone_scenario(10, -1.0, 1.0, &mut rng).is_err());
        assert!(drone_scenario(10, 0.0, f64::NAN, &mut rng).is_err());
        assert!(two_cluster_geometric(10, 0.0, 1.0, -2.0, &mut rng).is_err());
    }

    #[test]
    fn coincident_clusters_with_wide_scope_are_complete() {
        // d = 0, radius = 2.4: any two points in the unit disk are within 2.
        let mut rng = Rng::seed_from_u64(1);
        let p = drone_scenario(20, 0.0, 2.4, &mut rng).unwrap();
        assert!(p.graph.is_complete());
    }

    #[test]
    fn distant_clusters_are_partitioned() {
        // d = 6, radius = 2.4: inter-cluster distance is at least 4.
        let mut rng = Rng::seed_from_u64(2);
        let p = drone_scenario(20, 6.0, 2.4, &mut rng).unwrap();
        assert!(!is_connected(&p.graph));
        // No edge crosses the two scatters.
        for i in p.first_cluster() {
            for j in p.second_cluster() {
                assert!(!p.graph.has_edge(i, j));
            }
        }
    }

    #[test]
    fn moderate_distance_usually_connects_clusters() {
        let mut rng = Rng::seed_from_u64(3);
        let mut connected = 0;
        for _ in 0..20 {
            let p = drone_scenario(20, 1.0, 2.4, &mut rng).unwrap();
            if is_connected(&p.graph) {
                connected += 1;
            }
        }
        assert!(connected >= 15, "d=1, radius=2.4 should usually be connected, got {connected}/20");
    }

    #[test]
    fn sampling_is_seeded_deterministic() {
        let a = drone_scenario(12, 2.0, 1.2, &mut Rng::seed_from_u64(7)).unwrap();
        let b = drone_scenario(12, 2.0, 1.2, &mut Rng::seed_from_u64(7)).unwrap();
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.graph, b.graph);
    }

    #[test]
    fn points_stay_within_their_disk() {
        let mut rng = Rng::seed_from_u64(8);
        let p = two_cluster_geometric(30, 5.0, 1.0, 1.0, &mut rng).unwrap();
        for i in p.first_cluster() {
            let (x, y) = p.positions[i];
            assert!(x * x + y * y <= 1.0 + 1e-9);
        }
        for j in p.second_cluster() {
            let (x, y) = p.positions[j];
            assert!((x - 5.0).powi(2) + y * y <= 1.0 + 1e-9);
        }
    }
}
