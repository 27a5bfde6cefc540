//! Random k-regular graphs via the Steger–Wormald pairing algorithm
//! (§V-B cites Steger and Wormald, *Generating Random Regular Graphs
//! Quickly*, 1999).

use crate::error::GraphError;
use crate::graph::Graph;
use crate::rng::Rng;
use crate::traversal::is_connected;

/// Samples a random k-regular simple graph on `n` nodes with the
/// Steger–Wormald incremental pairing heuristic.
///
/// Stubs (`k` per node) are paired one at a time, always choosing a legal
/// pair (no self-loop, no duplicate edge) uniformly among the remaining
/// candidates; if the process wedges, it restarts.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `k ≥ n` or `k·n` is odd.
pub fn random_regular(k: usize, n: usize, rng: &mut Rng) -> Result<Graph, GraphError> {
    if k >= n {
        return Err(GraphError::InvalidParameters {
            reason: format!("random regular graph requires k < n (got k={k}, n={n})"),
        });
    }
    if (k * n) % 2 != 0 {
        return Err(GraphError::InvalidParameters {
            reason: format!("k*n must be even (got k={k}, n={n})"),
        });
    }
    if k == 0 {
        return Ok(Graph::empty(n));
    }
    loop {
        if let Some(g) = try_pairing(k, n, rng) {
            return Ok(g);
        }
    }
}

/// Samples random k-regular graphs until one is connected (for `k ≥ 3` a
/// random regular graph is connected with high probability, so few attempts
/// are needed).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] on bad `(k, n)` (see
/// [`random_regular`]) or when `max_attempts` samples were all disconnected.
pub fn random_regular_connected(
    k: usize,
    n: usize,
    rng: &mut Rng,
    max_attempts: usize,
) -> Result<Graph, GraphError> {
    for _ in 0..max_attempts {
        let g = random_regular(k, n, rng)?;
        if is_connected(&g) {
            return Ok(g);
        }
    }
    Err(GraphError::InvalidParameters {
        reason: format!(
            "no connected {k}-regular graph on {n} nodes found in {max_attempts} attempts"
        ),
    })
}

fn try_pairing(k: usize, n: usize, rng: &mut Rng) -> Option<Graph> {
    let mut g = Graph::empty(n);
    // Remaining free stubs per node.
    let mut free: Vec<usize> = vec![k; n];
    let mut open: Vec<usize> = (0..n).collect();
    let mut remaining = k * n;
    while remaining > 0 {
        // Retry a bounded number of random picks before declaring a wedge.
        let mut placed = false;
        for _ in 0..50 {
            let a = open[rng.range(0..open.len())];
            let b = open[rng.range(0..open.len())];
            if a == b || g.has_edge(a, b) {
                continue;
            }
            g.add_edge(a, b).expect("indices in range");
            for node in [a, b] {
                free[node] -= 1;
                if free[node] == 0 {
                    let pos = open.iter().position(|&x| x == node).expect("open node present");
                    open.swap_remove(pos);
                }
            }
            remaining -= 2;
            placed = true;
            break;
        }
        if !placed {
            // Wedged: an exhaustive scan may still find a legal pair.
            let legal = find_legal_pair(&g, &open);
            match legal {
                Some((a, b)) => {
                    g.add_edge(a, b).expect("indices in range");
                    for node in [a, b] {
                        free[node] -= 1;
                        if free[node] == 0 {
                            let pos =
                                open.iter().position(|&x| x == node).expect("open node present");
                            open.swap_remove(pos);
                        }
                    }
                    remaining -= 2;
                }
                None => return None,
            }
        }
    }
    Some(g)
}

fn find_legal_pair(g: &Graph, open: &[usize]) -> Option<(usize, usize)> {
    for (i, &a) in open.iter().enumerate() {
        for &b in &open[i + 1..] {
            if !g.has_edge(a, b) {
                return Some((a, b));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::vertex_connectivity;

    #[test]
    fn rejects_invalid_parameters() {
        let mut rng = Rng::seed_from_u64(0);
        assert!(random_regular(5, 5, &mut rng).is_err());
        assert!(random_regular(3, 5, &mut rng).is_err()); // odd k*n
    }

    #[test]
    fn zero_regular_graph_is_empty() {
        let mut rng = Rng::seed_from_u64(0);
        let g = random_regular(0, 6, &mut rng).unwrap();
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn samples_are_k_regular_and_simple() {
        let mut rng = Rng::seed_from_u64(3);
        for (k, n) in [(2, 10), (3, 10), (4, 15), (6, 20)] {
            let g = random_regular(k, n, &mut rng).unwrap();
            assert!((0..n).all(|v| g.degree(v) == k), "({k},{n})");
            assert_eq!(g.edge_count(), k * n / 2);
        }
    }

    #[test]
    fn connected_variant_is_connected_with_expected_connectivity() {
        let mut rng = Rng::seed_from_u64(9);
        let g = random_regular_connected(4, 20, &mut rng, 100).unwrap();
        assert!(is_connected(&g));
        // Random 4-regular graphs are 4-connected w.h.p.; at minimum 1.
        assert!(vertex_connectivity(&g) >= 1);
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        let g1 = random_regular(4, 16, &mut Rng::seed_from_u64(11)).unwrap();
        let g2 = random_regular(4, 16, &mut Rng::seed_from_u64(11)).unwrap();
        assert_eq!(g1, g2);
    }
}
