//! Harary graphs `H_{k,n}`: k-connected graphs with the minimum possible
//! number of edges `⌈kn/2⌉`.
//!
//! The evaluation's "k-regular k-connected graphs" (§V-B, citing Steger and
//! Wormald for the randomized variant) are exactly this family when built
//! deterministically: `H_{k,n}` is k-regular for even `k`, and for odd `k`
//! with even `n`; the figure harness uses it so that runs are reproducible.

use super::spanned;
use crate::error::GraphError;
use crate::graph::Graph;

/// Builds the Harary graph `H_{k,n}`.
///
/// Construction (Harary 1962):
/// * `k = 2m`: a circulant graph where `i` is adjacent to `i ± 1, …, i ± m`
///   (mod `n`);
/// * `k = 2m + 1`, `n` even: `H_{2m,n}` plus the diagonals `i ↔ i + n/2`;
/// * `k = 2m + 1`, `n` odd: `H_{2m,n}` plus the near-diagonals
///   `i ↔ i + (n−1)/2` for `0 ≤ i ≤ (n−1)/2` (one node ends up with degree
///   `k + 1`).
///
/// The resulting graph has vertex connectivity exactly `k`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] unless `1 ≤ k < n`.
pub fn harary(k: usize, n: usize) -> Result<Graph, GraphError> {
    if k == 0 || k >= n {
        return Err(GraphError::InvalidParameters {
            reason: format!("Harary graph requires 1 <= k < n (got k={k}, n={n})"),
        });
    }
    if k == 1 {
        // The minimal 1-connected graph: a path (the circulant construction
        // below is only defined for k >= 2).
        return Ok(crate::gen::path(n));
    }
    let circulant = (0..n).flat_map(|i| (1..=k / 2).map(move |j| (i, (i + j) % n)));
    // Odd k: the diagonals i ↔ i + ⌊n/2⌋ for i < ⌈n/2⌉, which for odd n
    // are the near-diagonals.
    let half = n / 2;
    let diagonals = if k % 2 == 1 { 0..n - half } else { 0..0 };
    Ok(spanned(n, circulant.chain(diagonals.map(|i| (i, i + half)))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::vertex_connectivity;
    use crate::traversal::is_connected;

    #[test]
    fn rejects_invalid_parameters() {
        assert!(harary(0, 5).is_err());
        assert!(harary(5, 5).is_err());
        assert!(harary(6, 5).is_err());
    }

    #[test]
    fn even_k_is_a_circulant_and_regular() {
        let g = harary(4, 9).unwrap();
        assert!((0..9).all(|v| g.degree(v) == 4));
        assert_eq!(g.edge_count(), 4 * 9 / 2);
    }

    #[test]
    fn odd_k_even_n_is_regular() {
        let g = harary(5, 10).unwrap();
        assert!((0..10).all(|v| g.degree(v) == 5));
        assert_eq!(g.edge_count(), 25);
    }

    #[test]
    fn odd_k_odd_n_has_one_heavier_node() {
        let g = harary(3, 9).unwrap();
        let mut degs: Vec<usize> = (0..9).map(|v| g.degree(v)).collect();
        degs.sort_unstable();
        assert_eq!(degs[0], 3);
        assert_eq!(degs[8], 4);
        assert_eq!(degs.iter().filter(|&&d| d == 4).count(), 1);
    }

    #[test]
    fn connectivity_is_exactly_k() {
        for (k, n) in [(1, 5), (2, 8), (3, 8), (3, 9), (4, 10), (5, 12), (6, 13)] {
            let g = harary(k, n).unwrap();
            assert!(is_connected(&g));
            assert_eq!(vertex_connectivity(&g), k, "H_{{{k},{n}}}");
        }
    }

    #[test]
    fn figure3_parameters_build() {
        // The Fig. 3 sweep: k in {2, 10, 18, 26, 34}, n up to 100.
        for k in [2usize, 10, 18, 26, 34] {
            let g = harary(k, 100).unwrap();
            assert_eq!(g.min_degree(), Some(k));
            assert!(is_connected(&g));
        }
    }
}
