//! Graph substrate for the NECTAR reproduction.
//!
//! **Place in the runtime stack:** the foundation layer. Everything above —
//! the runtimes (`nectar-net`, whose topologies are [`Graph`]s), the
//! protocol (`nectar-protocol`, whose decision phase is a connectivity
//! question), the experiments and the CLI — depends on this crate, which
//! depends on nothing but `std`.
//!
//! This crate implements every graph-theoretic ingredient used by the paper
//! *Partition Detection in Byzantine Networks* (ICDCS 2024):
//!
//! * an undirected simple [`Graph`] over nodes `0..n`,
//! * reachability, connected components and diameter ([`traversal`]),
//! * Dinic max-flow ([`flow`]) and vertex connectivity / minimum vertex cuts
//!   ([`connectivity`]), which link *t-Byzantine partitionability* to the
//!   vertex connectivity of the communication graph (Theorem 1 / Corollary 1),
//! * the [`oracle`] answering the partitionability *decision* question with
//!   bounds, early exit and caching,
//! * all topology families of the evaluation section ([`gen`]): Harary
//!   k-regular k-connected graphs, Steger–Wormald random regular graphs,
//!   Logarithmic-Harary-style k-diamond and k-pasted-tree graphs, generalized
//!   and multipartite wheels, and the two-barycenter random geometric graphs
//!   of the drone scenario, all seeded random families drawing from the
//!   one in-repo stream [`rng::Rng`].
//!
//! # Oracle vs exact connectivity
//!
//! Corollary 1 states that `G` is t-Byzantine partitionable iff
//! `κ(G) ≤ t` — a *decision* question, which is strictly cheaper than
//! computing `κ` itself. The crate therefore offers two tiers:
//!
//! * [`connectivity::vertex_connectivity`] / [`connectivity::min_vertex_cut`]
//!   compute exact values and witnesses via full max-flow runs. Use them
//!   when the number matters: ground-truth checks, reporting `κ` to a
//!   human, or placing Byzantine nodes on an actual minimum cut.
//! * [`oracle::ConnectivityOracle::is_t_partitionable`] decides `κ ≤ t`
//!   through layered shortcuts — O(n + m) structure checks, min-degree
//!   bounds, max-flows capped at `t + 1` augmentations, and a fingerprint
//!   cache for repeated queries on unchanged graphs. Use it on every hot
//!   path that re-runs the decision phase round after round (NECTAR's
//!   `decide`, epoch monitoring, the dolev detector, experiment sweeps).
//!
//! The oracle is property-tested against the exact routines across the full
//! generator zoo; its answers are identical, only its cost profile differs.
//!
//! # Example
//!
//! ```
//! use nectar_graph::{Graph, connectivity};
//!
//! // The star graph of Fig. 1b is 1-Byzantine partitionable: its vertex
//! // connectivity is 1 (the hub is a cut vertex).
//! let star = nectar_graph::gen::star(6);
//! assert_eq!(connectivity::vertex_connectivity(&star), 1);
//! assert!(connectivity::is_t_byzantine_partitionable(&star, 1));
//!
//! // A cycle is 2-connected, hence not 1-Byzantine partitionable (Fig. 1a).
//! let ring = nectar_graph::gen::cycle(6);
//! assert_eq!(connectivity::vertex_connectivity(&ring), 2);
//! assert!(!connectivity::is_t_byzantine_partitionable(&ring, 1));
//! ```

#![forbid(unsafe_code)]

pub mod connectivity;
pub mod error;
pub mod flow;
pub mod gen;
pub mod graph;
pub mod oracle;
pub mod rng;
pub mod traversal;

pub use error::GraphError;
pub use graph::Graph;
pub use oracle::{ConnectivityOracle, Fingerprint, OracleStats};

/// The [`rng`] stream is part of the reproduction contract: its first
/// draws are pinned here, with the sampling properties every generator
/// relies on.
#[cfg(test)]
mod tests {
    use crate::rng::Rng;

    #[test]
    fn stream_is_pinned() {
        let mut zero = Rng::seed_from_u64(0);
        let first: Vec<u64> = (0..8).map(|_| zero.next_u64()).collect();
        assert_eq!(
            first,
            [
                0x5317_5d61_490b_23df,
                0x61da_6f3d_c380_d507,
                0x5c0f_df91_ec9a_7bfc,
                0x02ee_bf8c_3bbe_5e1a,
                0x7eca_04eb_af4a_5eea,
                0x0543_c377_57f0_8d9a,
                0xdb74_90c7_5ab5_026e,
                0xd873_43e6_464b_c959,
            ]
        );
        let mut rng = Rng::seed_from_u64(42);
        let first: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xd076_4d4f_4476_689f,
                0x519e_4174_576f_3791,
                0xfbe0_7cfb_0c24_ed8c,
                0xb37d_9f60_0cd8_35b8,
                0xcb23_1c38_7484_6a73,
                0x968d_9f00_4e50_de7d,
                0x2017_18ff_221a_3556,
                0x9ae9_4e07_0ed8_cb46,
            ]
        );
        // One draw of each kind, in this order, from a fresh seed-42 stream.
        let mut rng = Rng::seed_from_u64(42);
        assert_eq!(rng.next_f64(), 0.8143051451229099);
        assert!(rng.next_bool());
        assert_eq!(rng.range(3..17), 9);
        assert_eq!(rng.range_inclusive(5..=9), 6);
        assert_eq!(rng.range(0..usize::MAX), 13_474_883_361_381_220_508);
        let mut v: Vec<usize> = (0..10).collect();
        rng.shuffle(&mut v);
        assert_eq!(v, [1, 7, 6, 3, 9, 0, 2, 5, 4, 8]);
        assert_eq!(rng.choose(&[10, 20, 30, 40, 50]), Some(&10));
        assert_eq!(rng.next_u64(), 9_655_509_547_605_835_575);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_sampling_respects_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.range(3..17);
            assert!((3..17).contains(&x));
            let y = rng.range_inclusive(5..=9);
            assert!((5..=9).contains(&y));
        }
    }

    #[test]
    fn range_sampling_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(11);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[rng.range(0..8)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(3);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn choose_covers_all_elements_eventually() {
        let mut rng = Rng::seed_from_u64(5);
        let v = [1, 2, 3];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(*rng.choose(&v).unwrap());
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(rng.choose::<i32>(&[]), None);
    }
}
