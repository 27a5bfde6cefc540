//! Topology generators for every graph family in the paper's evaluation
//! (§V-B) plus the classic graphs used throughout the text and tests.
//!
//! * [`harary`] / [`random_regular`]: k-regular k-connected graphs,
//! * [`k_diamond`] / [`k_pasted_tree`]: Logarithmic-Harary-style graphs
//!   (k-connected with low diameter; the approximation is documented in
//!   `gen/lhg.rs`, and `docs/ARCHITECTURE.md` §1 maps the §V-B families to
//!   this module),
//! * [`generalized_wheel`] / [`multipartite_wheel`]: the Byzantine worst-case
//!   families of Bonomi, Farina and Tixeuil,
//! * [`drone_scenario`]: the two-barycenter random geometric graphs of
//!   Fig. 2,
//! * [`complete`], [`path`], [`cycle`], [`star`], [`erdos_renyi`]: classics.
//!
//! The randomized families (`erdos_renyi`, `random_regular[_connected]`,
//! `watts_strogatz`, `barabasi_albert`, `drone_scenario`,
//! `two_cluster_geometric`) draw from a caller-seeded [`crate::rng::Rng`],
//! so a seed names one graph on every platform.

mod classic;
mod extra;
mod geometric;
mod harary;
mod lhg;
mod random_regular;
mod wheel;

pub use classic::{complete, cycle, disjoint_cliques, erdos_renyi, path, star};
pub use extra::{barabasi_albert, grid, torus, watts_strogatz};
pub use geometric::{drone_scenario, two_cluster_geometric, DronePlacement};
pub use harary::harary;
pub use lhg::{k_diamond, k_pasted_tree};
pub use random_regular::{random_regular, random_regular_connected};
pub use wheel::{generalized_wheel, multipartite_wheel};
