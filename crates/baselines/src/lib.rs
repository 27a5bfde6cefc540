//! Evaluation baselines for the NECTAR reproduction.
//!
//! **Place in the runtime stack:** a sibling protocol layer used only by
//! the evaluation. The baselines' nodes are `nectar-net` `Process`es run
//! for one epoch by one runner ([`run_mtg`], [`run_mtg_v2`]) on
//! `SyncNetwork`, and `nectar-experiments` compares their cost and
//! resilience against NECTAR on identical graphs.
//!
//! The paper compares NECTAR against two non-Byzantine-resilient partition
//! detectors (§V-A):
//!
//! * [`mtg`]: **MindTheGap** (Bouget et al., SRDS 2018) — epoch gossip of
//!   Bloom-filter reachable sets ([`MtgNode`]),
//! * [`mtg_v2`]: **MtGv2** — the paper's strengthened variant where filters
//!   are replaced by signed process-ID lists, each sent at most once per
//!   neighbor per epoch ([`MtgV2Node`]),
//!
//! plus the Byzantine attacks used in §V-D ([`attacks`]): all-ones filter
//! poisoning against MtG — the attacker is a [`saturated`](MtgNode::saturated)
//! node — and two-faced bridge nodes against MtGv2.
//!
//! # Example
//!
//! ```
//! use std::collections::BTreeSet;
//! use nectar_baselines::{run_mtg, BaselineVerdict};
//!
//! // Two disconnected triangles: honest MtG detects the partition…
//! let g = nectar_graph::Graph::from_edges(
//!     6,
//!     [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
//! )?;
//! let honest = run_mtg(&g, &BTreeSet::new());
//! assert_eq!(honest.success_rate(BaselineVerdict::Partitioned), 1.0);
//!
//! // …but one Byzantine node per side, gossiping all-ones filters, fools
//! // every correct node (Fig. 8's red curve).
//! let attacked = run_mtg(&g, &BTreeSet::from([0, 3]));
//! assert_eq!(attacked.success_rate(BaselineVerdict::Partitioned), 0.0);
//! # Ok::<(), nectar_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]

pub mod attacks;
pub mod bloom;
pub mod mtg;
pub mod mtg_v2;
pub mod verdict;

pub use attacks::{run_mtg, run_mtg_v2, BaselineOutcome};
pub use bloom::BloomFilter;
pub use mtg::{FilterMsg, MtgNode};
pub use mtg_v2::{MtgV2Node, SignedIdsMsg};
pub use verdict::BaselineVerdict;
