//! NECTAR — *Neighbors Exploring Connections Toward Adversary Resilience*.
//!
//! A from-scratch Rust implementation of the Byzantine-resilient network
//! partition detection algorithm of Bromberg, Decouchant, Sourisseau and
//! Taïani, *Partition Detection in Byzantine Networks* (ICDCS 2024).
//!
//! **Place in the runtime stack:** the protocol layer. [`NectarNode`]
//! implements `nectar_net::Process`, so the same node code executes on
//! either engine — deterministic sync, or the event-driven loop that hosts
//! 10k+-node fleets, on one thread or fanned out over every core — selected
//! via [`runner::Runtime`]; [`Scenario`] describes a scenario, and
//! [`Scenario::sim`] starts the [`Simulation`] builder every experiment,
//! example and test drives (runtime and its workers, shared oracle, epochs,
//! schedule), finishing in a persisted [`RunReport`].
//! The decision phase answers `κ ≤ t` through `nectar_graph`'s
//! `ConnectivityOracle`.
//!
//! NECTAR solves **t-Byzantine-resilient, 2t-sensitive network partition
//! detection** (Definition 3) on arbitrary graphs: after `n − 1` synchronous
//! rounds of signed edge dissemination, every correct node decides either
//! `NOT_PARTITIONABLE` (no placement of `t` Byzantine nodes can disconnect
//! correct nodes) or `PARTITIONABLE`, together with a `confirmed` flag that
//! indicates an actual observed partition. The algorithm guarantees:
//!
//! * **Termination** — bounded by network synchrony,
//! * **Agreement** — all correct nodes decide the same value,
//! * **Safety** — if the Byzantine nodes form a vertex cut, no correct node
//!   decides NOT_PARTITIONABLE,
//! * **2t-Sensitivity** — if the graph is 2t-connected, all correct nodes
//!   decide NOT_PARTITIONABLE,
//! * **Validity** — `confirmed = true` only if the Byzantine nodes really
//!   form a vertex cut.
//!
//! [`RunReport::definition3_violations`] checks a run against all four.
//!
//! # Quick start
//!
//! ```
//! use nectar_protocol::{ByzantineBehavior, Scenario, Verdict};
//!
//! // A 4-regular, 4-connected graph tolerating t = 2 Byzantine nodes:
//! // connectivity 4 = 2t, so NECTAR must report NOT_PARTITIONABLE even
//! // with two silent Byzantine participants (Lemma 1).
//! let graph = nectar_graph::gen::harary(4, 10)?;
//! let report = Scenario::new(graph, 2)
//!     .with_byzantine(3, ByzantineBehavior::Silent)
//!     .with_byzantine(7, ByzantineBehavior::Silent)
//!     .sim()
//!     .run();
//! assert!(report.agreement());
//! assert_eq!(report.unanimous_verdict(), Some(Verdict::NotPartitionable));
//! # Ok::<(), nectar_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]

pub mod byzantine;
pub mod codec;
pub mod config;
pub mod message;
pub mod node;
pub mod remote;
pub mod report;
pub mod runner;
pub mod sim;

pub use byzantine::{ByzantineBehavior, Participant};
pub use config::{Decision, NectarConfig, Verdict, MAX_NODES};
pub use message::{NectarMsg, RelayedEdge};
pub use nectar_graph::{ConnectivityOracle, OracleStats};
pub use nectar_net::{ScheduleError, TopologySchedule};
pub use node::{NectarNode, RejectReason};
pub use remote::{run_scenario_node, sync_fleet_reports, NodeReport};
pub use report::{
    EpochOutcome, OutsideDefinition3, Property, RunReport, ScheduleRecord, DECISIONS_CSV_HEADER,
};
pub use runner::{Runtime, Scenario};
pub use sim::Simulation;
