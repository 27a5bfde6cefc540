//! **nectar** — Byzantine-resilient network partition detection.
//!
//! Facade crate for the full reproduction of *Partition Detection in
//! Byzantine Networks* (ICDCS 2024): it re-exports the protocol
//! ([`protocol`]), the substrates it runs on ([`graph`], [`crypto`],
//! [`net`]), the evaluation baselines ([`baselines`]) and the experiment
//! harness ([`experiments`]).
//!
//! **Place in the runtime stack:** the top. This crate hosts the
//! `nectar-cli` binary (whose `--runtime {sync,event,parallel}` flag picks
//! the execution engine), the cross-crate integration/property suites
//! under `tests/` — including the cross-runtime equivalence suite — and
//! the runnable `examples/`. See `docs/ARCHITECTURE.md` for the full map.
//!
//! # Quick start
//!
//! ```
//! use nectar::prelude::*;
//!
//! // Build a topology, pick a Byzantine budget, run NECTAR.
//! let graph = nectar::graph::gen::harary(4, 12)?;
//! let report = Scenario::new(graph, 2)
//!     .with_byzantine(5, ByzantineBehavior::Silent)
//!     .sim()
//!     .run();
//! assert!(report.agreement());
//! assert_eq!(report.unanimous_verdict(), Some(Verdict::NotPartitionable));
//! # Ok::<(), nectar::graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]

/// Graph substrate: `Graph`, connectivity, topology generators.
pub use nectar_graph as graph;

/// Cryptographic substrate: SHA-256, signatures, chains, proofs.
pub use nectar_crypto as crypto;

/// Synchronous runtimes, metrics and fault interposition.
pub use nectar_net as net;

/// The NECTAR protocol itself.
pub use nectar_protocol as protocol;

/// MindTheGap baselines and attacks.
pub use nectar_baselines as baselines;

/// Figure-by-figure experiment runners.
pub use nectar_experiments as experiments;

/// Signature-free (Dolev path-vector) partition detection — the
/// cost/assumption trade-off the paper's conclusion speculates about.
pub use nectar_dolev as unsigned;

pub mod cli;

/// The scenario layer — the single front door to every execution axis
/// (`nectar-cli run <file>`): re-exported at the crate root because it
/// is the first thing a new user touches.
pub use nectar_experiments::{
    CompiledScenario, MobilitySpec, ScenarioError, ScenarioSpec, TransportKind,
};

/// The most commonly used items in one import.
pub mod prelude {
    pub use nectar_baselines::{BaselineVerdict, MtgConfig};
    pub use nectar_experiments::{CompiledScenario, MobilitySpec, ScenarioSpec, TransportKind};
    pub use nectar_graph::{connectivity, gen, traversal, Graph};
    pub use nectar_protocol::{
        ByzantineBehavior, Decision, EpochOutcome, NectarConfig, NectarNode, RunReport, Runtime,
        Scenario, ScheduleError, Simulation, TopologySchedule, Verdict,
    };
}
