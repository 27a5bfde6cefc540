//! Experiment harness regenerating the NECTAR paper's evaluation (§V).
//!
//! Every figure and in-text result maps to one runner here (the paper → code
//! map in `docs/ARCHITECTURE.md` §1 places them in the whole system):
//!
//! | Paper artifact | Runner |
//! |---|---|
//! | Fig. 3 | [`cost::fig3_kregular_cost`] |
//! | §V-C topology comparison | [`cost::topology_cost`] |
//! | Fig. 4 | [`cost::fig4_drone_nectar`] |
//! | Fig. 5 | [`cost::fig5_drone_mtgv2`] |
//! | Fig. 6 | [`cost::fig6_drone_scaling_nectar`] |
//! | Fig. 7 | [`cost::fig7_drone_scaling_mtgv2`] |
//! | Fig. 8 | [`resilience::fig8_byzantine_resilience`] |
//! | §V-D topology resilience | [`resilience::topology_resilience`] |
//! | Reproduction ablation (round budget) | [`ablation::rounds_ablation`] |
//! | §VII unsigned-cost conjecture | [`unsigned::unsigned_cost`] |
//! | Beyond §V: 10k-node clustered-fleet cost | [`cost::large_scale_cost`] |
//! | Beyond §V: clustered-fleet resilience | [`resilience::clustered_resilience`] |
//!
//! The large-n sweeps run on the event-driven runtime
//! (`nectar_protocol::Runtime::Event`), whose `O(active events)`
//! scheduling makes system sizes far beyond the paper's 100-node
//! evaluation feasible; all runners accept any runtime since outcomes are
//! bit-identical across the three.
//!
//! Each runner takes a config with `paper()` (full scale) and `quick()`
//! (CI-sized) presets and returns a [`table::Table`] that renders to CSV
//! and Markdown; the `nectar-bench` figure binaries drive them.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod chart;
pub mod cost;
pub mod matrix;
pub mod mobility;
pub mod placements;
pub mod resilience;
pub mod scenario;
pub mod stats;
pub mod table;
pub mod unsigned;

pub use mobility::MobilitySpec;
pub use scenario::{CompiledScenario, ScenarioError, ScenarioSpec, TransportKind};

pub use matrix::{
    CastSpec, CellStats, FamilySpec, MatrixCell, MatrixReport, MatrixSpec, MATRIX_CODEC_VERSION,
    MATRIX_CSV_HEADER,
};
pub use placements::{
    articulation_byzantine_placement, articulation_falsifier_cast, bridged_partition,
    cut_byzantine_placement, partitioned_with_insiders, random_byzantine_placement, BridgeScenario,
    InsiderScenario,
};
pub use stats::{summarize, Summary};
pub use table::{Point, Series, Table};
