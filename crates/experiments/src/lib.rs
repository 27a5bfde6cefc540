//! Experiment harness regenerating the NECTAR paper's evaluation (§V).
//!
//! Every figure and in-text result is one row of [`FIGURES`]: a selection
//! name and a `fn(quick: bool) -> Vec<Table>` holding its two parameter
//! sets — the paper's scale and a CI-sized one — as constants. The paper →
//! code map in `docs/ARCHITECTURE.md` §1 places the modules in the whole
//! system: `cost` (Figs. 3–7, §V-C, §IV-E, the 10k-node fleet), `resilience`
//! (Fig. 8, §V-D, the fleet under attack), `ablation` (round budget) and
//! `unsigned` (the §VII conjecture).
//!
//! Each runner is one private `sweep`: x values × seeded runs → [`summarize`] →
//! one [`Point`] per x, for every series a run reads off. The large-n
//! sweeps run on the event-driven runtime (`nectar_protocol::Runtime::Event`),
//! whose `O(active events)` scheduling makes system sizes far beyond the
//! paper's 100-node evaluation feasible. The `figures` binary of
//! `nectar-bench` renders every table to Markdown, a chart and a CSV.

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
    cut_byzantine_placement, partitioned_with_insiders, random_byzantine_placement, SplitScenario,
};
pub use stats::{summarize, Summary};
pub use table::{Point, Series, Table};

/// One figure runner: `true` picks the CI-sized parameters.
type Figure = fn(bool) -> Vec<Table>;

/// Every figure and in-text result, by selection name, in the order the
/// `figures` binary emits them.
pub const FIGURES: [(&str, Figure); 14] = [
    ("fig3", cost::fig3_kregular_cost),
    ("topology_cost", cost::topology_cost),
    ("topology_quiescence", cost::topology_quiescence),
    ("per_node_disparity", cost::per_node_disparity),
    ("fig4", cost::fig4_drone_nectar),
    ("fig5", cost::fig5_drone_mtgv2),
    ("fig6", cost::fig6_drone_scaling_nectar),
    ("fig7", cost::fig7_drone_scaling_mtgv2),
    ("fig8", resilience::fig8_byzantine_resilience),
    ("topology_resilience", resilience::topology_resilience),
    ("ablation_rounds", ablation::rounds_ablation),
    ("large_scale_cost", cost::large_scale_cost),
    ("large_scale_resilience", resilience::clustered_resilience),
    ("unsigned_cost", unsigned::unsigned_cost),
];

/// The one sweep loop under every runner: for each x (in order) it draws
/// `runs` samples of `S` series from `sample(x_index, run)` and summarizes
/// each series' samples into one [`Point`] at that x.
fn sweep<const S: usize>(
    xs: impl IntoIterator<Item = f64>,
    runs: usize,
    mut sample: impl FnMut(usize, usize) -> [f64; S],
) -> [Vec<Point>; S] {
    let mut points: [Vec<Point>; S] = std::array::from_fn(|_| Vec::new());
    for (i, x) in xs.into_iter().enumerate() {
        let mut samples: [Vec<f64>; S] = std::array::from_fn(|_| Vec::with_capacity(runs));
        for run in 0..runs {
            for (series, value) in samples.iter_mut().zip(sample(i, run)) {
                series.push(value);
            }
        }
        for (series, samples) in points.iter_mut().zip(&samples) {
            let s = summarize(samples);
            series.push(Point { x, mean: s.mean, ci95: s.ci95 });
        }
    }
    points
}

/// Names the `S` curves of a [`sweep`], in order.
fn labelled<L: Into<String>, const S: usize>(
    labels: [L; S],
    curves: [Vec<Point>; S],
) -> Vec<Series> {
    labels
        .into_iter()
        .zip(curves)
        .map(|(label, points)| Series { label: label.into(), points })
        .collect()
}

/// The x axis of a sweep over integer parameters (sizes, Byzantine counts).
fn xs(values: &[usize]) -> impl Iterator<Item = f64> + '_ {
    values.iter().map(|&v| v as f64)
}

/// Deterministic per-run seed mixing.
fn mix_seed(base: u64, a: u64, b: u64, c: u64) -> u64 {
    base ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ c.wrapping_mul(0x94d0_49bb_1331_11eb)
}
