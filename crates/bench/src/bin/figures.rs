//! Regenerates every figure and in-text result of the paper's evaluation.
//!
//! ```text
//! cargo run -p nectar-bench --release --bin figures            # all, full scale
//! cargo run -p nectar-bench --release --bin figures -- --quick # CI-sized
//! cargo run -p nectar-bench --release --bin figures -- fig3 fig8
//! ```
//!
//! Each experiment prints its Markdown table to stdout and writes
//! `results/<id>.csv`.

use nectar_experiments::ablation::{rounds_ablation, RoundsConfig};
use nectar_experiments::cost::{
    fig3_kregular_cost, fig4_drone_nectar, fig5_drone_mtgv2, fig6_drone_scaling_nectar,
    fig7_drone_scaling_mtgv2, large_scale_cost, topology_cost, DroneCostConfig, DroneScalingConfig,
    Fig3Config, LargeScaleConfig, TopologyCostConfig,
};
use nectar_experiments::resilience::{
    clustered_resilience, fig8_byzantine_resilience, topology_resilience,
    ClusteredResilienceConfig, Fig8Config, TopologyResilienceConfig,
};
use nectar_experiments::Table;

fn emit(table: &Table) {
    println!("{}", table.to_markdown());
    println!("{}", nectar_experiments::chart::render(table, 64, 16));
    let path = nectar_bench::results_path(&format!("{}.csv", table.id));
    std::fs::write(&path, table.to_csv()).expect("cannot write results CSV");
    eprintln!("[figures] wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    let want = |name: &str| wanted.is_empty() || wanted.contains(&name);

    if want("fig3") {
        let cfg = if quick { Fig3Config::quick() } else { Fig3Config::paper() };
        emit(&fig3_kregular_cost(&cfg));
    }
    if want("topology_cost") {
        let cfg = if quick { TopologyCostConfig::quick() } else { TopologyCostConfig::paper() };
        emit(&topology_cost(&cfg));
    }
    if want("topology_quiescence") {
        let cfg = if quick { TopologyCostConfig::quick() } else { TopologyCostConfig::paper() };
        emit(&nectar_experiments::cost::topology_quiescence(&cfg));
    }
    if want("per_node_disparity") {
        let cfg = if quick { TopologyCostConfig::quick() } else { TopologyCostConfig::paper() };
        emit(&nectar_experiments::cost::per_node_disparity(&cfg));
    }
    if want("fig4") {
        let cfg = if quick { DroneCostConfig::quick() } else { DroneCostConfig::paper() };
        emit(&fig4_drone_nectar(&cfg));
    }
    if want("fig5") {
        let cfg = if quick { DroneCostConfig::quick() } else { DroneCostConfig::paper() };
        emit(&fig5_drone_mtgv2(&cfg));
    }
    if want("fig6") {
        let cfg = if quick { DroneScalingConfig::quick() } else { DroneScalingConfig::paper() };
        emit(&fig6_drone_scaling_nectar(&cfg));
    }
    if want("fig7") {
        let cfg = if quick { DroneScalingConfig::quick() } else { DroneScalingConfig::paper() };
        emit(&fig7_drone_scaling_mtgv2(&cfg));
    }
    if want("fig8") {
        let cfg = if quick { Fig8Config::quick() } else { Fig8Config::paper() };
        emit(&fig8_byzantine_resilience(&cfg));
    }
    if want("topology_resilience") {
        let cfg = if quick {
            TopologyResilienceConfig::quick()
        } else {
            TopologyResilienceConfig::paper()
        };
        for table in topology_resilience(&cfg) {
            emit(&table);
        }
    }
    if want("ablation_rounds") {
        let cfg = if quick { RoundsConfig::quick() } else { RoundsConfig::paper() };
        emit(&rounds_ablation(&cfg));
    }
    if want("large_scale_cost") {
        let cfg = if quick { LargeScaleConfig::quick() } else { LargeScaleConfig::paper() };
        emit(&large_scale_cost(&cfg));
    }
    if want("large_scale_resilience") {
        let cfg = if quick {
            ClusteredResilienceConfig::quick()
        } else {
            ClusteredResilienceConfig::paper()
        };
        emit(&clustered_resilience(&cfg));
    }
    if want("unsigned_cost") {
        let cfg = if quick {
            nectar_experiments::unsigned::UnsignedCostConfig::quick()
        } else {
            nectar_experiments::unsigned::UnsignedCostConfig::paper()
        };
        emit(&nectar_experiments::unsigned::unsigned_cost(&cfg));
    }
}
