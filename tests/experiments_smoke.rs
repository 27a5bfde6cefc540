//! Smoke tests over the experiment harness: every figure runner executes in
//! quick mode, produces well-formed tables, and reproduces the paper's
//! qualitative shapes.

use nectar::experiments::ablation::{rounds_ablation, RoundsConfig};
use nectar::experiments::cost::{
    fig3_kregular_cost, fig4_drone_nectar, fig5_drone_mtgv2, fig6_drone_scaling_nectar,
    fig7_drone_scaling_mtgv2, topology_cost, DroneCostConfig, DroneScalingConfig, Fig3Config,
    TopologyCostConfig,
};
use nectar::experiments::resilience::{fig8_byzantine_resilience, Fig8Config};
use nectar::experiments::Table;

fn assert_well_formed(t: &Table) {
    assert!(!t.series.is_empty(), "{}: no series", t.id);
    for s in &t.series {
        assert!(!s.points.is_empty(), "{}/{}: empty series", t.id, s.label);
        for p in &s.points {
            assert!(
                p.mean.is_finite() && p.ci95.is_finite(),
                "{}/{}: non-finite point",
                t.id,
                s.label
            );
            assert!(p.mean >= 0.0, "{}/{}: negative mean", t.id, s.label);
        }
    }
    let csv = t.to_csv();
    assert!(csv.starts_with("series,x,mean,ci95\n"));
    assert!(csv.lines().count() > 1);
    let md = t.to_markdown();
    assert!(md.contains(&t.title));
}

#[test]
fn every_cost_figure_runs_quick() {
    assert_well_formed(&fig3_kregular_cost(&Fig3Config::quick()));
    assert_well_formed(&topology_cost(&TopologyCostConfig::quick()));
    let drone = DroneCostConfig::quick();
    assert_well_formed(&fig4_drone_nectar(&drone));
    assert_well_formed(&fig5_drone_mtgv2(&drone));
    let scaling = DroneScalingConfig::quick();
    assert_well_formed(&fig6_drone_scaling_nectar(&scaling));
    assert_well_formed(&fig7_drone_scaling_mtgv2(&scaling));
}

#[test]
fn mechanism_and_unsigned_experiments_run_quick() {
    use nectar::experiments::cost::{per_node_disparity, topology_quiescence};
    use nectar::experiments::unsigned::{unsigned_cost, UnsignedCostConfig};
    assert_well_formed(&topology_quiescence(&TopologyCostConfig::quick()));
    assert_well_formed(&per_node_disparity(&TopologyCostConfig::quick()));
    assert_well_formed(&unsigned_cost(&UnsignedCostConfig::quick()));
}

#[test]
fn charts_render_for_every_quick_figure() {
    let t = fig3_kregular_cost(&Fig3Config::quick());
    let chart = nectar::experiments::chart::render(&t, 60, 12);
    assert!(chart.contains(&t.title));
    assert!(chart.lines().count() > 12);
}

#[test]
fn cost_ordering_nectar_over_mtgv2_over_mtg() {
    // The evaluation's global ordering: NECTAR ≫ MtGv2 ≫ MtG on the same
    // scenario (here: quick drone setting, densest point d = 0).
    let drone = DroneCostConfig::quick();
    let nectar = fig4_drone_nectar(&drone);
    let v2 = fig5_drone_mtgv2(&drone);
    let nectar_cost = nectar.series[1].points[0].mean; // radius 2.4, d = 0
    let v2_cost = v2.series[1].points[0].mean;
    let mtg_cost = v2.series.last().unwrap().points[0].mean; // MtG reference
    assert!(
        nectar_cost > v2_cost && v2_cost > mtg_cost,
        "expected NECTAR ({nectar_cost:.2} KB) > MtGv2 ({v2_cost:.2} KB) > MtG ({mtg_cost:.2} KB)"
    );
}

#[test]
fn fig8_quick_reproduces_the_headline() {
    let t = fig8_byzantine_resilience(&Fig8Config::quick());
    assert_well_formed(&t);
    let series = |label: &str| t.series.iter().find(|s| s.label.contains(label)).unwrap();
    // NECTAR: flat at 1.0.
    assert!(series("Nectar").points.iter().all(|p| p.mean == 1.0));
    // MtG: 1.0 at t = 0, 0.0 at t = 2.
    let mtg = series("MtG");
    assert_eq!(mtg.points.iter().find(|p| p.x == 0.0).unwrap().mean, 1.0);
    assert_eq!(mtg.points.iter().find(|p| p.x == 2.0).unwrap().mean, 0.0);
    // MtGv2: strictly between 0 and 1 once attacked.
    let v2 = series("MtGv2");
    let at1 = v2.points.iter().find(|p| p.x == 1.0).unwrap().mean;
    assert!(at1 > 0.0 && at1 < 1.0, "MtGv2 at t=1: {at1}");
}

#[test]
fn ablations_run_quick() {
    assert_well_formed(&rounds_ablation(&RoundsConfig::quick()));
}

#[test]
fn markdown_rendering_is_stable() {
    let t = fig3_kregular_cost(&Fig3Config::quick());
    let a = t.to_markdown();
    let b = t.to_markdown();
    assert_eq!(a, b);
    // Re-running the whole experiment is also deterministic.
    let t2 = fig3_kregular_cost(&Fig3Config::quick());
    assert_eq!(t.to_csv(), t2.to_csv());
}
