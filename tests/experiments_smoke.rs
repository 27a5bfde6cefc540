//! Smoke tests over the experiment harness: every row of `FIGURES` runs in
//! quick mode, produces well-formed tables whose CSV bytes are pinned, and
//! the cost figures reproduce the paper's qualitative ordering.

use nectar::crypto::sha256::sha256;
use nectar::experiments::cost::{fig3_kregular_cost, fig4_drone_nectar, fig5_drone_mtgv2};
use nectar::experiments::{Table, FIGURES};

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

/// SHA-256 of every quick-mode table's CSV, in the order `figures --quick`
/// emits them: any change to a runner's sweep order, seeds, labels or
/// arithmetic shows up here as a changed digest.
const QUICK_CSV_SHA256: [(&str, &str); 18] = [
    ("fig3", "57321d899e92a1ef1d4fbf9f39f8c54555e55b2690cac99c5f5548d9a823f331"),
    ("text_topology_cost", "83c6382d79c4d3d6bc42384710956a875e0fd639d19cbd25e283e9659c469ef6"),
    (
        "text_topology_quiescence",
        "082b0c488c8d54806bb860d865ddb69f8216b4a5ba92d343eb40bd3f96844465",
    ),
    ("text_per_node_disparity", "eab816d0c60260189d6d713d3f6d0260b53eff0b22a822251d856668c66648d7"),
    ("fig4", "d2d47664a01ad528b1c6c67e556d2ac6d8bf2fc258cf3a74a4bdd6a6d88def84"),
    ("fig5", "f271613dd6c07a089d47bbc130410526c3c8ffe1659eb7069faccb0ce59faa9f"),
    ("fig6", "b05b5158fadff30e4ee6ca95c969eb058477d00c5676700f3f217e5f64d39ecb"),
    ("fig7", "8905b93e678547b03d85a6025cdc7d86cb90412df3d37e911d5787074e5cd7cd"),
    ("fig8", "2aebe75f3cc4b6b471d7d04cb5caecab2399e5f83ebb469d97d16100733bbd3c"),
    (
        "text_resilience_harary-k4",
        "512f153d2722c3c6a70d43079ef9322fe05e7aaebd536b37ea15774b15fc5d68",
    ),
    (
        "text_resilience_pasted-tree-k4",
        "5de38d1278564ff5e50f8b204d7bb0eea697e80e08e0d2cece3c10f1ec494e56",
    ),
    (
        "text_resilience_diamond-k4",
        "512f153d2722c3c6a70d43079ef9322fe05e7aaebd536b37ea15774b15fc5d68",
    ),
    (
        "text_resilience_wheel-k4",
        "512f153d2722c3c6a70d43079ef9322fe05e7aaebd536b37ea15774b15fc5d68",
    ),
    (
        "text_resilience_multipartite-wheel-k4",
        "512f153d2722c3c6a70d43079ef9322fe05e7aaebd536b37ea15774b15fc5d68",
    ),
    ("ablation_rounds", "4e1c1b3284a92b7386a78088c0ca736dad09102886fb3782e9dc6044ff01dfec"),
    ("large_scale_cost", "8efd4bac1e0b8304f55642706e83a2adc959d0e5620153fd499537a1ebeadded"),
    ("large_scale_resilience", "1b6ee988c30b2059c75a6108b1a895182ab45ba3981a38e4f3b3b9594f297cc7"),
    ("unsigned_cost", "23e7a6616d08cbf5ef68425daa8a64ff4806bce291d64d6df68a4de360f6bd73"),
];

#[test]
fn every_quick_figure_is_well_formed_and_byte_identical() {
    let digests: Vec<(String, String)> = FIGURES
        .iter()
        .flat_map(|(_, figure)| figure(true))
        .map(|t| {
            assert_well_formed(&t);
            let hex = sha256(t.to_csv().as_bytes()).iter().map(|b| format!("{b:02x}")).collect();
            (t.id.clone(), hex)
        })
        .collect();
    let expected: Vec<(String, String)> =
        QUICK_CSV_SHA256.iter().map(|&(id, hex)| (id.into(), hex.into())).collect();
    assert_eq!(digests, expected);
}

/// Runs the named `FIGURES` rows in quick mode and checks every table they emit.
fn assert_quick_figures_well_formed(keys: &[&str]) {
    for key in keys {
        let (_, figure) = FIGURES.iter().find(|(k, _)| k == key).expect("registered figure");
        figure(true).iter().for_each(assert_well_formed);
    }
}

#[test]
fn every_cost_figure_runs_quick() {
    assert_quick_figures_well_formed(&["fig3", "topology_cost", "fig4", "fig5", "fig6", "fig7"]);
}

#[test]
fn mechanism_and_unsigned_experiments_run_quick() {
    assert_quick_figures_well_formed(&[
        "topology_quiescence",
        "per_node_disparity",
        "unsigned_cost",
    ]);
}

#[test]
fn ablations_run_quick() {
    assert_quick_figures_well_formed(&["ablation_rounds"]);
}

#[test]
fn charts_render_for_every_quick_figure() {
    let t = fig3_kregular_cost(true).remove(0);
    let chart = nectar::experiments::chart::render(&t, 60, 12);
    assert!(chart.contains(&t.title));
    assert!(chart.lines().count() > 12);
}

#[test]
fn cost_ordering_nectar_over_mtgv2_over_mtg() {
    // The evaluation's global ordering: NECTAR ≫ MtGv2 ≫ MtG on the same
    // scenario (here: quick drone setting, densest point d = 0).
    let nectar = &fig4_drone_nectar(true)[0];
    let v2 = &fig5_drone_mtgv2(true)[0];
    let nectar_cost = nectar.series[1].points[0].mean; // radius 2.4, d = 0
    let v2_cost = v2.series[1].points[0].mean;
    let mtg_cost = v2.series.last().unwrap().points[0].mean; // MtG reference
    assert!(
        nectar_cost > v2_cost && v2_cost > mtg_cost,
        "expected NECTAR ({nectar_cost:.2} KB) > MtGv2 ({v2_cost:.2} KB) > MtG ({mtg_cost:.2} KB)"
    );
}

#[test]
fn markdown_rendering_is_stable() {
    let t = fig3_kregular_cost(true).remove(0);
    let a = t.to_markdown();
    let b = t.to_markdown();
    assert_eq!(a, b);
    // Re-running the whole experiment is also deterministic.
    let t2 = fig3_kregular_cost(true).remove(0);
    assert_eq!(t.to_csv(), t2.to_csv());
}
