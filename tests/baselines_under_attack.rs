//! The paper's headline comparison (Fig. 8 / abstract): one Byzantine node
//! costs the baselines ≥ 40% accuracy, while NECTAR stays at 100%.

use std::collections::{BTreeMap, BTreeSet};

use nectar::baselines::{run_mtg, run_mtg_v2, BaselineVerdict};
use nectar::experiments::{bridged_partition, partitioned_with_insiders};
use nectar::net::Mute;
use nectar::prelude::*;

const N: usize = 20;

#[test]
fn with_zero_byzantine_everyone_is_right() {
    let s = partitioned_with_insiders(N, 0, 1);
    let mtg = run_mtg(&s.graph, &BTreeSet::new());
    assert_eq!(mtg.success_rate(BaselineVerdict::Partitioned), 1.0);
    let v2 = run_mtg_v2(&s.graph, &BTreeMap::new(), 1);
    assert_eq!(v2.success_rate(BaselineVerdict::Partitioned), 1.0);
    let nectar = Scenario::new(s.graph, 0).sim().run();
    assert_eq!(nectar.success_rate(Verdict::Partitionable), 1.0);
}

#[test]
fn one_byzantine_breaks_baseline_agreement_but_not_nectar() {
    for seed in [1u64, 2, 3] {
        // MtG: one insider poisons its whole side.
        let s = partitioned_with_insiders(N, 1, seed);
        let saturators: BTreeSet<usize> = s.byzantine.iter().copied().collect();
        let mtg = run_mtg(&s.graph, &saturators);
        let rate = mtg.success_rate(BaselineVerdict::Partitioned);
        assert!(rate <= 0.6, "MtG must lose ≥ 40% accuracy (got {rate}, seed {seed})");
        assert!(!mtg.agreement(), "one Byzantine node must break MtG agreement");

        // MtGv2: one two-faced bridge splits the views.
        let b = bridged_partition(N, 1, 3, seed);
        let silent: BTreeSet<usize> = b.part_b.iter().copied().collect();
        let v2_byz: BTreeMap<usize, Mute> =
            b.byzantine.iter().map(|&x| (x, Mute::Toward(silent.clone()))).collect();
        let v2 = run_mtg_v2(&b.graph, &v2_byz, seed);
        let rate = v2.success_rate(BaselineVerdict::Partitioned);
        assert!(rate <= 0.6, "MtGv2 must lose ≥ 40% accuracy (got {rate}, seed {seed})");
        assert!(!v2.agreement(), "one Byzantine bridge must break MtGv2 agreement");

        // NECTAR under the exact same bridge attack: 100% correct.
        let mut scenario = Scenario::new(b.graph.clone(), 1).with_key_seed(seed);
        for &x in &b.byzantine {
            scenario = scenario
                .with_byzantine(x, ByzantineBehavior::TwoFaced { silent_toward: silent.clone() });
        }
        let nectar = scenario.sim().run();
        assert!(nectar.agreement(), "NECTAR keeps Agreement (seed {seed})");
        assert_eq!(
            nectar.success_rate(Verdict::Partitionable),
            1.0,
            "NECTAR keeps 100% accuracy (seed {seed})"
        );
    }
}

#[test]
fn two_byzantine_zero_out_mtg() {
    for seed in [4u64, 5] {
        let s = partitioned_with_insiders(N, 2, seed);
        let saturators: BTreeSet<usize> = s.byzantine.iter().copied().collect();
        let mtg = run_mtg(&s.graph, &saturators);
        assert_eq!(
            mtg.success_rate(BaselineVerdict::Partitioned),
            0.0,
            "two insiders (one per part) must fool every correct MtG node (seed {seed})"
        );
    }
}

#[test]
fn nectar_stays_perfect_up_to_six_byzantine() {
    for t in 1..=6 {
        let s = bridged_partition(N, t, 2, 10 + t as u64);
        let silent: BTreeSet<usize> = s.part_b.iter().copied().collect();
        let mut scenario = Scenario::new(s.graph, t).with_key_seed(t as u64);
        for &b in &s.byzantine {
            scenario = scenario
                .with_byzantine(b, ByzantineBehavior::TwoFaced { silent_toward: silent.clone() });
        }
        let out = scenario.sim().run();
        assert!(out.agreement(), "t = {t}");
        assert_eq!(out.success_rate(Verdict::Partitionable), 1.0, "t = {t}");
    }
}

#[test]
fn saturation_cannot_touch_signed_protocols() {
    // There is no saturation analogue against MtGv2/NECTAR: forged
    // attestations and proofs simply fail verification. Sanity-check by
    // running MtGv2 with a silent attacker on a *connected* graph: the only
    // damage is a false alarm about the silent node itself.
    let g = gen::harary(3, 10).unwrap();
    let byz = BTreeMap::from([(4usize, Mute::From { round: 1 })]);
    let out = run_mtg_v2(&g, &byz, 3);
    // All correct nodes miss node 4 and agree on "Partitioned".
    assert!(out.agreement());
    assert_eq!(out.success_rate(BaselineVerdict::Partitioned), 1.0);
}
