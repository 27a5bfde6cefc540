//! Blockchain validator overlay: why partition detection needs Byzantine
//! tolerance.
//!
//! ```text
//! cargo run -p nectar --example blockchain_overlay
//! ```
//!
//! A proof-of-stake validator set gossips over a partial mesh. Before an
//! epoch's consensus starts, validators want to know whether `t` malicious
//! validators could sever the overlay (and e.g. double-sign across the two
//! halves). We compare what MtGv2 and NECTAR conclude when the adversary
//! actually holds the bridge positions.

use std::collections::BTreeMap;

use nectar::baselines::run_mtg_v2;
use nectar::experiments::bridged_partition;
use nectar::net::Mute;
use nectar::prelude::*;

fn main() {
    // 21 validators: 18 honest in two data centers whose direct links went
    // down, 3 malicious ones holding every remaining cross-DC connection.
    let n = 21;
    let t = 3;
    let scenario = bridged_partition(n, t, 3, 7);
    let part_b: Vec<usize> = scenario.part_b.clone();
    println!("validator overlay: n = {n}, t = {t} malicious bridge validators");
    println!(
        "honest partition: DC-A = {:?}, DC-B = {:?}, bridges = {:?}\n",
        scenario.part_a, scenario.part_b, scenario.byzantine
    );

    // --- MtGv2: signed heartbeats, but no Byzantine reasoning. -----------
    let byz: BTreeMap<usize, Mute> = scenario
        .byzantine
        .iter()
        .map(|&b| (b, Mute::Toward(part_b.iter().copied().collect())))
        .collect();
    let v2 = run_mtg_v2(&scenario.graph, &byz, 7);
    let connected = v2.verdicts.values().filter(|&&v| v == BaselineVerdict::Connected).count();
    let partitioned = v2.verdicts.len() - connected;
    println!("MtGv2:  {connected} validators see a CONNECTED overlay, {partitioned} see a PARTITIONED one");
    println!("        -> agreement broken; DC-A would happily start consensus.\n");

    // --- NECTAR: same adversary, Byzantine-resilient analysis. -----------
    let mut nectar = Scenario::new(scenario.graph.clone(), t).with_key_seed(7);
    for &b in &scenario.byzantine {
        nectar = nectar.with_byzantine(
            b,
            ByzantineBehavior::TwoFaced { silent_toward: part_b.clone().into_iter().collect() },
        );
    }
    let outcome = nectar.sim().run();
    let verdict = outcome.unanimous_verdict().expect("NECTAR guarantees agreement");
    println!("NECTAR: every correct validator decides {verdict}");
    println!(
        "        (connectivity estimate ≤ t = {t}: the cross-DC paths all run\n\
         through potentially malicious validators, so consensus is deferred\n\
         until the overlay is repaired — the safe call, since the malicious\n\
         bridges really could split the vote.)"
    );

    // Ground truth check, for the skeptical reader.
    assert!(outcome.byzantine_cast_is_vertex_cut());
    assert_eq!(verdict, Verdict::Partitionable);
}
