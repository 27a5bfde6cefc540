//! Statistical conformance suite over the experiment matrix — the
//! headline check of the topology-zoo × attack-zoo harness
//! (`nectar_experiments::matrix`).
//!
//! A reduced matrix (≥ 100 seeded trials per cell) pins the paper's
//! statistical claims as exact counts, not tendencies:
//!
//! 1. **No false alarms** (Theorem 1 completeness side): every cell whose
//!    family guarantees `κ(G) > t` reports `NOT_PARTITIONABLE` in all
//!    trials, across every cast in the attack zoo — zero false positives.
//! 2. **Persistent cuts are always found** (Corollary 1): cells whose
//!    family guarantees `κ(G) ≤ t` detect at rate exactly 1.0 under
//!    honest, silent-cut and partner-free falsifying casts (the casts
//!    that cannot fabricate view edges).
//! 3. **Data falsification is signature-clean but not free**: a
//!    Kailkhura-style falsifying cast never produces a single signature-
//!    verification rejection at any correct node (§II: it lies with valid
//!    signatures), yet it moves the rounds-to-verdict distribution —
//!    suppressed measurements force proofs the long way around.
//! 4. **Engine independence**: the same spec produces bit-identical
//!    `CellStats` on the sync, event and parallel runtimes at worker
//!    counts {0, 2, 3, 7}.
//! 5. **No sweep without a correct node**: `nectar-cli matrix` refuses a
//!    budget `t ≥ n` with exit 2 before any trial runs, as `detect` does.

use nectar_experiments::matrix::{CastSpec, FamilySpec, MatrixReport, MatrixSpec};
use nectar_experiments::placements::articulation_falsifier_cast;
use nectar_graph::gen;
use nectar_net::process::Process as _;
use nectar_protocol::{RejectReason, Runtime, Scenario};

/// Trials per cell — the suite's statistical floor.
const TRIALS: usize = 100;

/// The reduced conformance matrix over the `κ > t` slice of the zoo:
/// Harary and generalized-wheel families with `κ = 4 > t = 2`, swept
/// against the whole attack zoo.
fn kappa_above_t_spec() -> MatrixSpec {
    MatrixSpec {
        families: vec![FamilySpec::Harary { k: 4 }, FamilySpec::Wheel { k: 4 }],
        sizes: vec![10],
        casts: vec![
            CastSpec::Honest,
            CastSpec::SilentRandom,
            CastSpec::EquivocateRandom,
            CastSpec::FalsifyArticulation { flips_per_mille: 800 },
            CastSpec::FalsifyColluding { flips_per_mille: 800 },
        ],
        t: 2,
        trials: TRIALS,
        base_seed: 0xC0FF_EE00,
        runtime: Runtime::Sync,
    }
}

#[test]
fn kappa_above_t_families_never_false_alarm_under_any_cast() {
    let report = kappa_above_t_spec().run().expect("spec in domain");
    assert_eq!(report.cells.len(), 10);
    for cell in &report.cells {
        let s = &cell.stats;
        assert_eq!(s.trials, TRIALS);
        // Ground truth: both families pin κ = 4 > t, every seed.
        assert_eq!(
            s.truth_partitionable, 0,
            "{} n={} should never be t-partitionable",
            cell.family, cell.n
        );
        assert_eq!(s.false_positives, 0, "{} × {} raised a false alarm", cell.family, cell.cast);
        assert_eq!(s.false_negatives, 0);
        assert_eq!(s.confirmed, 0, "{} × {} confirmed a phantom partition", cell.family, cell.cast);
        // Lemma 2 (agreement) holds in every single trial.
        assert_eq!(s.agreement_failures, 0, "{} × {}", cell.family, cell.cast);
    }
}

#[test]
fn persistent_cuts_are_detected_at_rate_one() {
    // κ(H_{2,n}) = 2 = t and κ(grid) = 2 = t: every trial of every cell is
    // ground-truth partitionable, and under casts that cannot fabricate
    // view edges the perceived connectivity can only shrink — detection
    // must be exact, not merely frequent.
    let spec = MatrixSpec {
        families: vec![FamilySpec::Harary { k: 2 }, FamilySpec::Grid],
        sizes: vec![9],
        casts: vec![
            CastSpec::Honest,
            CastSpec::SilentCut,
            CastSpec::FalsifyArticulation { flips_per_mille: 800 },
        ],
        t: 2,
        trials: TRIALS,
        base_seed: 0xBAD_C4A7,
        runtime: Runtime::Sync,
    };
    let report = spec.run().expect("spec in domain");
    assert_eq!(report.cells.len(), 6);
    for cell in &report.cells {
        let s = &cell.stats;
        assert_eq!(
            s.truth_partitionable, TRIALS,
            "{} n={} should be t-partitionable in every trial",
            cell.family, cell.n
        );
        assert_eq!(
            s.detected, TRIALS,
            "{} × {} missed a persistent κ ≤ t cut",
            cell.family, cell.cast
        );
        assert!((s.detection_rate() - 1.0).abs() < f64::EPSILON);
        assert_eq!(s.false_negatives, 0, "{} × {}", cell.family, cell.cast);
        assert_eq!(s.agreement_failures, 0);
    }
}

#[test]
fn falsifiers_are_signature_clean_but_move_the_verdict_clock() {
    // Rounds-to-verdict: on the ring H_{2,12} an honest proof floods both
    // ways and the last one lands after ~n/2 rounds; a full-rate falsifier
    // suppresses its own measurements AND refuses to relay the matching
    // proofs, so its neighbors' edges must travel the long way around.
    let spec = MatrixSpec {
        families: vec![FamilySpec::Harary { k: 2 }],
        sizes: vec![12],
        casts: vec![CastSpec::Honest, CastSpec::FalsifyArticulation { flips_per_mille: 1000 }],
        t: 2,
        trials: TRIALS,
        base_seed: 0xF1A7_F00D,
        runtime: Runtime::Sync,
    };
    let report = spec.run().expect("spec in domain");
    let honest = &report.cells[0].stats;
    let falsified = &report.cells[1].stats;
    assert!(
        falsified.median_rounds > honest.median_rounds,
        "suppressed measurements must stretch dissemination \
         (honest {} rounds, falsified {} rounds)",
        honest.median_rounds,
        falsified.median_rounds
    );
    // ... and the verdicts themselves stay correct under the attack
    // (κ = 2 ≤ t: both cells detect everything, per the previous test).
    assert_eq!(falsified.detected, TRIALS);

    // Signature cleanliness, checked at the node level: a falsifying cast
    // forges nothing, so across whole runs not one message is rejected
    // for a bad proof or a bad relay chain at any correct node.
    for seed in [1u64, 7, 42, 0xF1A7] {
        let g = gen::harary(2, 12).expect("ring is constructible");
        let mut scenario = Scenario::new(g.clone(), 2).with_key_seed(seed);
        for (node, behavior) in articulation_falsifier_cast(&g, 2, 1000, seed) {
            scenario = scenario.with_byzantine(node, behavior);
        }
        for p in scenario.sim().participants() {
            let rejections = p.nectar().rejections();
            for reason in [RejectReason::BadProof, RejectReason::BadChain] {
                assert_eq!(
                    rejections.get(&reason).copied().unwrap_or(0),
                    0,
                    "falsifier cast tripped {reason:?} at node {} (seed {seed})",
                    p.nectar().id()
                );
            }
        }
    }
}

#[test]
fn cell_stats_are_bit_identical_across_runtimes_and_worker_counts() {
    let spec_on = |runtime: Runtime| MatrixSpec {
        families: vec![FamilySpec::Harary { k: 4 }],
        sizes: vec![9],
        casts: vec![CastSpec::SilentRandom, CastSpec::FalsifyColluding { flips_per_mille: 700 }],
        t: 2,
        trials: TRIALS,
        base_seed: 0x5EED,
        runtime,
    };
    let baseline = spec_on(Runtime::Sync).run().expect("spec in domain");
    let mut engines = vec![Runtime::Event];
    engines.extend([0, 2, 3, 7].map(|workers| Runtime::Parallel { workers }));
    for runtime in engines {
        let report = spec_on(runtime).run().expect("spec in domain");
        // The provenance header records the engine; the data must not.
        assert_eq!(report.runtime, runtime);
        assert_eq!(
            report.cells, baseline.cells,
            "cell stats diverged on {runtime} (workers are wall-clock only)"
        );
    }
}

#[test]
fn conformance_reports_round_trip_through_both_codecs() {
    // Persistence is part of conformance: the exact counts the suite pins
    // must survive the JSON codec unchanged, and the reloaded report must
    // export the same CSV.
    let mut spec = kappa_above_t_spec();
    spec.trials = 5; // codec check only — the statistics ran above
    spec.casts.truncate(2);
    let report = spec.run().expect("spec in domain");
    let parsed = MatrixReport::from_json(&report.to_json()).expect("JSON round trip");
    assert_eq!(parsed, report);
    assert_eq!(parsed.to_csv(), report.to_csv());
}

/// The CLI's refusals exit 2 with the library's message, before any trial
/// runs: a matrix budget that casts every node, and `--workers`, which
/// would have overridden the count `--runtime parallel:W` names.
#[test]
fn refused_invocations_exit_2_with_their_message() {
    let cli = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nectar-cli"))
            .args(args)
            .output()
            .expect("run nectar-cli");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let all_cast = ["matrix", "--families", "cycle", "--sizes", "3", "--t", "5", "--trials", "1"];
    let budget = "error: t = 5 needs fewer than the n = 3 nodes\n".to_string();
    assert_eq!(cli(&all_cast), (Some(2), budget));
    for command in ["matrix", "detect"] {
        let args = [command, "--runtime", "parallel:4", "--workers", "2", "--json"];
        assert_eq!(cli(&args), (Some(2), "error: unknown flag --workers\n".to_string()));
    }
}

/// A size past the 65 536-node limit is refused with exit 2 and the
/// library's message before any graph that large is built.
#[test]
fn oversized_matrix_sizes_exit_2_before_any_trial() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nectar-cli"))
        .args(["matrix", "--families", "cliques", "--sizes", "65540", "--trials", "1"])
        .output()
        .expect("run nectar-cli");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: 65540 nodes exceed the 65536-node limit (node ids are u16 on the wire)\n"
    );
}
