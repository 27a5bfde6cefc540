//! Criterion benchmarks for end-to-end protocol executions: NECTAR vs the
//! baselines on identical topologies, and the three runtimes (sync,
//! event-driven, and event-driven on a 2-worker pool) plus the loopback
//! transport on identical scenarios.
//!
//! The committed baseline `BENCH_protocol.json` holds this bench's medians
//! (refresh with `NECTAR_BENCH_JSON=BENCH_protocol.json cargo bench -p
//! nectar-bench --bench protocol`); CI diffs a fresh run against it via
//! the `bench_diff` binary.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use nectar_baselines::{run_mtg, run_mtg_v2};
use nectar_crypto::{KeyStore, NeighborhoodProof};
use nectar_graph::gen;
use nectar_net::{
    run_event_driven, run_over_loopback, NodeId, Outgoing, Process, Scheduled, WireSized,
};
use nectar_protocol::{
    ConnectivityOracle, NectarNode, Participant, Runtime, Scenario, TopologySchedule,
};

fn bench_nectar_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("nectar_run");
    group.sample_size(10);
    for (k, n) in [(4usize, 20usize), (4, 50), (10, 50)] {
        let g = gen::harary(k, n).expect("valid parameters");
        group.bench_with_input(BenchmarkId::from_parameter(format!("k{k}_n{n}")), &g, |b, g| {
            b.iter(|| Scenario::new(black_box(g.clone()), k / 2).sim().metrics_only().run());
        });
    }
    group.finish();
}

fn bench_nectar_with_decisions(c: &mut Criterion) {
    let g = gen::harary(4, 30).expect("valid parameters");
    let mut group = c.benchmark_group("nectar_run_with_decisions");
    group.sample_size(10);
    group.bench_function("k4_n30", |b| {
        b.iter(|| Scenario::new(black_box(g.clone()), 2).sim().run())
    });
    group.finish();
}

fn bench_runtimes(c: &mut Criterion) {
    let g = gen::harary(4, 24).expect("valid parameters");
    let scenario = Scenario::new(g, 2);
    let mut group = c.benchmark_group("runtime");
    group.sample_size(10);
    group.bench_function("sync", |b| b.iter(|| black_box(&scenario).sim().metrics_only().run()));
    group.bench_function("event", |b| {
        b.iter(|| black_box(&scenario).sim().runtime(Runtime::Event).metrics_only().run())
    });
    group.bench_function("parallel", |b| {
        b.iter(|| {
            black_box(&scenario)
                .sim()
                .runtime(Runtime::Parallel { workers: 2 })
                .metrics_only()
                .run()
        })
    });
    // The wire path on the same scenario: the same participants behind
    // `NodeDriver`s, every message through the codec and the frame layer.
    group.bench_function("loopback", |b| {
        b.iter(|| {
            let s = black_box(&scenario);
            let rounds = s.config().effective_rounds();
            run_over_loopback(s.build_participants(), s.topology(), rounds).expect("loopback run")
        })
    });
    group.finish();
}

/// The flap-heavy script of the 10k-node four-clique fleet: 256 cliques
/// flap one intra-clique edge 8 times over the first 16 rounds (4 096
/// transitions).
fn flap_schedule() -> TopologySchedule {
    let mut schedule = TopologySchedule::new().with_seed(7);
    for c in 0..256 {
        for k in 0..8 {
            let (u, v) = (4 * c, 4 * c + 1);
            schedule = schedule.drop_edge(1 + 2 * k, u, v).heal_edge(2 + 2 * k, u, v);
        }
    }
    schedule
}

/// The three runtimes on identical clustered-fleet scenarios at
/// n ∈ {100, 1 000, 10 000, 50 000}, full `n − 1` round horizon.
/// Dissemination is cluster-local and quiesces after ~4 rounds, so the
/// comparison isolates pure scheduling cost: the event loop pays
/// O(active nodes + messages) per round, the parallel runtime is that
/// same loop with its polls and deliveries spread over a worker pool, and
/// the sync engine polls all n
/// nodes for all n − 1 rounds. Each engine is only benched where it is
/// *practical*: sync stops at n = 10 000 (n · rounds polling reaches
/// minutes at 50k), and the parallel rows start at n = 1 000 — below that
/// the pool costs more than it spreads. The parallel rows run
/// with 2 workers, the conservative floor: more cores only widen its gap
/// over the event loop, and results never depend on the count.
fn bench_runtime_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_scaling");
    group.sample_size(10);
    for n in [100usize, 1_000, 10_000, 50_000] {
        let g = gen::disjoint_cliques(n / 4, 4);
        let scenario = Scenario::new(g, 2);
        group.bench_with_input(BenchmarkId::new("event", n), &scenario, |b, s| {
            b.iter(|| black_box(s).sim().runtime(Runtime::Event).metrics_only().run())
        });
        if n >= 1_000 {
            group.bench_with_input(BenchmarkId::new("parallel", n), &scenario, |b, s| {
                b.iter(|| {
                    black_box(s)
                        .sim()
                        .runtime(Runtime::Parallel { workers: 2 })
                        .metrics_only()
                        .run()
                })
            });
        }
        if n <= 10_000 {
            group.bench_with_input(BenchmarkId::new("sync", n), &scenario, |b, s| {
                b.iter(|| black_box(s).sim().metrics_only().run())
            });
        }
        // The flap-heavy schedule on the 10k fleet. Every heal re-wakes its
        // endpoints, so this prices what dynamics cost the active-set
        // scheduler: the `Scheduled` wrapper's fate checks plus the churn
        // the flaps keep injecting into an otherwise ~4-round-quiescent
        // dissemination.
        if n == 10_000 {
            group.bench_with_input(
                BenchmarkId::new("event_flap", n),
                &(&scenario, flap_schedule()),
                |b, (s, sched)| {
                    b.iter(|| {
                        black_box(*s)
                            .sim()
                            .runtime(Runtime::Event)
                            .schedule(sched.clone())
                            .metrics_only()
                            .run()
                    })
                },
            );
        }
    }
    group.finish();
}

/// Participant construction alone on the `fleet_sparse` topology (2 500
/// four-cliques, 15 000 edges): key universe, one proof per edge, the
/// 10 000 nodes and their round-1 queues — the set-up every run of that
/// fleet pays before its first round.
fn bench_setup(c: &mut Criterion) {
    let n = 10_000;
    let scenario = Scenario::new(gen::disjoint_cliques(n / 4, 4), 2);
    let mut group = c.benchmark_group("setup");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("build_participants", n), &scenario, |b, s| {
        b.iter(|| black_box(s).build_participants())
    });
    group.finish();
}

#[derive(Debug, Clone)]
struct Never;

impl WireSized for Never {
    fn wire_bytes(&self) -> usize {
        0
    }
}

/// A process that never sends and is always quiescent.
struct Idle(NodeId);

impl Process for Idle {
    type Msg = Never;

    fn id(&self) -> NodeId {
        self.0
    }

    fn send(&mut self, _round: usize) -> Vec<Outgoing<Never>> {
        Vec::new()
    }

    fn receive(&mut self, _round: usize, _from: NodeId, _msg: Never) {}

    fn quiescent(&self) -> bool {
        true
    }
}

/// The `Scheduled` wrapper's price with no protocol in the way: a 10k-node
/// fleet of idle processes wrapped by `Scheduled::wrap_all` and run for 16
/// rounds on the event engine, under an empty schedule and under the
/// 4 096-flip one (compiled once, outside the timed loop). `empty` is the
/// wrapping and one poll per node; `flap` adds the 512 flapping endpoints
/// kept awake to their last notice. A per-wrapper cost in the fleet's
/// transitions (n × T) shows as `flap` ≫ `empty`.
fn bench_schedule_overhead(c: &mut Criterion) {
    let n = 10_000;
    let g = gen::disjoint_cliques(n / 4, 4);
    let mut group = c.benchmark_group("schedule_overhead");
    group.sample_size(10);
    for (name, schedule) in [("empty", TopologySchedule::new()), ("flap", flap_schedule())] {
        let compiled = Arc::new(schedule.compile(&g).expect("the script names clique edges"));
        group.bench_with_input(BenchmarkId::new(name, n), &compiled, |b, compiled| {
            b.iter(|| {
                let fleet = Scheduled::wrap_all((0..n).map(Idle).collect(), compiled);
                run_event_driven(black_box(fleet), &g, 16)
            })
        });
    }
    group.finish();
}

/// A fleet in the *converged dense-view* state: `n / 16` cliques of 16,
/// every member holding its clique's full 120-edge discovered view. The
/// state is synthesized directly — each clique's proofs are signed once and
/// announced into every member — so the group prices the decision phase
/// alone instead of paying a 50 000-node dissemination as setup.
fn dense_view_fleet(n: usize) -> (Scenario, Vec<Participant>) {
    const K: usize = 16;
    let scenario = Scenario::new(gen::disjoint_cliques(n / K, K), 2).with_key_seed(17);
    let ks = KeyStore::generate(n, 17);
    let verifier = ks.verifier();
    let config = scenario.config().clone();
    let mut participants = Vec::with_capacity(n);
    for c in 0..n / K {
        let base = c * K;
        let clique: Vec<((usize, usize), NeighborhoodProof)> = (0..K)
            .flat_map(|i| (i + 1..K).map(move |j| (base + i, base + j)))
            .map(|(u, v)| {
                ((u, v), NeighborhoodProof::new(&ks.signer(u as u16), &ks.signer(v as u16)))
            })
            .collect();
        for i in 0..K {
            let id = base + i;
            let own: BTreeMap<usize, NeighborhoodProof> = clique
                .iter()
                .filter(|((u, v), _)| *u == id || *v == id)
                .map(|((u, v), p)| (if *u == id { *v } else { *u }, p.clone()))
                .collect();
            let mut node =
                NectarNode::new(id, config.clone(), ks.signer(id as u16), verifier.clone(), own);
            for ((u, v), p) in &clique {
                if *u != id && *v != id {
                    node.announce_extra_proof(p.clone());
                }
            }
            participants.push(Participant::correct(node));
        }
    }
    (scenario, participants)
}

/// The steady-state decision phase at fleet scale: n ∈ {1k, 10k, 50k}
/// dense-view fleets (16-cliques, 120-edge views — the worst case for the
/// per-node O(m_view) edge-key walks) re-decided against one warm shared
/// oracle, the epoch-monitoring workload where dissemination has already
/// converged.
///
/// Those rows only ever see a *warm* oracle — after the first iteration
/// every view is a cache hit — so they say nothing about what a view
/// costs the first time it is decided. The `cold_sparse` row prices that:
/// a really disseminated 10k fleet of 2 500 four-cliques (the benchmark's
/// `fleet_sparse` shape: every view a 6-edge island in a 10 000-id space)
/// decided against a fresh oracle every iteration, 2 500 cold queries.
/// `cold_dense` is the same question on the shape that costs the
/// sequential loop most: the 50k dense-view fleet, 3 125 cold 120-edge
/// views per iteration.
fn bench_collect_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("collect_scaling");
    group.sample_size(10);
    for n in [1_000usize, 10_000, 50_000] {
        let (scenario, participants) = dense_view_fleet(n);
        let mut oracle = ConnectivityOracle::with_capacity(16 * 1024);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(scenario.collect_decisions(black_box(&participants), &mut oracle, 1))
            })
        });
        if n == 50_000 {
            group.bench_with_input(BenchmarkId::new("cold_dense", n), &n, |b, _| {
                b.iter(|| {
                    let mut oracle = ConnectivityOracle::new();
                    black_box(scenario.collect_decisions(black_box(&participants), &mut oracle, 1))
                })
            });
        }
    }
    let n = 10_000usize;
    let scenario = Scenario::new(gen::disjoint_cliques(n / 4, 4), 2);
    let participants = scenario.sim().runtime(Runtime::Event).participants();
    group.bench_with_input(BenchmarkId::new("cold_sparse", n), &n, |b, _| {
        b.iter(|| {
            let mut oracle = ConnectivityOracle::new();
            black_box(scenario.collect_decisions(black_box(&participants), &mut oracle, 1))
        })
    });
    group.finish();
}

/// One small experiment-matrix cell end to end (`nectar-cli matrix`'s
/// engine): build the family per trial, place the cast, run the
/// simulation, aggregate the cell — the overhead the sweep adds on top of
/// the raw protocol runs it contains.
fn bench_matrix_smoke(c: &mut Criterion) {
    use nectar_experiments::matrix::{CastSpec, FamilySpec, MatrixSpec};
    let spec = MatrixSpec {
        families: vec![FamilySpec::Harary { k: 4 }],
        sizes: vec![16],
        casts: vec![CastSpec::SilentCut],
        t: 2,
        trials: 5,
        base_seed: 3,
        runtime: Runtime::Sync,
    };
    let mut group = c.benchmark_group("matrix");
    group.sample_size(10);
    group.bench_function("smoke_harary_k4_n16", |b| {
        b.iter(|| black_box(&spec).run().expect("spec in domain"))
    });
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let g = gen::harary(4, 50).expect("valid parameters");
    let mut group = c.benchmark_group("baseline_run");
    group.bench_function("mtg_k4_n50", |b| b.iter(|| run_mtg(black_box(&g), &BTreeSet::new())));
    group.bench_function("mtgv2_k4_n50", |b| {
        b.iter(|| run_mtg_v2(black_box(&g), &BTreeMap::new(), 7))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_nectar_end_to_end,
    bench_nectar_with_decisions,
    bench_runtimes,
    bench_runtime_scaling,
    bench_setup,
    bench_schedule_overhead,
    bench_collect_scaling,
    bench_matrix_smoke,
    bench_baselines
);
criterion_main!(benches);
