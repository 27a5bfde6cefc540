//! Criterion benchmarks for the graph substrate: the vertex-connectivity
//! computation dominating NECTAR's decision phase, the
//! [`ConnectivityOracle`] fast path that replaces it on the hot path, plus
//! topology generation.
//!
//! Run with `NECTAR_BENCH_JSON=BENCH_graph.json` to persist the medians for
//! cross-PR regression tracking (see `BENCH_graph.json` in the repo root).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use nectar_graph::{connectivity, gen, traversal, ConnectivityOracle};

fn bench_vertex_connectivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("vertex_connectivity");
    group.sample_size(10);
    for (k, n) in [(4usize, 50usize), (10, 100), (34, 100)] {
        let g = gen::harary(k, n).expect("valid parameters");
        group.bench_with_input(BenchmarkId::new("harary", format!("k{k}_n{n}")), &g, |b, g| {
            b.iter(|| connectivity::vertex_connectivity(black_box(g)));
        });
    }
    group.finish();
}

/// The oracle against exact connectivity on the decision question the
/// protocol actually asks (`κ ≤ t`, t below κ — the NOT_PARTITIONABLE hot
/// path). `cold` rebuilds the oracle per iteration, isolating the bounded
/// max-flow win; `warm` reuses one oracle, isolating the fingerprint-cache
/// win (the steady state of unchanged views across rounds/epochs).
fn bench_connectivity_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("connectivity_oracle");
    group.sample_size(10);
    for (k, n, t) in [(10usize, 100usize, 2usize), (34, 100, 2), (34, 100, 16)] {
        let g = gen::harary(k, n).expect("valid parameters");
        group.bench_with_input(BenchmarkId::new("cold", format!("k{k}_n{n}_t{t}")), &g, |b, g| {
            b.iter(|| {
                let mut oracle = ConnectivityOracle::new();
                oracle.is_t_partitionable(black_box(g), t)
            });
        });
        let mut warm = ConnectivityOracle::new();
        warm.is_t_partitionable(&g, t);
        group.bench_with_input(BenchmarkId::new("warm", format!("k{k}_n{n}_t{t}")), &g, |b, g| {
            b.iter(|| warm.is_t_partitionable(black_box(g), t));
        });
    }
    group.finish();
}

fn bench_min_cut_and_traversal(c: &mut Criterion) {
    let g = gen::harary(10, 100).expect("valid parameters");
    let mut group = c.benchmark_group("graph_ops");
    group.sample_size(10);
    group.bench_function("min_vertex_cut_k10_n100", |b| {
        b.iter(|| connectivity::min_vertex_cut(black_box(&g)))
    });
    group.bench_function("diameter_k10_n100", |b| b.iter(|| traversal::diameter(black_box(&g))));
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    use nectar_graph::rng::Rng;
    let mut group = c.benchmark_group("generators");
    group.bench_function("harary_k10_n100", |b| b.iter(|| gen::harary(10, 100).expect("valid")));
    group.bench_function("drone_n100", |b| {
        b.iter(|| {
            let mut rng = Rng::seed_from_u64(7);
            gen::drone_scenario(100, 3.0, 1.8, &mut rng).expect("valid")
        })
    });
    group.bench_function("random_regular_k6_n100", |b| {
        b.iter(|| {
            let mut rng = Rng::seed_from_u64(7);
            gen::random_regular(6, 100, &mut rng).expect("valid")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_vertex_connectivity,
    bench_connectivity_oracle,
    bench_min_cut_and_traversal,
    bench_generators
);
criterion_main!(benches);
