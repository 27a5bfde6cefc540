//! Diffs a fresh bench-median run against a committed baseline and fails
//! on regressions — the CI gate behind the committed `BENCH_*.json` files.
//!
//! ```text
//! NECTAR_BENCH_JSON=fresh.json cargo bench -p nectar-bench --bench protocol
//! cargo run -p nectar-bench --bin bench_diff -- BENCH_protocol.json fresh.json
//! cargo run -p nectar-bench --bin bench_diff -- BENCH_graph.json fresh.json --factor 3.0
//! ```
//!
//! Exits non-zero when any benchmark shared by both files got more than
//! `--factor` (default 2.0) times slower than its committed median. Ids
//! present on only one side are reported but never fail the gate: each
//! bench binary contributes its own subset, and brand-new benchmarks have
//! no baseline yet.

use nectar_bench::baseline::{parse, regressions};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut factor = 2.0f64;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--factor" {
            let value = args.get(i + 1).unwrap_or_else(|| usage("--factor needs a value"));
            factor = value.parse().unwrap_or_else(|_| usage("bad --factor value"));
            i += 2;
        } else {
            paths.push(args[i].clone());
            i += 1;
        }
    }
    if paths.len() != 2 {
        usage("expected exactly two files: <baseline.json> <fresh.json>");
    }
    let read = |path: &str| -> Vec<nectar_bench::baseline::Median> {
        let content = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_diff: cannot read {path}: {e}");
            std::process::exit(2);
        });
        parse(&content).unwrap_or_else(|e| {
            eprintln!("bench_diff: {path} is not a bench-median baseline: {e}");
            std::process::exit(2);
        })
    };
    let base = read(&paths[0]);
    let fresh = read(&paths[1]);

    let shared = fresh.iter().filter(|f| base.iter().any(|b| b.id == f.id)).count();
    println!(
        "bench_diff: {} baseline, {} fresh, {} shared ids (factor {factor}×)",
        base.len(),
        fresh.len(),
        shared
    );
    if shared == 0 {
        // A gate that compares nothing passes forever: zero overlap means a
        // renamed bench group, a stale baseline, or a format drift that
        // emptied `parse` — all of which must fail loudly, not silently.
        eprintln!(
            "bench_diff: no benchmark id is shared between {} and {} — refusing to pass an \
             empty comparison (refresh the committed baseline or fix the bench ids)",
            paths[0], paths[1]
        );
        std::process::exit(1);
    }
    for f in &fresh {
        match base.iter().find(|b| b.id == f.id) {
            Some(b) => {
                let ratio = f.median_ns as f64 / (b.median_ns as f64).max(f64::MIN_POSITIVE);
                println!(
                    "  {:<45} {:>12} ns -> {:>12} ns  ({ratio:.2}x)",
                    f.id, b.median_ns, f.median_ns
                );
            }
            None => {
                println!("  {:<45} {:>27} -> {:>12} ns  (new, no baseline)", f.id, "", f.median_ns)
            }
        }
    }
    for b in base.iter().filter(|b| !fresh.iter().any(|f| f.id == b.id)) {
        println!("  {:<45} not in fresh run (skipped)", b.id);
    }

    let regs = regressions(&base, &fresh, factor);
    if regs.is_empty() {
        println!("bench_diff: OK — no benchmark regressed beyond {factor}x");
        return;
    }
    eprintln!("bench_diff: {} regression(s) beyond {factor}x:", regs.len());
    for r in &regs {
        eprintln!(
            "  {:<45} {:>12} ns -> {:>12} ns  ({:.2}x)",
            r.id, r.baseline_ns, r.fresh_ns, r.ratio
        );
    }
    std::process::exit(1);
}

fn usage(msg: &str) -> ! {
    eprintln!("bench_diff: {msg}\nusage: bench_diff <baseline.json> <fresh.json> [--factor F]");
    std::process::exit(2);
}
