//! Shared helpers for the benchmark harness binaries.
//!
//! * [`results_path`]: where the `figures` binary writes its CSV output.
//! * [`print_stdout`]: the binaries' standard output, which ends quietly
//!   when its reader goes away.
//! * [`baseline`]: parsing (with `nectar_protocol`'s JSON reader) and
//!   regression-diffing of the bench-median JSON files the criterion shim
//!   persists via `NECTAR_BENCH_JSON` (`BENCH_graph.json`,
//!   `BENCH_protocol.json`), consumed by the `bench_diff` binary and the
//!   CI regression gate.
//!
//! The actual figure regeneration lives in `src/bin/figures.rs` (one loop
//! over `nectar_experiments::FIGURES`) and the Criterion micro-benchmarks
//! in `benches/`.

#![forbid(unsafe_code)]

/// Directory where figure binaries write their CSV output.
pub const RESULTS_DIR: &str = "results";

/// Ensures the results directory exists and returns the path to
/// `results/<name>`.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn results_path(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(RESULTS_DIR);
    std::fs::create_dir_all(dir).expect("cannot create results directory");
    dir.join(name)
}

/// Writes `text` to standard output. A reader that went away
/// (`figures | head`) ends the output quietly, so the binary still
/// finishes its other work — the CSVs, the regression gate — and exits
/// with its own status.
///
/// # Panics
///
/// Panics on any other write error, as `print!` does.
pub fn print_stdout(text: &str) {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            panic!("failed printing to stdout: {e}")
        }
        _ => {}
    }
}

/// Bench-median baselines: the JSON the criterion shim writes under
/// `NECTAR_BENCH_JSON`, and the regression comparison CI runs against the
/// committed `BENCH_*.json` files.
pub mod baseline {
    use nectar_protocol::report::json::{self, Fields as _};

    /// One benchmark's committed or freshly measured median.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Median {
        /// Benchmark id, e.g. `runtime_scaling/event/10000`.
        pub id: String,
        /// Median time per iteration, nanoseconds.
        pub median_ns: u128,
    }

    /// A benchmark whose fresh median exceeds the baseline by more than
    /// the allowed factor.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Regression {
        /// Benchmark id.
        pub id: String,
        /// Committed baseline median (ns).
        pub baseline_ns: u128,
        /// Freshly measured median (ns).
        pub fresh_ns: u128,
        /// `fresh / baseline`.
        pub ratio: f64,
    }

    /// Parses the shim's baseline format, an object whose `results` array
    /// holds one `{"id": …, "median_ns": …}` object per benchmark, with
    /// the report crate's JSON reader: layout is free, and anything else
    /// is an error rather than a skipped line.
    ///
    /// The `parses_what_the_criterion_shim_writes` round-trip test pins
    /// this reader to the shim's writer, so a format tweak on the writer
    /// fails here instead of silently emptying the CI comparison (which
    /// `bench_diff` additionally refuses to pass on zero shared ids).
    ///
    /// # Errors
    ///
    /// Returns the reader's message on malformed JSON, or names the
    /// missing or mistyped field.
    pub fn parse(content: &str) -> Result<Vec<Median>, String> {
        let results = json::parse(content)?;
        let results = results.as_obj("baseline")?.field("results")?.as_arr("results")?;
        results
            .iter()
            .map(|result| {
                let result = result.as_obj("result")?;
                Ok(Median {
                    id: result.field("id")?.as_str("id")?.to_string(),
                    median_ns: result.field("median_ns")?.as_u64("median_ns")?.into(),
                })
            })
            .collect()
    }

    /// Compares fresh medians against the committed baseline and returns
    /// every shared id whose fresh median exceeds `factor ×` the baseline.
    /// Ids present on only one side are ignored — each bench binary
    /// contributes its own subset, and new benchmarks have no baseline yet.
    pub fn regressions(baseline: &[Median], fresh: &[Median], factor: f64) -> Vec<Regression> {
        fresh
            .iter()
            .filter_map(|f| {
                let base = baseline.iter().find(|b| b.id == f.id)?;
                let ratio = f.median_ns as f64 / (base.median_ns as f64).max(f64::MIN_POSITIVE);
                (ratio > factor).then(|| Regression {
                    id: f.id.clone(),
                    baseline_ns: base.median_ns,
                    fresh_ns: f.median_ns,
                    ratio,
                })
            })
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const SAMPLE: &str = r#"{
  "results": [
    {"id": "a/fast", "median_ns": 1000},
    {"id": "b/slow", "median_ns": 2000000}
  ]
}
"#;

        fn sample() -> Vec<Median> {
            parse(SAMPLE).expect("the sample is a baseline")
        }

        #[test]
        fn parse_reads_the_shim_format() {
            assert_eq!(
                sample(),
                vec![
                    Median { id: "a/fast".into(), median_ns: 1000 },
                    Median { id: "b/slow".into(), median_ns: 2_000_000 },
                ]
            );
            assert!(parse("garbage\n{not json}").is_err());
            assert!(parse(&SAMPLE.replace("2000000", "\"slow\""))
                .unwrap_err()
                .contains("median_ns"));
            assert!(parse(&SAMPLE.replace("\"id\"", "\"name\"")).unwrap_err().contains("id"));
        }

        #[test]
        fn parse_reads_the_same_results_in_any_layout() {
            let compact = r#"{"results":[{"median_ns":1000,"id":"a/fast"},
                {"id":"b/slow",
                 "median_ns":2000000}]}"#;
            assert_eq!(parse(compact), Ok(sample()));
        }

        #[test]
        fn regressions_flag_only_shared_ids_beyond_the_factor() {
            let base = sample();
            let fresh = vec![
                // 2.5× slower: regression at factor 2.
                Median { id: "a/fast".into(), median_ns: 2500 },
                // 1.5× slower: within budget.
                Median { id: "b/slow".into(), median_ns: 3_000_000 },
                // No baseline: ignored.
                Median { id: "c/new".into(), median_ns: 99 },
            ];
            let regs = regressions(&base, &fresh, 2.0);
            assert_eq!(regs.len(), 1);
            assert_eq!(regs[0].id, "a/fast");
            assert_eq!(regs[0].baseline_ns, 1000);
            assert_eq!(regs[0].fresh_ns, 2500);
            assert!((regs[0].ratio - 2.5).abs() < 1e-9);
        }

        #[test]
        fn parses_what_the_criterion_shim_writes() {
            // Round-trip against the real writer: run one benchmark through
            // the shim and parse its rendered JSON. A format change on
            // either side breaks this test instead of silently emptying
            // the CI bench-median comparison.
            let mut c = criterion::Criterion::default();
            c.bench_function("roundtrip/probe", |b| b.iter(|| std::hint::black_box(1 + 1)));
            let medians = parse(&c.results_json()).expect("the shim writes a baseline");
            assert_eq!(medians.len(), 1);
            assert_eq!(medians[0].id, "roundtrip/probe");
        }

        #[test]
        fn improvements_and_equal_times_pass() {
            let base = sample();
            let fresh = vec![
                Median { id: "a/fast".into(), median_ns: 400 },
                Median { id: "b/slow".into(), median_ns: 2_000_000 },
            ];
            assert!(regressions(&base, &fresh, 2.0).is_empty());
        }
    }
}
