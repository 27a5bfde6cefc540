//! One benchmark run of one workload: set up, measure for the requested
//! time, check every output, and render the result.
//!
//! Two kinds of run, never mixed: an *untraced* run yields the end-to-end
//! metrics; a *traced* run yields the per-layer metrics (and first times a
//! few untraced runs of its own, so the trace can be compared with them —
//! that difference is the tracing overhead).

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use crate::json;
use crate::layers::{self, TracedRun};
use crate::metrics::{end_to_end_units, Values, PER_LAYER};
use crate::procfs;
use crate::stats::Summary;
use crate::workload::{check, execute, expectation, generate, Expected, Input, Tally, Workload};

/// Fewest timed runs of a measuring loop, however short the requested time.
const MIN_RUNS: usize = 2;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// n ≤ 16, one set-up, one run: the smoke test's size.
    pub quick: bool,
    /// Where a traced run writes its spans.
    pub spans: Option<PathBuf>,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    /// The `"metrics"` object of the result line.
    pub metrics: String,
    /// Plain fields beside the metrics — sample counts, medians, quartiles,
    /// core count — so a later reader can tell *unresolved* from
    /// *unchanged*. Printed on the line before the result line.
    pub detail: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        json::object([
            ("correct", self.correct().to_string()),
            ("attempted", self.tally.attempted.to_string()),
            ("failed", self.tally.failed.to_string()),
            ("metrics", self.metrics.clone()),
        ])
    }
}

/// A workload ready to be timed.
struct Prepared {
    input: Input,
    expected: Expected,
    /// The warm-up run's report: every later run of this seed must
    /// reproduce its JSON and its `kb_per_node` exactly.
    reference_json: String,
    kb_per_node: f64,
}

/// Set-up: generate the input, establish what a correct output is, and run
/// once to warm caches and take the reference output.
fn prepare(opts: &Options, tally: &mut Tally) -> Result<Prepared, String> {
    let input = generate(opts.workload, opts.seed, opts.quick);
    let expected = expectation(&input)?;
    let output = execute(&input)?;
    tally.absorb(check(&output, &expected));
    Ok(Prepared {
        kb_per_node: output.kb_per_node(),
        reference_json: output.json().to_owned(),
        input,
        expected,
    })
}

/// One untraced run of `prepared`, checked; its time in milliseconds, or
/// `None` when it failed.
fn timed_run(prepared: &Prepared, tally: &mut Tally) -> Option<f64> {
    let start = Instant::now();
    let result = black_box(execute(black_box(&prepared.input)));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    tally.check(result.is_ok());
    match result {
        Ok(output) => {
            tally.absorb(check(&output, &prepared.expected));
            // The wire cost is a count: any run of a seed must pay exactly
            // what the first did.
            tally.check(output.kb_per_node() == prepared.kb_per_node);
            Some(ms)
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            None
        }
    }
}

/// Whether a measuring loop that began at `started` has run its course:
/// `seconds` have passed and at least [`MIN_RUNS`] rounds were made (a
/// quick run makes exactly one).
fn done(opts: &Options, started: Instant, rounds: usize) -> bool {
    let enough = if opts.quick { 1 } else { MIN_RUNS };
    rounds >= enough && (opts.quick || started.elapsed().as_secs_f64() >= opts.seconds)
}

fn summary_json(s: &Summary) -> String {
    json::object([
        ("n", s.n.to_string()),
        ("min", json::num(Some(s.min))),
        ("p25", json::num(Some(s.p25))),
        ("median", json::num(Some(s.median))),
        ("p75", json::num(Some(s.p75))),
        ("max", json::num(Some(s.max))),
    ])
}

fn detail(opts: &Options, extra: Vec<(&str, String)>) -> String {
    let mut fields = vec![
        ("workload", json::string(opts.workload.name())),
        ("seed", opts.seed.to_string()),
        ("seconds", json::num(Some(opts.seconds))),
        ("quick", opts.quick.to_string()),
        ("nproc", procfs::nproc().to_string()),
    ];
    fields.extend(extra);
    json::object(fields)
}

/// One pass of an untraced measurement: a set-up and a share of the timed
/// runs, all in one process. A measurement is [`PASSES`] passes, each in a
/// fresh process, because part of the noise is per process — on the fleet
/// workloads a whole process now and then runs ~15% slow from its first run
/// to its last (where its 600 MiB of short-lived view graphs land in
/// memory, presumably), and no number of runs inside it finds the floor.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    pub tally: Tally,
    pub setup_s: f64,
    pub run_ms: Vec<f64>,
    pub kb_per_node: f64,
    /// `VmHWM` of the pass's process as it ended.
    pub peak_rss_mb: Option<f64>,
}

/// Passes per untraced measurement; each measures for its share of the
/// requested time. `setup_s` is the median of their set-ups.
pub const PASSES: usize = 3;

impl Pass {
    /// Runs one pass in this process, measuring for `opts.seconds`.
    ///
    /// # Errors
    ///
    /// Set-up failed — nothing can be measured.
    pub fn run(opts: &Options) -> Result<Pass, String> {
        let mut tally = Tally::default();
        let start = Instant::now();
        let prepared = prepare(opts, &mut tally)?;
        let setup_s = start.elapsed().as_secs_f64();
        let (started, mut rounds, mut run_ms) = (Instant::now(), 0, Vec::new());
        while !done(opts, started, rounds) {
            run_ms.extend(timed_run(&prepared, &mut tally));
            rounds += 1;
        }
        Ok(Pass {
            tally,
            setup_s,
            run_ms,
            kb_per_node: prepared.kb_per_node,
            peak_rss_mb: procfs::peak_rss_mib(),
        })
    }

    /// The line a pass's process prints for its parent.
    pub fn to_json(&self) -> String {
        json::object([
            ("attempted", self.tally.attempted.to_string()),
            ("failed", self.tally.failed.to_string()),
            ("setup_s", json::num(Some(self.setup_s))),
            ("run_ms", json::array(self.run_ms.iter().map(|&ms| json::num(Some(ms))))),
            ("kb_per_node", json::num(Some(self.kb_per_node))),
            ("peak_rss_mb", json::num(self.peak_rss_mb)),
        ])
    }

    /// Reads [`to_json`](Self::to_json)'s line back.
    ///
    /// # Errors
    ///
    /// The line is not a pass.
    pub fn from_json(line: &str) -> Result<Pass, String> {
        let value = json::parse(line)?;
        let number = |key: &str| {
            value.get(key).and_then(json::Value::as_f64).ok_or(format!("pass line lacks {key}"))
        };
        let run_ms = match value.get("run_ms") {
            Some(json::Value::Arr(items)) => items.iter().filter_map(json::Value::as_f64).collect(),
            _ => return Err("pass line lacks run_ms".into()),
        };
        Ok(Pass {
            tally: Tally {
                attempted: number("attempted")? as u64,
                failed: number("failed")? as u64,
            },
            setup_s: number("setup_s")?,
            run_ms,
            kb_per_node: number("kb_per_node")?,
            peak_rss_mb: value.get("peak_rss_mb").and_then(json::Value::as_f64),
        })
    }
}

/// An untraced measurement, from its passes: the end-to-end metrics.
///
/// # Errors
///
/// No timed run succeeded — nothing was measured.
pub fn measure(opts: &Options, passes: &[Pass]) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    for pass in passes {
        tally.absorb(pass.tally);
        // The wire cost is a count: every pass of a seed pays the same.
        tally.check(pass.kb_per_node == passes[0].kb_per_node);
    }
    let pooled: Vec<f64> = passes.iter().flat_map(|p| p.run_ms.iter().copied()).collect();
    if pooled.is_empty() {
        return Err("no timed run succeeded".into());
    }
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let (setup, run) = (Summary::of(&setups), Summary::of(&pooled));
    let peaks: Option<Vec<f64>> = passes.iter().map(|p| p.peak_rss_mb).collect();

    let mut values = Values::default();
    values.set("setup_s", Some(setup.median));
    values.set("run_ms_min", Some(run.min));
    values.set("run_ms_p25", Some(run.p25));
    values.set("kb_per_node", Some(passes[0].kb_per_node));
    values.set("peak_rss_mb", peaks.map(|peaks| Summary::of(&peaks).median));
    values.set("ok_share", Some(1.0 - tally.failed as f64 / tally.attempted as f64));
    let floors = passes.iter().filter_map(|p| p.run_ms.iter().copied().reduce(f64::min));
    Ok(Outcome {
        tally,
        metrics: values.render(end_to_end_units()),
        detail: detail(
            opts,
            vec![
                ("passes", passes.len().to_string()),
                ("run_ms", summary_json(&run)),
                ("pass_floor_ms", json::array(floors.map(|ms| json::num(Some(ms))))),
                ("setup_s", summary_json(&setup)),
            ],
        ),
    })
}

/// A traced run: the per-layer metrics.
///
/// # Errors
///
/// Set-up, a run or a probe failed, or the spans could not be written.
pub fn trace(opts: &Options) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let prepared = prepare(opts, &mut tally)?;
    // Untraced and traced runs take turns, so that drift on a shared box
    // hits both alike; of each the fastest is kept, for the same reason the
    // untraced floor is the gated timing.
    let (cpu_before, started) = (procfs::cpu_seconds(), Instant::now());
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut best: Option<(TracedRun, usize)> = None;
    while !done(opts, started, traced_ms.len()) {
        untraced_ms.extend(timed_run(&prepared, &mut tally));
        let run = TracedRun::execute(&prepared.input)?;
        tally.check(run.json == prepared.reference_json);
        traced_ms.push(run.wall_ms);
        if best.as_ref().map_or(true, |(b, _)| run.wall_ms < b.wall_ms) {
            best = Some((run, traced_ms.len() - 1));
        }
    }
    if untraced_ms.is_empty() {
        return Err("no untraced run succeeded".into());
    }
    let untraced = Summary::of(&untraced_ms);
    let cpu_s = procfs::cpu_seconds().zip(cpu_before).map(|(after, before)| after - before);
    let total_wall_s = started.elapsed().as_secs_f64();
    let (mut best, best_index) = best.expect("at least one traced run ran");

    // One more traced run with the counting allocator on, for the counts
    // alone: a fleet run makes ~25 M allocations, and two atomic adds on
    // each would put ~15% on the very timings the trace exists to explain.
    procfs::count_allocations(true);
    let allocs_before = procfs::allocations();
    let counted = TracedRun::execute(&prepared.input)?;
    let allocs = procfs::allocations().since(allocs_before).since(counted.replay_allocs);
    procfs::count_allocations(false);
    tally.check(counted.json == prepared.reference_json);
    best.values.set("decision.allocs", Some(counted.values.get("decision.allocs")));
    drop(counted);

    layers::probes(&prepared.input, untraced.min, &mut best.values)?;
    let (staged_ms, wall_ms) = (best.staged_ms(), best.wall_ms);
    let values = &mut best.values;
    values.set("alloc.count", Some(allocs.count as f64));
    values.set("alloc.mb", Some(allocs.bytes as f64 / (1024.0 * 1024.0)));
    values.set("proc.cpu_over_wall", cpu_s.map(|cpu| cpu / total_wall_s));
    // Do the stages add up to the run users see, and what did watching cost?
    values.set("trace.coverage", Some(staged_ms / untraced.min));
    values.set("trace.overhead_ratio", Some(wall_ms / untraced.min));

    if let Some(path) = &opts.spans {
        std::fs::write(path, best.tracer.to_json(opts.workload.name(), best_index))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(Outcome {
        tally,
        metrics: best.values.render(PER_LAYER.iter().copied()),
        detail: detail(
            opts,
            vec![
                ("run_ms", summary_json(&untraced)),
                ("traced_ms", summary_json(&Summary::of(&traced_ms))),
                ("spans", best.tracer.spans().len().to_string()),
            ],
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    fn quick(workload: Workload) -> Options {
        Options { workload, seed: 5, seconds: 0.0, quick: true, spans: None }
    }

    fn benchmark_json() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    /// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
    fn listed(benchmark: &json::Value, list: &str) -> Vec<(String, String)> {
        benchmark
            .get(list)
            .and_then(json::Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
            .iter()
            .map(|m| {
                let field = |key| m.get(key).and_then(json::Value::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// `(name, unit)` of every metric of a result line, in order.
    fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
        let line = json::parse(&outcome.result_line()).unwrap();
        let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(0.0));
        assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        line.get("metrics")
            .and_then(json::Value::as_obj)
            .unwrap()
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").unwrap().as_f64().is_some(), "{name} has no number");
                (name.clone(), m.get("unit").unwrap().as_str().unwrap().to_owned())
            })
            .collect()
    }

    /// The smoke test: every workload at n ≤ 16, one run each, must emit
    /// every metric `BENCHMARK.json` names — exactly once, with its unit —
    /// and pass all its correctness checks.
    #[test]
    fn quick_runs_emit_exactly_the_metrics_benchmark_json_names() {
        let started = Instant::now();
        let benchmark = benchmark_json();
        let (end_to_end, per_layer) =
            (listed(&benchmark, "end_to_end"), listed(&benchmark, "per_layer"));
        for workload in Workload::ALL {
            let opts = quick(workload);
            let pass = Pass::run(&opts).unwrap();
            assert_eq!(Pass::from_json(&pass.to_json()).unwrap(), pass);
            assert_eq!(emitted(&measure(&opts, &[pass]).unwrap()), end_to_end);
            assert_eq!(emitted(&trace(&quick(workload)).unwrap()), per_layer);
        }
        let listed_workloads: Vec<_> = benchmark
            .get("workloads")
            .and_then(json::Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |key| w.get(key).and_then(json::Value::as_str).unwrap().to_owned();
                (field("name"), field("why"))
            })
            .collect();
        assert_eq!(
            listed_workloads,
            Workload::ALL.map(|w| (w.name().to_owned(), w.why().to_owned()))
        );
        assert!(started.elapsed().as_secs() < 5, "the smoke test must stay quick");
    }

    #[test]
    fn a_measurement_pools_its_passes() {
        let pass = |setup_s, run_ms: &[f64], kb_per_node| Pass {
            tally: Tally { attempted: 10, failed: 0 },
            setup_s,
            run_ms: run_ms.to_vec(),
            kb_per_node,
            peak_rss_mb: Some(setup_s * 100.0),
        };
        let passes =
            [pass(1.0, &[50.0, 40.0], 3.5), pass(3.0, &[30.0, 60.0], 3.5), pass(2.0, &[20.0], 3.5)];
        let outcome = measure(&quick(Workload::FleetSparse), &passes).unwrap();
        assert_eq!((outcome.tally.attempted, outcome.tally.failed), (33, 0));
        let line = json::parse(&outcome.result_line()).unwrap();
        let metric = |name| line.get("metrics").unwrap().get(name).unwrap().get("value").unwrap();
        assert_eq!(metric("run_ms_min").as_f64(), Some(20.0)); // floor over every pass
        assert_eq!(metric("run_ms_p25").as_f64(), Some(30.0)); // of the pooled samples
        assert_eq!(metric("setup_s").as_f64(), Some(2.0)); // median set-up
        assert_eq!(metric("peak_rss_mb").as_f64(), Some(200.0));
        assert_eq!(metric("ok_share").as_f64(), Some(1.0));
        let detail = json::parse(&outcome.detail).unwrap();
        assert_eq!(detail.get("run_ms").unwrap().get("n").unwrap().as_f64(), Some(5.0));

        // A pass that paid a different wire cost is a failed check.
        let drifted = [pass(1.0, &[50.0], 3.5), pass(1.0, &[50.0], 3.6)];
        let outcome = measure(&quick(Workload::FleetSparse), &drifted).unwrap();
        assert_eq!(outcome.tally.failed, 1);
        assert!(!outcome.correct());
        // No sample at all is no measurement.
        assert!(measure(&quick(Workload::FleetSparse), &[pass(1.0, &[], 3.5)]).is_err());
    }

    #[test]
    fn benchmark_json_bounds_match_the_table() {
        let benchmark = benchmark_json();
        let bounds: Vec<(String, f64)> = benchmark
            .get("end_to_end")
            .and_then(json::Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                assert_eq!(m.as_obj().unwrap().len(), 4, "name, unit, better, bound");
                (
                    m.get("name").unwrap().as_str().unwrap().to_owned(),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let table: Vec<_> = END_TO_END.iter().map(|&(n, _, b)| (n.to_owned(), b)).collect();
        assert_eq!(bounds, table);
        assert!(bounds.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        let setup = bounds.iter().find(|(n, _)| n == "setup_s").unwrap().1;
        assert!(bounds.iter().all(|(_, b)| *b <= setup), "setup_s carries the largest bound");
    }

    #[test]
    fn a_traced_run_writes_its_spans_when_asked() {
        // Beside the test executable: inside the build directory.
        let beside = std::env::current_exe().unwrap().parent().unwrap().to_path_buf();
        let dir = beside.join(format!("spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.json");
        let opts = Options { spans: Some(path.clone()), ..quick(Workload::FleetFlap) };
        trace(&opts).unwrap();
        let spans = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let names: Vec<&str> = spans
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names[0], "run");
        for stage in ["scenario.parse", "schedule.compile", "engine.run", "decision.collect"] {
            assert!(names.contains(&stage), "{stage} missing from {names:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
