//! The NECTAR benchmark.
//!
//! ```text
//! benchmark --workload W --seed S --seconds T --trace 0|1   one run (the driver's form)
//! benchmark [--seed S] [--seconds T] [--out FILE]           every workload, untraced then traced
//! benchmark --repeat 2 [--seed S] [--seconds T]             every workload twice; do they agree?
//! ```
//!
//! A single run prints a line of plain fields (sample counts, quartiles,
//! core count) and then, last, the result line: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. It exits non-zero when a
//! correctness check failed. The other two forms run each workload in a
//! fresh child process of this binary, strictly one after another, so that
//! peak memory belongs to one workload. See `README.md`.

mod json;
mod layers;
mod metrics;
mod procfs;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::{Command, ExitCode};

use metrics::END_TO_END;
use run::{Options, Pass, PASSES};
use workload::Workload;

#[global_allocator]
static ALLOCATOR: procfs::CountingAllocator = procfs::CountingAllocator;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] \
                     [--quick] [--spans FILE] [--repeat N] [--out FILE]";

/// The time one run measures when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// Internal: this process is one pass of an untraced measurement.
    pass: bool,
    spans: Option<std::path::PathBuf>,
    repeat: Option<usize>,
    out: Option<std::path::PathBuf>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        pass: false,
        spans: None,
        repeat: None,
        out: None,
    };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("bad --seconds".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => args.quick = true,
            "--pass" => args.pass = true,
            "--spans" => args.spans = Some(value()?.into()),
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|_| "bad --repeat".to_string())?;
                if n < 2 {
                    return Err("--repeat compares at least 2 sets".into());
                }
                args.repeat = Some(n);
            }
            "--out" => args.out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_some() && (args.repeat.is_some() || args.out.is_some()) {
        return Err("--repeat and --out run every workload; drop --workload".into());
    }
    if args.pass && (args.workload.is_none() || args.trace) {
        return Err("--pass is one untraced pass of one workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(workload) => one_run(workload, &args),
        None => match args.repeat {
            Some(sets) => repeat(&args, sets),
            None => full_report(&args),
        },
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The driver's form: one workload, one kind of run, result line last.
fn one_run(workload: Workload, args: &Args) -> Result<bool, String> {
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        spans: args.spans.clone(),
    };
    if args.pass {
        println!("{}", Pass::run(&opts)?.to_json());
        return Ok(true);
    }
    let outcome = if args.trace {
        run::trace(&opts)?
    } else if args.quick {
        run::measure(&opts, &[Pass::run(&opts)?])?
    } else {
        // Each pass in a fresh process, one after another, each measuring
        // for its share of the time.
        let share = args.seconds / PASSES as f64;
        let passes: Vec<Pass> = (0..PASSES)
            .map(|_| {
                let stdout =
                    spawn_self(workload, args, &["--seconds", &share.to_string(), "--pass"])?;
                Pass::from_json(stdout.lines().last().unwrap_or_default())
            })
            .collect::<Result<_, _>>()?;
        run::measure(&opts, &passes)?
    };
    println!("{}", outcome.detail);
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

/// Runs this binary again on `workload` with `args`' seed (and `--quick`)
/// plus `extra` arguments, waits for it to end, and returns what it printed.
/// Its stderr passes through.
fn spawn_self(workload: Workload, args: &Args, extra: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload.name(), "--seed", &args.seed.to_string()]).args(extra);
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if stdout.trim().is_empty() {
        return Err(format!("{} printed nothing ({})", workload.name(), output.status));
    }
    Ok(stdout)
}

/// A child run's two output lines: parsed, and as printed (for `--out`).
struct Child {
    detail: json::Value,
    result: json::Value,
    lines: [String; 2],
}

impl Child {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result.get("metrics")?.get(name)?.get("value")?.as_f64()
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(json::Value::as_bool) == Some(true)
    }
}

/// Runs one workload in a fresh process of this binary and waits for it.
fn child(workload: Workload, args: &Args, trace: bool) -> Result<Child, String> {
    let seconds = args.seconds.to_string();
    let stdout = spawn_self(
        workload,
        args,
        &["--seconds", &seconds, "--trace", if trace { "1" } else { "0" }],
    )?;
    let mut lines = stdout.lines().rev();
    let (Some(result), Some(detail)) = (lines.next(), lines.next()) else {
        return Err(format!("{} printed no result", workload.name()));
    };
    Ok(Child {
        detail: json::parse(detail)?,
        result: json::parse(result)?,
        lines: [detail.to_owned(), result.to_owned()],
    })
}

/// Every workload, one after another: one set of numbers.
fn one_set(args: &Args, trace: bool) -> Result<Vec<(Workload, Child)>, String> {
    Workload::ALL
        .into_iter()
        .map(|workload| {
            eprintln!("[benchmark] {}{} …", workload.name(), if trace { " (traced)" } else { "" });
            child(workload, args, trace).map(|c| (workload, c))
        })
        .collect()
}

fn print_end_to_end(set: &[(Workload, Child)]) {
    println!("\nEnd-to-end (seed as given, untraced runs):");
    print!("{:<15}", "workload");
    for (name, unit, _) in END_TO_END {
        print!(" {:>18}", format!("{name} [{unit}]"));
    }
    println!(" {:>5}  run_ms median [p25, p75]", "runs");
    for (workload, child) in set {
        print!("{:<15}", workload.name());
        for (name, _, _) in END_TO_END {
            print!(" {:>18}", child.metric(name).map_or("null".into(), |v| format!("{v:.4}")));
        }
        let run_ms = |key| child.detail.get("run_ms").and_then(|s| s.get(key)?.as_f64());
        println!(
            " {:>5}  {:.1} [{:.1}, {:.1}]",
            run_ms("n").unwrap_or(0.0),
            run_ms("median").unwrap_or(f64::NAN),
            run_ms("p25").unwrap_or(f64::NAN),
            run_ms("p75").unwrap_or(f64::NAN),
        );
    }
}

/// The `*_ms` layer metrics that are stages of the run (not replays or
/// probes), as a share of the untraced `run_ms_min`: where the time goes.
const STAGES: &[&str] = &[
    "scenario.parse_ms",
    "scenario.compile_ms",
    "runner.build_participants_ms",
    "schedule.compile_ms",
    "node.send_ms",
    "node.receive_ms",
    "schedule.self_ms",
    "engine.self_ms",
    "transport.self_ms",
    "decision.collect_ms",
    "report.to_json_ms",
    "graph.gen_ms",
    "graph.truth_ms",
    "matrix.cast_ms",
];

fn print_where_the_time_goes(traced: &[(Workload, Child)]) {
    println!("\nWhere the time goes (traced run, % of the untraced run_ms_min):");
    print!("{:<30}", "layer");
    for (workload, _) in traced {
        print!(" {:>14}", workload.name());
    }
    println!();
    let floor = |c: &Child| c.detail.get("run_ms").and_then(|s| s.get("min")?.as_f64());
    for stage in STAGES {
        print!("{stage:<30}");
        for (_, child) in traced {
            let share = child.metric(stage).zip(floor(child)).map(|(ms, min)| 100.0 * ms / min);
            print!(" {:>14}", share.map_or("null".into(), |s| format!("{s:.1}")));
        }
        println!();
    }
    for name in ["trace.coverage", "trace.overhead_ratio"] {
        print!("{name:<30}");
        for (_, child) in traced {
            print!(" {:>14}", child.metric(name).map_or("null".into(), |v| format!("{v:.3}")));
        }
        println!();
    }
}

/// Untraced set, then a traced run per workload; prints both tables and,
/// with `--out`, records everything as one JSON document.
fn full_report(args: &Args) -> Result<bool, String> {
    let set = one_set(args, false)?;
    let traced = one_set(args, true)?;
    println!("Workloads:");
    for workload in Workload::ALL {
        println!("  {:<15} {}", workload.name(), workload.why());
    }
    print_end_to_end(&set);
    print_where_the_time_goes(&traced);
    if let Some(path) = &args.out {
        // Each child's two lines go in as printed: its plain fields
        // (`detail`) and its result line (`result`).
        let lines = |child: &Child| {
            json::object([("detail", child.lines[0].clone()), ("result", child.lines[1].clone())])
        };
        let document = json::object([
            ("nproc", procfs::nproc().to_string()),
            ("seed", args.seed.to_string()),
            ("seconds", json::num(Some(args.seconds))),
            (
                "workloads",
                json::array(set.iter().zip(&traced).map(|((workload, untraced), (_, traced))| {
                    json::object([
                        ("name", json::string(workload.name())),
                        ("untraced", lines(untraced)),
                        ("traced", lines(traced)),
                    ])
                })),
            ),
        ]);
        std::fs::write(path, document + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(set.iter().chain(&traced).all(|(_, c)| c.correct()))
}

/// Runs the whole untraced set `sets` times and compares each later set
/// with the first: per workload × end-to-end metric, both values, their
/// relative difference and the bound. Fails when any difference exceeds
/// its bound — the benchmark disagreeing with itself on unchanged code.
fn repeat(args: &Args, sets: usize) -> Result<bool, String> {
    let runs: Vec<Vec<(Workload, Child)>> =
        (0..sets).map(|_| one_set(args, false)).collect::<Result<_, _>>()?;
    let mut agree = runs.iter().flatten().all(|(_, c)| c.correct());
    println!(
        "{:<15} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "later", "diff", "bound"
    );
    for later in &runs[1..] {
        for ((workload, a), (_, b)) in runs[0].iter().zip(later) {
            for &(name, _, bound) in END_TO_END {
                let (Some(x), Some(y)) = (a.metric(name), b.metric(name)) else {
                    println!("{:<15} {:<12} unavailable on this platform", workload.name(), name);
                    continue;
                };
                let diff = (x - y).abs() / x.min(y);
                let verdict = if diff > bound { "EXCEEDED" } else { "" };
                agree &= diff <= bound;
                println!(
                    "{:<15} {:<12} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}% {verdict}",
                    workload.name(),
                    name,
                    x,
                    y,
                    100.0 * diff,
                    100.0 * bound
                );
            }
        }
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a =
            args(&["--workload", "fleet_flap", "--seed", "9", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!(a.workload, Some(Workload::FleetFlap));
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (9, 10.0, true, false));
        let defaults = args(&[]).unwrap();
        assert_eq!((defaults.seed, defaults.seconds, defaults.trace), (1, DEFAULT_SECONDS, false));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for words in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--trace", "2"],
            &["--repeat", "1"],
            &["--workload", "fleet_flap", "--repeat", "2"],
            &["--pass"],
            &["--workload", "fleet_flap", "--trace", "1", "--pass"],
            &["--frobnicate"],
        ] {
            assert!(args(words).is_err(), "{words:?} parsed");
        }
    }
}
