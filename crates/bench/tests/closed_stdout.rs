//! A reader that stops reading ends the harness binaries' output, not
//! their work: spawned with the read end of their stdout pipe already
//! closed, `figures` still writes every CSV and exits 0, and `bench_diff`
//! still exits with its gate's status.

use std::process::{Command, Output};

/// Runs `cmd` with the read end of its stdout pipe closed before it
/// starts, so its first write fails with `BrokenPipe`.
fn with_closed_stdout(cmd: &mut Command) -> Output {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = cmd.stdout(writer).output().expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("Broken pipe"), "{cmd:?} panicked:\n{stderr}");
    out
}

#[test]
fn figures_writes_every_csv_when_nobody_reads_its_stdout() {
    let dir = std::env::temp_dir().join("nectar-figures-closed-stdout");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    let args = ["--quick", "fig3", "topology_resilience"];
    assert_eq!(with_closed_stdout(cmd.args(args).current_dir(&dir)).status.code(), Some(0));
    // fig3 has one table, topology_resilience five.
    assert_eq!(std::fs::read_dir(dir.join("results")).expect("results").count(), 6);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_diff_keeps_its_gate_status_when_nobody_reads_its_stdout() {
    let dir = std::env::temp_dir().join("nectar-bench-diff-closed-stdout");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let medians = |ns: u64| format!(r#"{{"results": [{{"id": "a", "median_ns": {ns}}}]}}"#);
    let (base, fresh) = (dir.join("base.json"), dir.join("fresh.json"));
    std::fs::write(&base, medians(100)).expect("baseline writes");
    let gate = |fresh_ns: u64| {
        std::fs::write(&fresh, medians(fresh_ns)).expect("fresh medians write");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench_diff"));
        with_closed_stdout(cmd.arg(&base).arg(&fresh)).status.code()
    };
    assert_eq!(gate(150), Some(0), "1.5× is inside the 2× gate");
    assert_eq!(gate(500), Some(1), "5× is a regression");
    std::fs::remove_dir_all(&dir).ok();
}
