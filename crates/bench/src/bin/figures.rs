//! Regenerates every figure and in-text result of the paper's evaluation.
//!
//! ```text
//! cargo run -p nectar-bench --release --bin figures            # all, full scale
//! cargo run -p nectar-bench --release --bin figures -- --quick # CI-sized
//! cargo run -p nectar-bench --release --bin figures -- NAME ...  # a selection
//! ```
//!
//! The names are the keys of `nectar_experiments::FIGURES`; an unknown name
//! or any flag other than `--quick` exits with status 2 and lists them.
//! Each selected figure prints its Markdown tables and charts to stdout and
//! writes `results/<id>.csv` per table; a closed stdout (`| head`) ends the
//! printing, not the CSVs.

use nectar_experiments::{Table, FIGURES};

fn emit(table: &Table) {
    let chart = nectar_experiments::chart::render(table, 64, 16);
    nectar_bench::print_stdout(&format!("{}\n{chart}\n", table.to_markdown()));
    let path = nectar_bench::results_path(&format!("{}.csv", table.id));
    std::fs::write(&path, table.to_csv()).expect("cannot write results CSV");
    eprintln!("[figures] wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&str> = args.iter().filter(|a| *a != "--quick").map(String::as_str).collect();
    if let Some(bad) = wanted.iter().find(|a| !FIGURES.iter().any(|(name, _)| name == *a)) {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!("figures: unknown argument `{bad}`");
        eprintln!("usage: figures [--quick] [NAME ...]");
        eprintln!("names: {}", names.join(" "));
        std::process::exit(2);
    }
    for (name, figure) in FIGURES {
        if wanted.is_empty() || wanted.contains(&name) {
            figure(quick).iter().for_each(emit);
        }
    }
}
