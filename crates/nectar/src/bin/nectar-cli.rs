//! `nectar-cli` — run Byzantine-resilient partition detection from the
//! command line. See `nectar-cli help` for usage.

use std::io::{ErrorKind, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match nectar::cli::parse(&args).and_then(nectar::cli::run) {
        Ok(output) => {
            let mut stdout = std::io::stdout().lock();
            match stdout.write_all(output.as_bytes()).and_then(|()| stdout.flush()) {
                // A reader that went away (`| head`) ends the output, not
                // the program: the command itself succeeded.
                Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("error: writing output: {e}");
                    std::process::exit(1);
                }
                _ => {}
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    }
}
