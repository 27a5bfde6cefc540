//! The `figures` binary refuses what it does not know: an unknown figure
//! name or a misspelt flag exits non-zero, before running anything, and
//! lists every name of the `FIGURES` registry.

use std::process::Command;

use nectar_experiments::FIGURES;

fn refuses(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs");
    assert_eq!(out.status.code(), Some(2), "figures {args:?} must fail");
    assert!(out.stdout.is_empty(), "figures {args:?} must run nothing");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 usage message");
    for (name, _) in FIGURES {
        assert!(stderr.contains(name), "figures {args:?} must list `{name}`:\n{stderr}");
    }
}

#[test]
fn unknown_names_and_flags_exit_non_zero_listing_the_registry() {
    refuses(&["fig9"]);
    refuses(&["--quik"]);
    refuses(&["--quick", "fig3", "nope"]);
    refuses(&["-q"]);
}
