//! `repro`'s command line: options it no longer has are usage errors
//! (exit 2) before any cell runs.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts");
    out.status.code()
}

#[test]
fn removed_options_exit_2() {
    for args in [
        &["--sizes", "1024", "fig3"][..],
        &["fig3", "--sizes", "abc"],
        &["--sizes", "1024,,x"],
        // The single-cell filter is `repro perf --filter mode/size/dir`.
        &["--filter", "full/4096/tx"],
        &["--quick", "--filter", "no/128/rx", "fig3"],
    ] {
        assert_eq!(exit_code(args), Some(2), "repro {}", args.join(" "));
    }
}

#[test]
fn unknown_artifacts_and_stray_check_exit_2() {
    assert_eq!(exit_code(&["fig6"]), Some(2));
    assert_eq!(exit_code(&["--check", "table1"]), Some(2));
}
