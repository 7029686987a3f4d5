//! A flag a binary does not declare is a usage error (exit 2), not a
//! silently ignored word: `figures --quik` used to start the full-scale
//! `all` run, and `--job 4` ran serial.

use std::process::Command;

fn rejects(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} must not start a run");
    assert!(stderr.contains(&format!("unknown flag '{}'", args[0])) && stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
}

#[test]
fn undeclared_flags_are_usage_errors() {
    rejects(env!("CARGO_BIN_EXE_figures"), &["--quik"]);
    rejects(env!("CARGO_BIN_EXE_figures"), &["--job", "4", "fig7"]);
    rejects(env!("CARGO_BIN_EXE_ablations"), &["--strict"]);
    rejects(env!("CARGO_BIN_EXE_bench_baseline"), &["--chek", "BENCH_baseline.json"]);
}
