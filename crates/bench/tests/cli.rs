//! A word a binary does not understand is a usage error (exit 2, nothing
//! on stdout), not a silently different run: `figures --quik` used to start
//! the full-scale `all` run, `--job 4` and `--jobs four` ran serial, and
//! `figures fig4x` ran nothing and exited 0.

use std::process::Command;

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");
const ABLATIONS: &str = env!("CARGO_BIN_EXE_ablations");

/// `bin args` must exit 2 with `error` and the usage line on stderr and an
/// empty stdout.
fn rejects(bin: &str, args: &[&str], error: &str) {
    let out = Command::new(bin).args(args).output().expect("binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} must not start a run");
    assert!(stderr.contains(error) && stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
}

#[test]
fn undeclared_flags_are_usage_errors() {
    rejects(FIGURES, &["--quik"], "unknown flag '--quik'");
    rejects(FIGURES, &["--job", "4", "fig7"], "unknown flag '--job'");
    rejects(ABLATIONS, &["--strict"], "unknown flag '--strict'");
}

#[test]
fn unknown_figure_names_and_bad_job_counts_are_usage_errors() {
    rejects(FIGURES, &["fig4x"], "unknown figure 'fig4x'");
    rejects(FIGURES, &["--jobs", "four", "fig7"], "--jobs 'four'");
    rejects(FIGURES, &["--jobs", "0"], "--jobs '0'");
    rejects(ABLATIONS, &["--jobs=x"], "--jobs 'x'");
}

/// The usage line is derived from the dispatch table, so every name it
/// offers must be accepted — checked with a flag error, which is reported
/// only after the name passed.
#[test]
fn every_name_in_the_usage_line_is_accepted() {
    let out = Command::new(FIGURES).arg("nope").output().expect("binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let names = stderr.split_once("usage: figures [").and_then(|(_, rest)| rest.split_once(']')).expect("usage lists the names").0;
    let names: Vec<&str> = names.split('|').collect();
    assert!(names.len() >= 16 && names.contains(&"fig5") && names.contains(&"all"), "{names:?}");
    for name in names {
        rejects(FIGURES, &[name, "--jobs", "0"], "--jobs '0'");
    }
}
