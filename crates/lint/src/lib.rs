#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! `clove-lint`: the workspace determinism/robustness analyzer.
//!
//! Every result this reproduction ships rests on one promise: byte-identical
//! output at any `--jobs`, from the fig4–fig9 pipeline to `--resume`
//! journals and chaos reproducers. Integration tests check that promise
//! after the fact; this crate enforces, *before* the fact, the coding
//! invariants it rests on — as named, machine-reportable rules:
//!
//! | rule | enforces |
//! |------|----------|
//! | `std-hash-collections` | no `HashMap`/`HashSet` with the seeded `RandomState` hasher — vendored `FxHashMap` or `BTreeMap` |
//! | `wall-clock`           | no `Instant`/`SystemTime` — simulation logic uses `clove_sim::Time` |
//! | `os-entropy`           | no `thread_rng`/`OsRng`/`getrandom` — randomness flows from `clove_sim::rng` seeds |
//! | `float-partial-cmp`    | no `partial_cmp().unwrap()` float ordering — use `total_cmp` |
//! | `stdout-in-lib`        | no `println!`/`eprintln!`/`process::exit` in library crates — output goes through the report layer |
//! | `relaxed-atomic`       | no `Ordering::Relaxed` outside the audited counter allowlist |
//! | `invalid-waiver`       | waiver comments must name a known rule and give a reason |
//!
//! Violations are waived inline with `// clove-lint: allow(<rule>): <reason>`
//! so every exception is greppable and justified. Run with
//! `cargo run -p clove-lint -- check` (`--json` for the machine report);
//! exit status 2 means unwaived findings.
//!
//! The analyzer is deliberately dependency-free (the build must work fully
//! offline, like the vendored proptest/rustc-hash facades), so it lexes Rust
//! source with its own tokenizer ([`lexer`]) rather than `syn`: every rule
//! here is a pattern over the token stream, and the lexer's only hard job —
//! done properly, unlike grep — is skipping comments, strings, and char
//! literals and distinguishing lifetimes from chars.

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

pub use report::{Finding, Report};
pub use rules::{check_source, classify, FileClass};

use std::path::Path;

/// Lint the whole workspace rooted at `root`.
pub fn run_check(root: &Path) -> std::io::Result<Report> {
    let files = walk::workspace_files(root)?;
    let mut report = Report { findings: Vec::new(), files_scanned: files.len() };
    for (rel, abs) in files {
        let src = std::fs::read_to_string(&abs)?;
        report.findings.extend(check_source(&rel, &src));
    }
    report.findings.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    Ok(report)
}
