//! The prose docs may only name targets and files that exist: a `--bin`,
//! `--example` or `--bench` name, a back-ticked name the next word calls a
//! bench, bin or binary, any `cargo bench`, or a path under `crates/`,
//! `tests/`, `examples/`, `vendor/` or `.github/` that is not in the
//! checkout fails here, so deleting or renaming code without updating
//! README / DESIGN / EXPERIMENTS / the verify skill is a tier-1 failure.

use std::path::Path;

const DOCS: [&str; 4] = ["README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"];
const PATH_ROOTS: [&str; 5] = ["crates/", "tests/", "examples/", "vendor/", ".github/"];

fn is_path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || "_-./".contains(c)
}

/// Every `<root>…` path in `text` that starts a word, trailing sentence
/// punctuation removed. Patterns (`crates/*`, `results/{a,b}.csv`,
/// `crates/<name>`) are not paths and are skipped.
fn paths_in(text: &str) -> Vec<&str> {
    let mut found = Vec::new();
    for root in PATH_ROOTS {
        for (at, _) in text.match_indices(root) {
            if text[..at].chars().next_back().is_some_and(|c| is_path_char(c) || c == '*') {
                continue;
            }
            let rest = &text[at..];
            let end = rest.find(|c| !is_path_char(c)).unwrap_or(rest.len());
            if rest[end..].starts_with(['*', '{', '<', '…']) {
                continue;
            }
            found.push(rest[..end].trim_end_matches(['.', '/']));
        }
    }
    found
}

/// The word after each `flag ` in `text` (`--bin figures` → `figures`).
fn names_after<'a>(text: &'a str, flag: &str) -> Vec<&'a str> {
    text.match_indices(flag)
        .map(|(at, _)| text[at + flag.len()..].trim_start())
        .map(|rest| &rest[..rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-')).unwrap_or(rest.len())])
        .filter(|name| !name.is_empty())
        .collect()
}

/// Each back-ticked target name the prose labels with its next word —
/// "the `micro` bench", "the `figures` binary" — as `(name, label)`.
fn labelled_targets(text: &str) -> Vec<(&str, &str)> {
    // Splitting on back-ticks puts code spans at the odd indices.
    let parts: Vec<&str> = text.split('`').collect();
    (1..parts.len().saturating_sub(1))
        .step_by(2)
        .filter(|&i| !parts[i].is_empty() && parts[i].chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'))
        .filter_map(|i| {
            let rest = parts[i + 1].strip_prefix(char::is_whitespace)?.trim_start();
            let label = &rest[..rest.find(|c: char| !c.is_ascii_alphabetic()).unwrap_or(rest.len())];
            ["bench", "bin", "binary"].contains(&label).then_some((parts[i], label))
        })
        .collect()
}

/// Whether some workspace crate has the target file `<crate>/<dir>/<name>.rs`.
fn crate_target_exists(root: &Path, dir: &str, name: &str) -> bool {
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ is readable");
    crates.filter_map(Result::ok).any(|c| c.path().join(dir).join(format!("{name}.rs")).is_file())
}

#[test]
fn docs_name_only_targets_and_paths_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stale = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for path in paths_in(&text) {
            if !root.join(path).exists() {
                stale.push(format!("{doc}: path `{path}`"));
            }
        }
        for (flag, dir) in [("--bin ", "src/bin"), ("--bench ", "benches")] {
            for name in names_after(&text, flag) {
                if !crate_target_exists(root, dir, name) {
                    stale.push(format!("{doc}: `{flag}{name}`"));
                }
            }
        }
        for (name, label) in labelled_targets(&text) {
            if !crate_target_exists(root, if label == "bench" { "benches" } else { "src/bin" }, name) {
                stale.push(format!("{doc}: `{name}` {label}"));
            }
        }
        // `clove-run --example` is that binary's own flag, not cargo's.
        for name in names_after(&text.replace("clove-run --example", ""), "--example ") {
            if !root.join("examples").join(format!("{name}.rs")).is_file() {
                stale.push(format!("{doc}: `--example {name}`"));
            }
        }
        // The workspace has no bench targets: the repo benchmark is
        // `benchmark/run.sh`.
        if text.contains("cargo bench") {
            stale.push(format!("{doc}: `cargo bench`"));
        }
    }
    assert!(stale.is_empty(), "docs name things that are not in the checkout:\n{}", stale.join("\n"));
}

#[test]
fn the_scanner_finds_what_it_should() {
    let text = "see `crates/net/src/fabric.rs`, tests/smoke_rpc.rs. Not ../crates/x, crates/*/src, crates/<name> or benchmark/tests/a.rs; run --bin figures -- all, `--example  quickstart`.";
    assert_eq!(paths_in(text), ["crates/net/src/fabric.rs", "tests/smoke_rpc.rs"]);
    assert_eq!(names_after(text, "--bin "), ["figures"]);
    assert_eq!(names_after(text, "--example "), ["quickstart"]);
    let prose = "the `micro` bench and the `clove-run`\nbinary, not `cargo test` bin, `x` benchmarks, `y`bin or a bare bench.";
    assert_eq!(labelled_targets(prose), [("micro", "bench"), ("clove-run", "binary")]);
}
