//! The determinism rules, pinned. `clippy.toml` bans the std hash tables,
//! the host clock, OS entropy and `process::abort`; every library crate
//! root warns on `print_stdout`, `print_stderr` and `exit`; CI's
//! `cargo clippy --workspace --all-targets -- -D warnings` makes both
//! errors. This suite keeps those bans switched on, keeps every exception
//! to them at a known site with a reason, and checks the two rules clippy
//! cannot express: relaxed atomics only in the journal's audited counters,
//! and float ordering by `total_cmp`, never by a `partial_cmp` call.

use std::path::Path;

/// The lints whose exceptions are pinned, and the clippy groups holding them.
const PINNED_LINTS: [&str; 8] = ["disallowed_types", "disallowed_methods", "print_stdout", "print_stderr", "exit", "all", "style", "restriction"];

/// Every `(file, lint)` allowed an `expect`/`allow` of a pinned lint.
const EXCEPTIONS: [(&str, &str); 5] = [
    ("crates/core/src/flowlet.rs", "disallowed_types"),
    ("crates/harness/src/cli.rs", "print_stderr"),
    ("crates/harness/src/experiments.rs", "print_stderr"),
    ("crates/harness/src/journal.rs", "print_stderr"),
    ("vendor/rustc-hash/src/lib.rs", "disallowed_types"),
];

/// Every `.rs` file of the workspace but this one, as (relative path,
/// source with its `//` comment lines blanked so prose may name anything).
fn sources() -> Vec<(String, String)> {
    fn walk(dir: &Path, rel: &str, out: &mut Vec<(String, String)>) {
        let mut paths: Vec<_> = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{rel}: {e}")).map(|e| e.expect("dir entry").path()).collect();
        paths.sort();
        for path in paths {
            let rel = format!("{rel}/{}", path.file_name().and_then(|n| n.to_str()).expect("utf-8 name"));
            if path.is_dir() && !rel.ends_with("/target") {
                walk(&path, &rel, out);
            } else if rel.ends_with(".rs") && rel != "tests/determinism_rules.rs" {
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
                let code = text.lines().map(|l| if l.trim_start().starts_with("//") { "" } else { l }).collect::<Vec<_>>().join("\n");
                out.push((rel, code));
            }
        }
    }
    let mut out = Vec::new();
    for dir in ["src", "crates", "tests", "examples", "vendor"] {
        walk(&Path::new(env!("CARGO_MANIFEST_DIR")).join(dir), dir, &mut out);
    }
    assert!(out.len() > 50, "found implausibly few sources: {}", out.len());
    out
}

/// `path:line` of each whole-word `word` in `code` whose line prefix `keep` accepts.
fn uses(path: &str, code: &str, word: &str, keep: impl Fn(&str) -> bool) -> Vec<String> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut found = Vec::new();
    for (n, line) in code.lines().enumerate() {
        for (at, _) in line.match_indices(word) {
            let (before, after) = (&line[..at], &line[at + word.len()..]);
            if !before.ends_with(ident) && !after.starts_with(ident) && keep(before) {
                found.push(format!("{path}:{}", n + 1));
            }
        }
    }
    found
}

/// `(lint, has a non-empty reason)` for each pinned lint that an
/// `allow(...)` or `expect(...)` attribute in `code` excepts. `cargo fmt`
/// ends every attribute at a line end.
fn exceptions(code: &str) -> Vec<(String, bool)> {
    let mut found = Vec::new();
    for (start, _) in code.match_indices("#[").chain(code.match_indices("#![")) {
        let attr = &code[start..code[start..].find("]\n").map_or(code.len(), |end| start + end)];
        let (lints, reason) = attr.split_once("reason = \"").unwrap_or((attr, "\""));
        for (at, level) in lints.match_indices("allow(").chain(lints.match_indices("expect(")) {
            for name in lints[at + level.len()..].split([',', '(', ')']) {
                if let Some(lint) = name.trim().strip_prefix("clippy::").filter(|l| PINNED_LINTS.contains(l)) {
                    found.push((lint.to_string(), !reason.trim_start().starts_with('"')));
                }
            }
        }
    }
    found
}

#[test]
fn relaxed_atomics_stay_in_the_journal() {
    let found: Vec<String> =
        sources().iter().filter(|(rel, _)| rel != "crates/harness/src/journal.rs").flat_map(|(rel, code)| uses(rel, code, "Relaxed", |_| true)).collect();
    assert!(found.is_empty(), "Relaxed ordering outside the journal's audited counters (control flags need Release/Acquire):\n{}", found.join("\n"));
}

#[test]
fn floats_are_never_ordered_by_a_partial_cmp_call() {
    let found: Vec<String> = sources().iter().flat_map(|(rel, code)| uses(rel, code, "partial_cmp", |before| !before.ends_with("fn "))).collect();
    assert!(found.is_empty(), "partial_cmp call (panics or misorders on NaN; use total_cmp):\n{}", found.join("\n"));
}

/// A wall-clock exception fails here twice: it is not a pinned site, and
/// no code line may name the host clock, so a module-wide exception for
/// the hash tables cannot let one in either.
#[test]
fn every_lint_exception_is_pinned_and_justified() {
    let mut found = Vec::new();
    for (rel, code) in sources() {
        for word in ["Instant", "SystemTime", "UNIX_EPOCH"] {
            assert_eq!(uses(&rel, &code, word, |_| true), Vec::<String>::new(), "the host clock is banned everywhere");
        }
        for (lint, justified) in exceptions(&code) {
            assert!(justified, "{rel}: the exception to clippy::{lint} gives no reason");
            found.push((rel.clone(), lint));
        }
    }
    found.sort();
    let pinned: Vec<(String, String)> = EXCEPTIONS.iter().map(|&(file, lint)| (file.to_string(), lint.to_string())).collect();
    assert_eq!(found, pinned, "exceptions to the determinism lints moved; audit the new site before pinning it");
}

#[test]
fn the_bans_stay_switched_on() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let toml = std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    let (types, methods) = toml.split_once("disallowed-methods").expect("a disallowed-methods list");
    for (list, paths) in [
        (types, &["std::collections::HashMap", "std::collections::HashSet", "std::hash::RandomState", "std::time::Instant", "std::time::SystemTime"][..]),
        (methods, &["std::time::Instant::now", "std::time::SystemTime::now", "std::time::SystemTime::elapsed", "std::process::abort"][..]),
    ] {
        for path in paths {
            let entry = format!("{{ path = \"{path}\", reason = \"");
            assert!(list.contains(&entry) && !list.contains(&format!("{entry}\"")), "clippy.toml no longer bans `{path}` with a reason");
        }
    }
    let mut roots = vec![root.join("src/lib.rs")];
    roots.extend(std::fs::read_dir(root.join("crates")).expect("crates/").map(|c| c.expect("entry").path().join("src/lib.rs")).filter(|p| p.is_file()));
    for lib in roots {
        let text = std::fs::read_to_string(&lib).expect("crate root");
        assert!(
            text.contains("clippy::print_stdout, clippy::print_stderr, clippy::exit)"),
            "{}: library output must go through the report layer",
            lib.display()
        );
    }
}

#[test]
fn the_scanner_finds_what_it_should() {
    let code = "fn partial_cmp(&self) {}\nlet o = a.partial_cmp(&b); // Relaxed\nx.load(std::sync::atomic::Ordering::Relaxed); y.load(NotRelaxed);";
    assert_eq!(uses("f.rs", code, "partial_cmp", |before| !before.ends_with("fn ")), ["f.rs:2"]);
    assert_eq!(uses("f.rs", code, "Relaxed", |_| true), ["f.rs:2", "f.rs:3"]);
    let attrs = "#[expect(clippy::print_stderr, reason = \"a ] and a ) in the reason\")]\n#![allow(clippy::disallowed_types, clippy::unwrap_used)]\n\
                 #[cfg_attr(test, allow(clippy::all))]\n#[test]\n#[expect(clippy::exit, reason = \"\")]\n#[warn(clippy::print_stdout)]";
    let found = exceptions(attrs);
    for lint in [("print_stderr", true), ("all", false), ("exit", false), ("disallowed_types", false)] {
        assert!(found.contains(&(lint.0.to_string(), lint.1)), "{lint:?}: {found:?}");
    }
    assert_eq!(found.len(), 4, "{found:?}");
}
