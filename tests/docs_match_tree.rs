//! The prose docs may only name targets, files and modules that exist: a
//! `--bin`, `--example` or `--bench` name, a `-p` package that is not in the
//! workspace, a back-ticked name the next word calls a bench, bin or binary,
//! any `cargo bench`, a path under `crates/`,
//! `tests/`, `examples/`, `vendor/` or `.github/` that is not in the
//! checkout, or a `clove-<crate>::<name>` / `clove_<crate>::<name>` whose
//! crate has no such module or root item fails here, so deleting or
//! renaming code without updating README / DESIGN / EXPERIMENTS / the
//! verify skill is a tier-1 failure.

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

/// Every `clove-<crate>::<name>` or `clove_<crate>::<name>` in `text` that
/// starts a word, as `(crate, name)`; `crate` is the `crates/` directory.
fn crate_paths_in(text: &str) -> Vec<(&str, &str)> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut found = Vec::new();
    for (at, _) in text.match_indices("clove") {
        if text[..at].chars().next_back().is_some_and(|c| ident(c) || c == ':' || c == '-') {
            continue;
        }
        let Some(rest) = text[at + "clove".len()..].strip_prefix(['-', '_']) else { continue };
        let (krate, rest) = rest.split_at(rest.find(|c: char| !c.is_ascii_alphanumeric()).unwrap_or(rest.len()));
        let Some(rest) = rest.strip_prefix("::") else { continue };
        let name = &rest[..rest.find(|c: char| !ident(c)).unwrap_or(rest.len())];
        if !krate.is_empty() && !name.is_empty() {
            found.push((krate, name));
        }
    }
    found
}

/// The crate root without comments and with every `{…}` body blanked out
/// except `use` groups (`::{…}`), so only its top-level items remain.
fn top_level(lib: &str) -> String {
    let mut out = String::new();
    // One entry per open brace: whether it is a `use` group (kept).
    let mut open: Vec<bool> = Vec::new();
    for line in lib.lines() {
        let code = line.split("//").next().unwrap_or("");
        for (i, c) in code.char_indices() {
            out.push(if open.iter().all(|&group| group) { c } else { ' ' });
            match c {
                '{' => open.push(code[..i].trim_end().ends_with("::")),
                '}' => drop(open.pop()),
                _ => {}
            }
        }
        out.push('\n');
    }
    out
}

/// What a top-level crate root names: items it declares `pub` (`fn`,
/// `struct`, `mod`, …) and every word of its `pub use` statements.
fn root_names(top: &str) -> Vec<&str> {
    fn words(s: &str) -> impl Iterator<Item = &str> {
        s.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).filter(|w| !w.is_empty())
    }
    let mut names: Vec<&str> = top.split(';').filter_map(|stmt| stmt.split_once("pub use ")).flat_map(|(_, used)| words(used)).collect();
    let all: Vec<&str> = words(top).collect();
    let kinds = ["fn", "struct", "enum", "trait", "type", "const", "static", "mod"];
    names.extend(all.windows(3).filter(|w| w[0] == "pub" && kinds.contains(&w[1])).map(|w| w[2]));
    names
}

/// Whether `name` is a module of the crate in `crates/<dir>` (a file or an
/// inline `pub mod`) or an item its root declares or re-exports.
fn crate_has(root: &Path, dir: &str, name: &str) -> bool {
    let src = root.join("crates").join(dir).join("src");
    src.join(format!("{name}.rs")).is_file()
        || src.join(name).join("mod.rs").is_file()
        || std::fs::read_to_string(src.join("lib.rs")).is_ok_and(|lib| root_names(&top_level(&lib)).contains(&name))
}

/// Every workspace package: the root `clove` and the `name` of each
/// `crates/*` and `vendor/*` manifest.
fn packages(root: &Path) -> Vec<String> {
    let mut names = vec!["clove".to_string()];
    for dir in ["crates", "vendor"] {
        for member in std::fs::read_dir(root.join(dir)).expect("member dir is readable").filter_map(Result::ok) {
            let manifest = std::fs::read_to_string(member.path().join("Cargo.toml")).unwrap_or_default();
            names.extend(manifest.lines().find_map(|l| l.strip_prefix("name = \"")).map(|n| n.trim_end_matches('"').to_string()));
        }
    }
    names
}

/// Whether some workspace crate has the target file `<crate>/<dir>/<name>.rs`.
fn crate_target_exists(root: &Path, dir: &str, name: &str) -> bool {
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ is readable");
    crates.filter_map(Result::ok).any(|c| c.path().join(dir).join(format!("{name}.rs")).is_file())
}

#[test]
fn docs_name_only_targets_and_paths_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let packages = packages(root);
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
        for name in names_after(&text, "-p ") {
            if !packages.iter().any(|p| p == name) {
                stale.push(format!("{doc}: `-p {name}`"));
            }
        }
        for (name, label) in labelled_targets(&text) {
            if !crate_target_exists(root, if label == "bench" { "benches" } else { "src/bin" }, name) {
                stale.push(format!("{doc}: `{name}` {label}"));
            }
        }
        for (krate, name) in crate_paths_in(&text) {
            if !crate_has(root, krate, name) {
                stale.push(format!("{doc}: `clove-{krate}::{name}`"));
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

/// Items deleted with the one-way-latency scheme and the five-tuple-swap
/// mode, the scheme parameters that left `Profile` for the component that
/// reads them, and the token-level analyzer `clippy.toml` replaced. Plain
/// words, not paths, so the scan above cannot see them.
#[test]
fn docs_name_no_deleted_scheme_item() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for name in [
            "CloveLatency",
            "clove_latency",
            "clove-latency",
            "adaptive_gap",
            "CloveEcnNonOverlay",
            "non_overlay",
            "clove-ecn-non-overlay",
            "let-flow",
            "ecmp-dctcp",
            "clove-ecn-dctcp",
            "EcmpDctcp",
            "CloveEcnDctcp",
            "LetFlowConfig",
            "shape_check",
            "stale_horizon_rtts",
            "dead_horizon_rtts",
            "conga_flowlet_gap",
            "hula_probe_interval",
            "fabric_schemes",
            "Profile::quick",
            "CongaConfig",
            "HulaConfig",
            "ReassemblyConfig",
            "DiscoveryConfig",
            "discovery_config",
            "rwnd_bytes",
            "clove-lint",
            "clove_lint",
        ] {
            assert!(!text.contains(name), "{doc} names `{name}`, which is not in the checkout");
        }
    }
}

#[test]
fn the_scanner_finds_what_it_should() {
    let text = "see `crates/net/src/fabric.rs`, tests/smoke_rpc.rs. Not ../crates/x, crates/*/src, crates/<name> or benchmark/tests/a.rs; run --bin figures -- all, `--example  quickstart`.";
    assert_eq!(paths_in(text), ["crates/net/src/fabric.rs", "tests/smoke_rpc.rs"]);
    assert_eq!(names_after(text, "--bin "), ["figures"]);
    assert_eq!(names_after(text, "--example "), ["quickstart"]);
    let prose = "the `micro` bench and the `clove-run`\nbinary, not `cargo test` bin, `x` benchmarks, `y`bin or a bare bench.";
    assert_eq!(labelled_targets(prose), [("micro", "bench"), ("clove-run", "binary")]);
    let code = "`clove-net::gone`, clove_sim::Time, (`clove_core::clove_ecn::on_path_dead`), clove-run, clove-bench: x, my_clove_x::y, clove::net";
    assert_eq!(crate_paths_in(code), [("net", "gone"), ("sim", "Time"), ("core", "clove_ecn")]);
    let lib = "//! pub fn doc() {\npub mod a;\nmod hidden;\npub use x::{B, c::{D as E}};\npub fn f<T>() { pub fn body() {} }\npub(crate) fn g() {}\npub mod inline {\n    pub fn inner() {}\n}\npub struct S;";
    let top = top_level(lib);
    for name in ["a", "B", "D", "E", "f", "inline", "S"] {
        assert!(root_names(&top).contains(&name), "{name}: {top}");
    }
    for name in ["doc", "hidden", "body", "g", "inner"] {
        assert!(!root_names(&top).contains(&name), "{name}: {top}");
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (krate, name) in [("net", "fault"), ("sim", "Time"), ("sim", "run"), ("workload", "web_search"), ("baselines", "PrestoPolicy"), ("core", "clove_ecn")] {
        assert!(crate_has(root, krate, name), "clove-{krate}::{name}");
    }
    for (krate, name) in [
        ("net", "wire"),
        ("net", "codec"),
        ("net", "chaos"),
        ("sim", "stats"),
        ("workload", "websearch"),
        ("baselines", "fabric_schemes"),
        ("core", "DiscoveryConfig"),
        ("ecn", "on_path_dead"),
    ] {
        assert!(!crate_has(root, krate, name), "clove-{krate}::{name}");
    }
    let packages = packages(root);
    assert!(["clove", "clove-harness", "clove-bench", "rustc-hash"].iter().all(|p| packages.iter().any(|q| q == p)), "{packages:?}");
}
