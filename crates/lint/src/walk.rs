//! Workspace file discovery.
//!
//! Scans the crate sources the determinism guarantee covers and nothing
//! else: `src/`, `crates/*/{src,tests}`, `examples/`, `tests/`.
//! `vendor/` (third-party facades), `target/`, and the lint crate's own
//! fixture corpus (intentionally violating files) are excluded. Results
//! are sorted so reports — and therefore CI logs — are byte-identical run
//! to run.

use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "results", ".journal"];

/// Workspace-relative path prefixes excluded from scanning.
const SKIP_PREFIXES: &[&str] = &["crates/lint/tests/fixtures"];

/// Collect every `.rs` file to lint under `root`, as sorted
/// workspace-relative forward-slash paths.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    for top in ["src", "crates", "examples", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            visit(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn visit(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            let rel = rel_path(root, &path);
            if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                continue;
            }
            visit(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = rel_path(root, &path);
            if !SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                out.push((rel, path));
            }
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_own_sources_and_skips_fixtures_and_vendor() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_files(&root).expect("walk workspace");
        let rels: Vec<&str> = files.iter().map(|(r, _)| r.as_str()).collect();
        assert!(rels.contains(&"crates/lint/src/walk.rs"));
        assert!(rels.contains(&"crates/core/src/flowlet.rs"));
        assert!(!rels.iter().any(|r| r.starts_with("vendor/")), "vendor must be skipped");
        assert!(!rels.iter().any(|r| r.contains("lint/tests/fixtures")), "fixtures must be skipped");
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted, "walk order must be deterministic");
    }
}
