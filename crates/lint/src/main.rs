//! CLI for the workspace determinism analyzer.
//!
//! ```text
//! cargo run -p clove-lint -- check [--root DIR]
//! cargo run -p clove-lint -- rules
//! ```
//!
//! Exit status: 0 clean, 2 unwaived findings, 1 usage or I/O error.

use clove_lint::config::RULES;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: clove-lint check [--root DIR]");
    eprintln!("       clove-lint rules");
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("rules") => {
            let width = RULES.iter().map(|r| r.name.len()).max().unwrap_or(0);
            for r in RULES {
                println!("{:<width$}  {}", r.name, r.summary);
            }
            ExitCode::SUCCESS
        }
        Some("check") => {
            let mut root: Option<PathBuf> = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--root" => match it.next() {
                        Some(dir) => root = Some(PathBuf::from(dir)),
                        None => return usage(),
                    },
                    _ => return usage(),
                }
            }
            let root = root.unwrap_or_else(default_root);
            match clove_lint::run_check(&root) {
                Ok(report) => {
                    print!("{}", report.render_table());
                    if report.unwaived().count() == 0 {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(2)
                    }
                }
                Err(e) => {
                    eprintln!("clove-lint: error scanning {}: {e}", root.display());
                    ExitCode::from(1)
                }
            }
        }
        _ => usage(),
    }
}

/// Default scan root: the workspace this binary was built from, so
/// `cargo run -p clove-lint -- check` works from any subdirectory.
fn default_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}
