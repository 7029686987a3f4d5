//! The repo benchmark (`benchmark/`, its own workspace) imports the
//! simulator through one file, `benchmark/src/api.rs`. Compiling that file
//! here makes renaming or removing anything on it a `cargo test` compile
//! error in this workspace, rather than a `benchmark/run.sh` build failure
//! found after the change is submitted.

#[path = "../../../benchmark/src/api.rs"]
pub mod api;

/// Compiling `api` is the check; this gives it a name in the test list.
#[test]
fn the_benchmarks_pinned_imports_resolve() {}
