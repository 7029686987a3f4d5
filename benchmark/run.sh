#!/usr/bin/env bash
# Build and run the repo benchmark. Arguments pass straight through:
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1   one workload (the driver's form)
#   benchmark/run.sh [--seed S] [--reps N] [--traced] [--smoke] [--out FILE]   the whole suite
#   benchmark/run.sh compare A.json B.json
#
# Hermetic: builds offline from the checkout it sits in, into one build
# directory (CARGO_TARGET_DIR, default <checkout>/.bench_build), and the
# binary works under benchmark/out/<run-id>/ — journals, span dumps and
# anything the harness writes relative to the cwd land there, never in
# results/. `git status` stays clean apart from ignored paths.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-"$here/../.bench_build"}"
# Build output goes to stderr: stdout is the benchmark's report, whose last
# line the driver parses.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/clove-benchmark" "$@"
