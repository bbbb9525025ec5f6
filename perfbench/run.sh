#!/usr/bin/env bash
# Build the benchmark (offline, release profile, default features) and run it.
#
#   perfbench/run.sh [--seed N] [--traced] [--quick]
#       every workload, each in a fresh process; writes perfbench/out/results.json
#   perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last line of standard output is its result object
#   perfbench/run.sh compare A.json B.json
#       verdict per workload and end-to-end metric; exit 1 on any "worse"
#
# Exits non-zero when the build fails or any output check fails.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Standard output carries results only; cargo's chatter goes to standard error.
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench" "$@"
