#!/usr/bin/env bash
# Repository check suite: formatting, lints, and the tier-1 verify command.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Both lockfiles must already describe both workspaces: a change that
# adds or drops a crate or a dependency edge fails here, instead of
# silently rewriting perfbench's lock during a benchmark run.
echo "==> lockfiles are current (root, perfbench)"
cargo metadata --locked --format-version 1 >/dev/null
cargo metadata --locked --format-version 1 --manifest-path perfbench/Cargo.toml >/dev/null

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --examples"
cargo build --examples

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test --doc"
cargo test --doc -q

echo "==> public API snapshot"
scripts/public_api.sh

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> paper: tables and claims (exit 1 if any claim fails)"
cargo run --release -q -p linkage-experiments --bin paper

# The fault-injection suites (chaos scenarios, the two-actor slot model)
# compile only with the `fault` feature; CI's `chaos` job runs the same.
echo "==> chaos: cargo test -q -p linkage-server --features fault"
cargo test -q -p linkage-server --features fault

# The benchmark is its own workspace calling this tree's public items
# from outside: building and smoking it here makes a reshaped signature
# it depends on fail the check, not the next benchmark run.
echo "==> perfbench: build against the tree, quick smoke, own tests"
bash perfbench/run.sh --quick
(cd perfbench && cargo test --offline -q)

echo "All checks passed."

echo "==> sizes"
scripts/loc.sh
