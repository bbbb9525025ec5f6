#!/usr/bin/env bash
# Repository check suite: formatting, lints, and the tier-1 verify command.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

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

# The benchmark is its own workspace calling this tree's public items
# from outside: building and smoking it here makes a reshaped signature
# it depends on fail the check, not the next benchmark run.
echo "==> perfbench: build against the tree, quick smoke, own tests"
bash perfbench/run.sh --quick
(cd perfbench && cargo test --offline -q)

echo "All checks passed."
