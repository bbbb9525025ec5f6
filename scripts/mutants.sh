#!/usr/bin/env bash
# The mutant catalogue: every scripts/mutants/NN-name.patch breaks one
# contract on purpose, and the tests must notice.  For each selected
# patch: apply it to a scratch copy of the tree, run the tests, record
# `killed` with the failing tests or `survived`, and revert.  Prints a
# markdown table (mutant, contract, killed by, seconds); each run's full
# log stays next to the copy.
#
# Usage: scripts/mutants.sh [name…]    a name is `NN-name` or `name`;
#                                      no name runs every patch
#
# A patch header (lines before `--- a/…`) names the mutant, the contract
# it breaks, the suites that must kill it and the tests that killed it
# when it was recorded: `# suites: tier-1` runs
# `cargo test -q --no-fail-fast`, `# suites: tier-1 + fault` also runs
# `cargo test -q --no-fail-fast -p linkage-server --features fault`.
#
# The copy and its one target dir live under $MUTANTS_DIR (default
# ${TMPDIR:-/tmp}/linkage-mutants).  Every source in the copy is touched
# first: a copied tree can carry mtimes older than the artifacts in a
# reused target dir, and cargo would then link stale code.
#
# Exits 1 if a mutant survives, a patch no longer applies, or a mutant
# does not build (its patch must be re-pointed).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
work=${MUTANTS_DIR:-${TMPDIR:-/tmp}/linkage-mutants}
tree=$work/tree
export CARGO_TARGET_DIR=$work/target

patches=()
if [ $# -eq 0 ]; then
  patches=("$root"/scripts/mutants/*.patch)
else
  for name in "$@"; do
    found=("$root"/scripts/mutants/*"$name".patch)
    if [ ! -e "${found[0]}" ]; then
      echo "mutants.sh: no mutant named $name" >&2
      exit 2
    fi
    patches+=("${found[@]}")
  done
fi

echo "==> copying the tree to $tree" >&2
rm -rf "$tree"
mkdir -p "$tree"
tar -C "$root" --exclude=./.git --exclude=./target --exclude=./perfbench/target \
  --exclude=./perfbench/out --exclude=./.bench_build -cf - . | tar -C "$tree" -xf -
find "$tree" -type f \( -name '*.rs' -o -name '*.toml' \) -exec touch {} +

status=0
echo "| mutant | contract | killed by | seconds |"
echo "|---|---|---|---|"
for patch in "${patches[@]}"; do
  name=$(basename "$patch" .patch)
  contract=$(sed -n 's/^# contract: //p' "$patch")
  if ! patch -d "$tree" -p1 -s --dry-run <"$patch" >/dev/null 2>&1; then
    echo "| \`$name\` | $contract | **does not apply** | 0 |"
    status=1
    continue
  fi
  echo "==> $name" >&2
  patch -d "$tree" -p1 -s <"$patch"
  log=$work/$name.log
  start=$(date +%s)
  (cd "$tree" && cargo test -q --no-fail-fast) >"$log" 2>&1 || true
  if grep -q '^# suites: .*fault' "$patch"; then
    (cd "$tree" && cargo test -q --no-fail-fast -p linkage-server --features fault) \
      >>"$log" 2>&1 || true
  fi
  seconds=$(($(date +%s) - start))
  patch -d "$tree" -p1 -s -R <"$patch"

  if grep -q 'could not compile' "$log"; then
    verdict="**does not build**"
    status=1
  else
    killers=$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$log" | sort -u)
    if [ -z "$killers" ]; then
      verdict="**survived**"
      status=1
    else
      count=$(wc -l <<<"$killers")
      verdict="$(head -n 4 <<<"$killers" | sed 's/.*/`&`/' | paste -sd, - | sed 's/,/, /g')"
      if [ "$count" -gt 4 ]; then
        verdict="$verdict (+$((count - 4)) more)"
      fi
    fi
  fi
  echo "| \`$name\` | $contract | $verdict | $seconds |"
done
exit $status
