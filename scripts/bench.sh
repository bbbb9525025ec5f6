#!/usr/bin/env bash
# Machine-readable bench pipeline: run the probe-kernel microbench and the
# shard-count scaling sweep, and write the next BENCH_<n>.json trajectory
# file (which embeds probe_ns_per_tuple / insert_ns_per_tuple).
#
# Usage: scripts/bench.sh [--smoke|--full] [--server] [--out PATH]
#                         [--baseline PATH] [--max-regression FRACTION]
#                         [--summary PATH]
#
#   --smoke           seconds-long sweep for CI (default)
#   --full            the order-of-magnitude-larger local sweep
#   --server          also drive the linkage-server mixed-traffic model
#                     and embed + gate sessions_per_s / request_p50_ms /
#                     request_p99_ms (gates skip with a note against
#                     baselines that predate the server subsystem)
#   --out PATH        output file; default: the first unused BENCH_<n>.json
#                     (n starts at 2 — the PR that introduced the pipeline)
#   --baseline PATH   gate headline throughput AND the probe-kernel
#                     microbench metrics (probe_ns_per_tuple,
#                     probe_batch_ns_per_tuple, insert_ns_per_tuple,
#                     skewed_probe_ns_per_tuple) against this report,
#                     failing on a regression beyond --max-regression
#   --max-regression  allowed fractional regression (default 0.20)
#   --min-speedup     required 4-shard/1-shard throughput ratio (skipped
#                     automatically on hosts with fewer than 4 cores)
#   --summary PATH    append a Markdown candidate-funnel delta table
#                     (current vs baseline) to PATH — CI passes
#                     $GITHUB_STEP_SUMMARY
#
# The sweep always measures two probe-kernel points: the uniform smoke
# workload and the Zipf-skewed one (--skewed on the standalone
# bench_probe), both embedded in the written BENCH_<n>.json.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="--smoke"
OUT=""
EXTRA=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke|--full) MODE="$1"; shift ;;
    --server) EXTRA+=("$1"); shift ;;
    --out) OUT="$2"; shift 2 ;;
    --baseline|--max-regression|--min-speedup|--summary) EXTRA+=("$1" "$2"); shift 2 ;;
    *) echo "bench.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [[ -z "$OUT" ]]; then
  n=2
  while [[ -e "BENCH_${n}.json" ]]; do n=$((n + 1)); done
  OUT="BENCH_${n}.json"
fi

SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"

# bench_probe is built alongside the sweep for standalone probe-kernel
# iteration (`target/release/bench_probe --smoke|--full [--out PATH]`);
# bench_scaling runs the same measurement itself and embeds it into the
# trajectory document as probe_ns_per_tuple / insert_ns_per_tuple, so the
# pipeline does not run it twice.  Both are built with the `fault`
# feature so a `--server` run also measures the faulty-mode point
# (faulty_request_p99_ms: RetryClient traffic under a 1% injected
# connection drop); failpoints stay disarmed everywhere else, so the
# healthy-path numbers are unaffected.
echo "==> cargo build --release -p linkage-experiments --features fault --bin bench_scaling --bin bench_probe"
cargo build --release -p linkage-experiments --features fault --bin bench_scaling --bin bench_probe

echo "==> bench_scaling ${MODE} -> ${OUT} (sha ${SHA})"
target/release/bench_scaling "${MODE}" --out "${OUT}" --sha "${SHA}" ${EXTRA[@]+"${EXTRA[@]}"}

echo "Wrote ${OUT}."
