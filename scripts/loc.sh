#!/usr/bin/env bash
# Size of the tree, the two numbers the ROADMAP tracks:
#   - non-test lines: every `.rs` file under `crates/` and `src/` outside a
#     `tests/` directory, cut at the `#[cfg(test)]` that opens a `mod`
#     (a `#[cfg(test)]` on a single item mid-file does not cut);
#   - public items: the lines of `docs/public_api.txt`.
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

lines=$(find crates src -name '*.rs' -not -path '*/tests/*' -print0 | sort -z |
  xargs -0 awk '
    FNR == 1 { if (NR > 1) total += kept; kept = 0; cut = 0; held = "" }
    cut { next }
    held != "" {
      if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) { cut = 1; next }
      kept++; held = ""
    }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = $0; next }
    { kept++ }
    END { print total + kept }
  ')
echo "non-test lines (crates/ + src/): $lines"
echo "public API items (docs/public_api.txt): $(wc -l < docs/public_api.txt)"
