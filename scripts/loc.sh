#!/usr/bin/env bash
# Size of the tree, the numbers the ROADMAP tracks:
#   - non-test lines: every `.rs` file under `crates/` and `src/` outside a
#     `tests/` directory, cut at the `#[cfg(test)]` that opens a `mod`
#     (a `#[cfg(test)]` on a single item mid-file does not cut);
#   - public items: the lines of `docs/public_api.txt`;
#   - the non-test lines, by the same cut, of every file over 500 of them.
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# One "<lines> <file>" row per file, then the total on the last line.
counts=$(find crates src -name '*.rs' -not -path '*/tests/*' -print0 | sort -z |
  xargs -0 awk '
    function close_file() { if (file != "") { print kept, file; total += kept } }
    FNR == 1 { close_file(); file = FILENAME; kept = 0; cut = 0; held = "" }
    cut { next }
    held != "" {
      if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) { cut = 1; next }
      kept++; held = ""
    }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = $0; next }
    { kept++ }
    END { close_file(); print total }
  ')
echo "non-test lines (crates/ + src/): $(tail -n 1 <<<"$counts")"
echo "public API items (docs/public_api.txt): $(wc -l < docs/public_api.txt)"
echo "files over 500 non-test lines:"
head -n -1 <<<"$counts" | awk '$1 > 500' | sort -k1,1nr | awk '{ printf "  %5d %s\n", $1, $2 }'
