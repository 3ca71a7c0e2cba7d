#!/bin/sh
# Prints the line count of the tracked `.rs` files and, given a BASE
# commit, the lines added, removed and net since BASE (working tree
# against BASE, tracked files only; stage new files first).
#
#   devtools/rs_lines.sh            # count only
#   devtools/rs_lines.sh main       # count plus +/-/net against main
set -eu

cd "$(git rev-parse --show-toplevel)"

# Files deleted but not yet staged are still listed; skip them.
total=$(git ls-files -- '*.rs' | while IFS= read -r f; do
    [ -f "$f" ] && cat -- "$f"
done | wc -l)
echo "tracked .rs lines: $total"

[ $# -eq 0 ] && exit 0
base=$1
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
    echo "rs_lines: unknown base \`$base\`" >&2
    exit 2
fi
git diff --numstat "$base" -- '*.rs' | awk -v base="$base" '
    { added += $1; removed += $2 }
    END { printf "against %s: +%d -%d net %+d\n", base, added, removed, added - removed }
'
