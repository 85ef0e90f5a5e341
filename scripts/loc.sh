#!/bin/sh
# Count the non-test Go lines outside bench/ — the number ROADMAP aim 2 and
# every CHANGES.md entry quote — in total and per top-level package: the root
# package, then each directory under cmd/ and internal/. A test
# file is *_test.go; blank lines and comments count, as `wc -l` counts them.
#
# Usage:
#   scripts/loc.sh          the table, total last
#   scripts/loc.sh -total   the total alone (for a before/after subtraction)
set -eu
cd "$(dirname "$0")/.."

files() {
	find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.git/*'
}

if [ "${1:-}" = "-total" ]; then
	files | xargs cat | wc -l | tr -d ' '
	exit 0
fi

# ./x.go belongs to "."; ./cmd/sweep/main.go to "cmd/sweep".
files | while read -r f; do
	f=${f#./}
	case "$f" in
	*/*/*) pkg=$(echo "$f" | cut -d/ -f1-2) ;;
	*/*) pkg=${f%%/*} ;;
	*) pkg=. ;;
	esac
	echo "$pkg $(wc -l < "$f")"
done | awk '
	{ lines[$1] += $2; total += $2 }
	END {
		for (p in lines) printf "%7d  %s\n", lines[p], p | "sort -k2"
		close("sort -k2")
		printf "%7d  total (non-test Go outside bench/)\n", total
	}'
