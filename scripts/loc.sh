#!/usr/bin/env sh
# loc.sh — non-test Go code lines per package directory, by the rule every
# ROADMAP figure uses: a line counts unless it is blank or starts a //
# comment. bench/ is a module of its own and is listed like any directory.
# Run from anywhere: `make loc`, or `scripts/loc.sh <dir>` for another tree.
# It counts the working tree: tracked files and untracked ones git does not
# ignore, as far as they exist on disk, so a new file counts before it is
# added and a deleted one stops counting before the deletion is staged.
set -eu

cd "${1:-$(dirname "$0")/..}"

git ls-files --cached --others --exclude-standard '*.go' | grep -v '_test\.go$' | while read -r f; do
	[ -f "$f" ] || continue
	printf '%s %s\n' "$(dirname "$f")" "$(grep -cvE '^\s*(//|$)' "$f")"
done | awk '
	{ n[$1] += $2; total += $2 }
	END {
		for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%6d  total\n", total
	}'
