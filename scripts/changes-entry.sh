#!/usr/bin/env sh
# changes-entry.sh — hold the newest CHANGES.md entry to ROADMAP's rule:
# at most 15 lines, none past 100 characters (runes, not bytes). The
# entry is the last "- PR N" line plus the indented lines under it;
# FOUND: and MENDED: lines are not part of it.
set -eu

cd "$(dirname "$0")/.."

python3 - CHANGES.md <<'EOF'
import re, sys

lines = open(sys.argv[1], encoding="utf-8").read().splitlines()
starts = [i for i, l in enumerate(lines) if re.match(r"- PR \d+\b", l)]
if not starts:
    sys.exit("CHANGES.md: no '- PR N' entry")
entry = [lines[starts[-1]]]
for l in lines[starts[-1] + 1:]:
    if not l[:1].isspace():
        break
    entry.append(l)
bad = []
if len(entry) > 15:
    bad.append(f"{len(entry)} lines, at most 15")
bad += [f"line {starts[-1] + 1 + i}: {len(l)} characters, at most 100"
        for i, l in enumerate(entry) if len(l) > 100]
if bad:
    sys.exit("CHANGES.md newest entry:\n  " + "\n  ".join(bad))
EOF
