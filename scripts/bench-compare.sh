#!/usr/bin/env bash
# bench-compare.sh BASE_REF [bench flags] — the benchmark regression gate.
#
# Measures BASE_REF and the working tree on this host, back to back, and
# applies BENCHMARK.json's bounds to the pair: the committed
# bench/results/baseline.json was measured on another machine, and numbers
# from two hosts cannot be told apart from the hosts. BASE_REF is checked
# out into a worktree under .bench_build/, `bash bench/run.sh -repeat 3`
# runs there and here, then `bench/run.sh compare` judges every
# (workload, metric) pair. A `regressed` pair (or two results that cannot
# be compared) fails; an `unresolved` pair — run-to-run spread wider than
# the bound — is printed as a warning. The two result files stay in
# .bench_build/ (base.json, head.json). Extra arguments go to both runs
# (`-quick -seconds 1` exercises the gate in a minute and measures
# nothing).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
base=${1:?usage: scripts/bench-compare.sh BASE_REF [bench flags]}
shift
out=$root/.bench_build
tree=$out/base-worktree
mkdir -p "$out"

git worktree remove --force "$tree" 2>/dev/null || true
git worktree add --detach "$tree" "$base" >/dev/null
trap 'git worktree remove --force "$tree"' EXIT

echo "==> base $(git -C "$tree" rev-parse --short HEAD)"
bash "$tree/bench/run.sh" -repeat 3 "$@" -out "$out/base.json"
echo "==> head (working tree)"
bash bench/run.sh -repeat 3 "$@" -out "$out/head.json"

echo "==> compare"
status=0
bash bench/run.sh compare "$out/base.json" "$out/head.json" | tee "$out/compare.txt" || status=$?
warn="warning: "
if [ "${GITHUB_ACTIONS:-}" = true ]; then
	warn="::warning::"
fi
{ grep -E '%[[:space:]]+unresolved$' "$out/compare.txt" || true; } | while read -r workload metric _; do
	echo "${warn}$workload $metric unresolved: run-to-run spread wider than the bound" >&2
done
exit "$status"
