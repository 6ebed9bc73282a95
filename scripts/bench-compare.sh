#!/usr/bin/env bash
# bench-compare.sh BASE_REF [bench flags] — the benchmark regression gate.
#
# Measures BASE_REF and the working tree on this host and applies
# BENCHMARK.json's bounds to them: the committed
# bench/results/baseline.json was measured on another machine, and numbers
# from two hosts cannot be told apart from the hosts. BASE_REF is checked
# out into a shared clone under .bench_build/base-clone (a clone and not a
# worktree: it needs no write to .git, which a sandbox may refuse). Two
# pairs are measured, `bash bench/run.sh -repeat 3` there and here, the
# first pair base first and the second working tree first, so that a host
# that warms up or slows down over the run favours neither side;
# `bench/run.sh compare` judges every (workload, metric) row of each pair.
# A `regressed` row in either pair (or two results that cannot be
# compared) fails; an `unresolved` row — run-to-run spread wider than the
# bound — is printed as a warning. Result files and compare tables stay in
# .bench_build/ (base-N.json, head-N.json, compare-N.txt). Extra arguments
# go to every run (`-quick -seconds 1` exercises the gate in two minutes
# and measures nothing).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
base=${1:?usage: scripts/bench-compare.sh BASE_REF [bench flags]}
shift
out=$root/.bench_build
tree=$out/base-clone
mkdir -p "$out"

commit=$(git rev-parse --verify "$base^{commit}")
rm -rf "$tree"
trap 'rm -rf "$tree"' EXIT
git clone --quiet --shared --no-checkout "$root" "$tree"
git -C "$tree" checkout --quiet --detach "$commit"
echo "==> base $(git -C "$tree" rev-parse --short HEAD)"

warn="warning: "
if [ "${GITHUB_ACTIONS:-}" = true ]; then
	warn="::warning::"
fi
status=0
for pair in 1 2; do
	sides="base head"
	if [ "$pair" = 2 ]; then
		sides="head base"
	fi
	for side in $sides; do
		echo "==> pair $pair: $side"
		dir=$root
		if [ "$side" = base ]; then
			dir=$tree
		fi
		bash "$dir/bench/run.sh" -repeat 3 "$@" -out "$out/$side-$pair.json"
	done
	echo "==> pair $pair: compare"
	code=0
	bash bench/run.sh compare "$out/base-$pair.json" "$out/head-$pair.json" | tee "$out/compare-$pair.txt" || code=$?
	if [ "$status" = 0 ]; then
		status=$code
	fi
	{ grep -E '%[[:space:]]+unresolved$' "$out/compare-$pair.txt" || true; } | while read -r workload metric _; do
		echo "${warn}pair $pair: $workload $metric unresolved: run-to-run spread wider than the bound" >&2
	done
done
exit "$status"
