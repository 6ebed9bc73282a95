#!/usr/bin/env sh
# check.sh — run the CI gates locally, in the same order as
# .github/workflows/ci.yml. Fails fast on the first broken gate.
#
# staticcheck and govulncheck run only when installed (CI pins their
# versions via STATICCHECK_VERSION / GOVULNCHECK_VERSION in ci.yml;
# install the same ones locally with `go install`). Everything else is
# stdlib-only and always runs.
set -eu

cd "$(dirname "$0")/.."

step() {
	echo "==> $*"
}

step gofmt
out="$(gofmt -l .)"
if [ -n "$out" ]; then
	echo "gofmt needed on:" >&2
	echo "$out" >&2
	exit 1
fi

step "go build"
go build ./...

step "go vet"
go vet ./...

step "qlint (serving-stack invariants)"
go run ./cmd/qlint ./...

if command -v staticcheck >/dev/null 2>&1; then
	step staticcheck
	staticcheck ./...
else
	step "staticcheck (skipped: not installed)"
fi

if command -v govulncheck >/dev/null 2>&1; then
	step govulncheck
	govulncheck ./...
else
	step "govulncheck (skipped: not installed)"
fi

step "go test"
go test -shuffle=on ./...

# One iteration of each benchmark a change is judged by (see the Makefile).
step "bench smoke (make bench-smoke: one iteration each)"
make bench-smoke

# CI's race job runs the whole module; here, the packages whose locking a
# cache, miner, scatter or compaction change moves, which is a minute or
# two instead of ten.
step "go test -race (lru, core, search, cycles, rpc, shard, live, root)"
go test -race ./internal/lru ./internal/core ./internal/search ./internal/cycles ./internal/rpc ./internal/shard ./internal/live .

step "fuzz (every target, 10 s each)"
make fuzz

# The smoke job's analysis step: qbench reproduces every table and
# figure, qgraph prints one query's G(q) and writes it as DOT.
step "analysis binaries (qbench -exp all, qgraph -dot)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/" ./cmd/qbench ./cmd/qgraph
"$tmp/qbench" -exp all -seed 5 > /dev/null
"$tmp/qgraph" -query 3 -dot "$tmp/g.dot"
grep -q '^digraph' "$tmp/g.dot"

# bench/ is a nested module root ./... skips; it imports internal/... by
# path, so a pruned symbol the harness uses has to fail here.
step "bench harness (nested module: vet + test)"
(cd bench && go vet . && go test .)

# Workloads on the quick world, the way the benchmark's driver invokes
# them: a harness that no longer builds, runs or agrees with the program
# fails here, before submission. expand-cold-client also runs the traced
# pass; serve-remote is the one that crosses the qshard wire.
preflight() {
	wl="$1"
	shift
	out="$(bash bench/run.sh -quick -workload "$wl" -seed 3 -seconds 1 "$@")"
	out="$(printf '%s\n' "$out" | tail -n 1)"
	case "$out" in
	*'"failed":0'[,}]*) ;;
	*) echo "bench pre-flight $wl: operations failed: $out" >&2; exit 1 ;;
	esac
	case "$out" in
	*'"correct":true'*) ;;
	*) echo "bench pre-flight $wl: results are not correct: $out" >&2; exit 1 ;;
	esac
}
step "bench pre-flight (quick world: expand-cold-client traced, serve-remote)"
preflight expand-cold-client -trace 1
preflight serve-remote

step "flake smoke (close/reload lifecycle, -count=2)"
go test -count=2 -shuffle=on -run '^(TestCloseLifecycle|TestPoolCloseExtras|TestRemoteClosedAccessors|TestPoolCloseDrainsInFlight|TestCloseConcurrentWithRequests|TestPoolReloadUnderLoad|TestPoolReloadSwitchesWorlds)$' .
go test -race -count=2 -run '^TestMixedTrafficOverHTTP$' ./cmd/qserve

echo "all checks passed"
