#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the Go
# toolchain writes (build cache, module cache, work directories, telemetry
# counters, binaries) stays under ROOT/.bench_build.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$build/bin" "$GOTMPDIR"
(cd "$root/bench" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" "$@"
