GO ?= go

.PHONY: build test qlint lint check fmt fuzz bench-smoke bench-compare loc

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# qlint is the project-native analyzer suite (internal/lint): the
# serving-stack invariants, run over the whole module. Exits non-zero on
# any finding; needs no network and no installed tools.
qlint:
	$(GO) run ./cmd/qlint ./...

# lint = everything CI's lint job runs that works offline. staticcheck
# and govulncheck are added by scripts/check.sh when installed.
lint: qlint
	$(GO) vet ./...

fmt:
	gofmt -w .

# fuzz runs every fuzz target for 10 s. A failing input lands in the
# package's testdata/fuzz/ and then runs with plain go test. The decoder
# targets and the miner's two minimize for at most 1 s, or minimizing each
# coverage-expanding input (a minute apiece by default) would eat the ten
# seconds.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/search
	$(GO) test -run='^$$' -fuzz='^FuzzServerRequests$$' -fuzztime=10s ./cmd/qserve
	$(GO) test -run='^$$' -fuzz='^FuzzRead$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/store
	$(GO) test -run='^$$' -fuzz='^FuzzHandle$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/rpc
	$(GO) test -run='^$$' -fuzz='^FuzzReplies$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/rpc
	$(GO) test -run='^$$' -fuzz='^FuzzMinerWalk$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/cycles
	$(GO) test -run='^$$' -fuzz='^FuzzBallMiner$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/cycles

# bench-smoke runs one iteration of each benchmark a change is judged by,
# so none of them can rot: the postings walk, the Remote scatter, the batch
# layer, the expanded retrieval with its query writing, the cold expansion
# pipeline (both of its walks), its cycle miner, the largest view an
# expansion may ask for (BenchmarkMinerViewAtBound puts its memory and time
# on record), the HTTP batch endpoint and the compaction fold. CI and
# scripts/check.sh call it.
bench-smoke:
	$(GO) test -run '^$$' -bench '^Benchmark(SearchCommon|RemoteSearch|Batch|SearchExpansion|ExpandCold|ExpandColdFallback|CycleEnumeration|MinerViewAtBound)$$' -benchmem -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkHTTPBatch$$' -benchtime 1x ./cmd/qserve
	$(GO) test -run '^$$' -bench '^BenchmarkFold$$' -benchmem -benchtime 1x ./internal/shard

# check mirrors the CI gates locally (see scripts/check.sh).
check:
	./scripts/check.sh

# loc prints non-test code lines per package by the rule every ROADMAP
# figure uses (see scripts/loc.sh).
loc:
	./scripts/loc.sh

# bench-compare is the benchmark regression gate: BASE and the working
# tree measured on this host in two pairs, the second with the working
# tree first, each judged by BENCHMARK.json's bounds (see
# scripts/bench-compare.sh). make bench-compare BASE=origin/main
bench-compare:
	./scripts/bench-compare.sh $(BASE)
