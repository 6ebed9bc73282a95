package querygraph

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"
)

// goldenMetricsScript is the scripted observer traffic behind the
// /v1/metrics golden (testdata/metrics_golden.prom): every Op, every
// error class, every cache outcome, first tries, retries, hedges and
// a deadline hit, with fixed durations so the rendering is byte-stable.
var goldenMetricsScript = []Event{
	{Op: OpSearch, Duration: 30 * time.Microsecond, K: 10, Shards: 1},
	{Op: OpSearch, Duration: 450 * time.Microsecond, K: 15, Shards: 4, Expanded: true},
	{Op: OpSearch, Duration: 40 * time.Millisecond, K: 5, Shards: 2, Err: "partial_result"},
	{Op: OpSearch, Duration: 2 * time.Microsecond, K: 5, Shards: 1, Err: "invalid_query"},
	{Op: OpSearch, Duration: 900 * time.Nanosecond, Err: "closed"},
	{Op: OpSearch, Duration: 3 * time.Second, K: 5, Shards: 2, Err: "timeout"},
	{Op: OpSearch, Duration: 7 * time.Millisecond, K: 5, Shards: 2, Err: "shard_unavailable"},
	{Op: OpSearch, Duration: time.Microsecond, K: 5, Shards: 1, Err: "no_such_class"}, // unknown labels count as internal

	{Op: OpExpand, Duration: 6 * time.Millisecond, Cache: CacheMiss, Size: 10, Shards: 1},
	{Op: OpExpand, Duration: 400 * time.Nanosecond, Cache: CacheHit, Size: 10, Shards: 1},
	{Op: OpExpand, Duration: 350 * time.Nanosecond, Cache: CacheHit, Size: 4, Shards: 4},
	{Op: OpExpand, Duration: 5 * time.Millisecond, Cache: CacheMiss + 1, Size: 10, Shards: 1}, // an outcome this build does not know (an older shard's byte): a request, no cache outcome
	{Op: OpExpand, Duration: 8 * time.Millisecond, Cache: CacheBypass, Size: 7, Shards: 1},
	{Op: OpExpand, Duration: time.Microsecond, Shards: 1, Err: "invalid_options"}, // failures never count as a cache outcome
	{Op: OpExpand, Duration: 12 * time.Millisecond, Cache: CacheMiss, Shards: 1, Err: "canceled"},
	{Op: OpExpand, Duration: 20 * time.Millisecond, Shards: 2, Err: "internal"},

	{Op: OpBatch, Kind: "search", Duration: 2 * time.Millisecond, Size: 50, K: 15, Shards: 4},
	{Op: OpBatch, Kind: BatchExpand, Duration: 90 * time.Millisecond, Size: 8, Shards: 1},
	{Op: OpBatch, Kind: "search_expansions", Duration: 5 * time.Millisecond, Size: 8, K: 15, Shards: 2, Err: "partial_result"},
	{Op: OpBatch, Kind: "search", Duration: 10 * time.Microsecond, Size: 3, K: 5, Shards: 1, Err: "invalid_query"},
	{Op: OpBatch, Kind: BatchExpand, Duration: 30 * time.Millisecond, Size: 100, Shards: 1, Err: "canceled"},

	{Op: OpReload, Duration: 15 * time.Millisecond, Generation: 2, Shards: 4},
	{Op: OpReload, Duration: 300 * time.Microsecond, Generation: 2, Shards: 4, Err: "bad_manifest"},
	{Op: OpReload, Duration: 200 * time.Microsecond, Generation: 2, Shards: 4, Err: "bad_snapshot"},
	{Op: OpReload, Duration: 100 * time.Nanosecond, Err: "closed"},

	{Op: OpIngest, Duration: 800 * time.Microsecond, Size: 64, DeltaDocs: 64, Shards: 4},
	{Op: OpIngest, Duration: 700 * time.Microsecond, Size: 36, DeltaDocs: 100, Shards: 4},
	{Op: OpIngest, Duration: 5 * time.Microsecond, Size: 1000, DeltaDocs: 100, Shards: 4, Err: "delta_full"},
	{Op: OpIngest, Duration: 4 * time.Microsecond, Size: 2, DeltaDocs: 100, Shards: 4, Err: "invalid_options"},
	{Op: OpIngest, Duration: 300 * time.Nanosecond, Size: 1, Shards: 2, Err: "read_only"},
	{Op: OpIngest, Duration: 600 * time.Microsecond, Size: 5, DeltaDocs: 105, Shards: 4},

	{Op: OpCompact, Duration: 120 * time.Millisecond, Size: 105, Generation: 3, Shards: 4},
	{Op: OpCompact, Duration: 2 * time.Microsecond, Generation: 3, Shards: 4}, // empty delta: successful no-op
	{Op: OpCompact, Duration: 9 * time.Millisecond, Generation: 3, Shards: 4, Err: "bad_manifest"},
	{Op: OpCompact, Duration: 250 * time.Nanosecond, Shards: 2, Err: "read_only"},
	{Op: OpIngest, Duration: 500 * time.Microsecond, Size: 7, DeltaDocs: 7, Shards: 4},

	{Op: OpRPC, Kind: "healthz", Duration: 180 * time.Microsecond, Shard: 0, Addr: "127.0.0.1:9000"},
	{Op: OpRPC, Kind: "healthz", Duration: 170 * time.Microsecond, Shard: 1, Addr: "127.0.0.1:9001"},
	{Op: OpRPC, Kind: "queries", Duration: 900 * time.Microsecond, Shard: 0, Addr: "127.0.0.1:9000"},
	{Op: OpRPC, Kind: "plan", Duration: 95 * time.Microsecond, Shard: 0, Addr: "127.0.0.1:9000"},
	{Op: OpRPC, Kind: "plan", Duration: 2 * time.Second, Shard: 1, Addr: "127.0.0.1:9001", DeadlineHit: true, Err: "timeout"},
	{Op: OpRPC, Kind: "plan", Duration: 110 * time.Microsecond, Shard: 1, Addr: "127.0.0.1:9101", Attempt: 1},
	{Op: OpRPC, Kind: "topk", Duration: 210 * time.Microsecond, Shard: 0, Addr: "127.0.0.1:9000"},
	{Op: OpRPC, Kind: "topk", Duration: 60 * time.Millisecond, Shard: 1, Addr: "127.0.0.1:9001"},
	{Op: OpRPC, Kind: "topk", Duration: 240 * time.Microsecond, Shard: 1, Addr: "127.0.0.1:9101", Hedged: true},
	{Op: OpRPC, Kind: "topk", Duration: 50 * time.Microsecond, Shard: 1, Addr: "127.0.0.1:9001", Attempt: 1, Err: "internal"},
	{Op: OpRPC, Kind: "topk", Duration: 55 * time.Microsecond, Shard: 1, Addr: "127.0.0.1:9101", Attempt: 2, Err: "closed"},
	{Op: OpRPC, Kind: "expand", Duration: 6500 * time.Microsecond, Shard: 0, Addr: "127.0.0.1:9000"},
	{Op: OpRPC, Kind: "expand", Duration: 40 * time.Microsecond, Shard: 0, Addr: "127.0.0.1:9000", Err: "invalid_options"},
	{Op: OpRPC, Kind: "stats", Duration: 130 * time.Microsecond, Shard: 0, Addr: "127.0.0.1:9000"},
	{Op: OpRPC, Kind: "link", Duration: 75 * time.Microsecond, Shard: 0, Addr: "127.0.0.1:9000", Err: "canceled"},
	{Op: OpRPC, Kind: "title", Duration: 45 * time.Microsecond, Shard: 0, Addr: "127.0.0.1:9000"},
	{Op: OpRPC, Kind: "no_such_op", Duration: 10 * time.Microsecond, Shard: 0, Addr: "127.0.0.1:9000"}, // unknown ops count as healthz

	{Op: OpBatch, Kind: "search", Duration: time.Microsecond, Size: 2, K: 5, Err: "bad_topology"},
	{Op: OpSearch, Duration: time.Microsecond, K: 5, Err: "no_benchmark"},
}

// TestMetricsGolden pins /v1/metrics byte for byte: the scripted traffic
// above, and the untouched zero value, must render exactly what the
// seven-hook MetricsObserver this one replaced rendered for the same
// traffic (the testdata files were captured from it). A dashboard or alert
// built on the exposition must not notice the rewrite.
func TestMetricsGolden(t *testing.T) {
	m := NewMetricsObserver()
	for _, e := range goldenMetricsScript {
		m.Observe(e)
	}
	m.Observe(Event{Op: numOps}) // an undeclared Op is dropped, not counted
	for file, obs := range map[string]*MetricsObserver{
		"testdata/metrics_golden.prom": m,
		"testdata/metrics_empty.prom":  NewMetricsObserver(),
	} {
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := obs.WritePrometheus(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("WritePrometheus differs from %s:\n%s", file, got.Bytes())
		}
	}
}

// TestUnknownCacheOutcomeDropped: Event.Cache of a Remote's expansion is a
// byte a shard sent, and it indexes the observer's counters. One past the
// last outcome this build knows — 3 from a shard not yet upgraded, 255
// from a hostile one — counts as a request and as no cache outcome.
func TestUnknownCacheOutcomeDropped(t *testing.T) {
	for _, outcome := range []CacheOutcome{CacheMiss + 1, 255} {
		m := NewMetricsObserver()
		m.Observe(Event{Op: OpExpand, Cache: outcome})
		if s := m.Snapshot(); s.Expands != 1 || s.Cache != [CacheMiss + 1]uint64{} {
			t.Errorf("outcome %d: %d expands, cache outcomes %v; want 1 and none counted", outcome, s.Expands, s.Cache)
		}
		if got := outcome.String(); got != "bypass" {
			t.Errorf("CacheOutcome(%d).String() = %q, want the bypass label", outcome, got)
		}
	}
}

// failAfter fails every write once n bytes have been accepted.
type failAfter struct{ n int }

var errSink = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, errSink
	}
	return len(p), nil
}

// TestWritePrometheusReportsWriteError pins the sticky-error writer: a
// failure anywhere in the exposition surfaces as WritePrometheus's error.
func TestWritePrometheusReportsWriteError(t *testing.T) {
	for _, n := range []int{0, 100, 5000} {
		if err := NewMetricsObserver().WritePrometheus(&failAfter{n: n}); !errors.Is(err, errSink) {
			t.Errorf("writer failing after %d bytes: err = %v, want the writer's error", n, err)
		}
	}
}
