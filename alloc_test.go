// Allocation regression tests are meaningless under the race detector —
// its instrumentation allocates on paths that are clean in normal builds.
//go:build !race

package querygraph

import (
	"context"
	"strings"
	"testing"
)

// TestSearchIntoSteadyStateAllocs pins Backend.SearchInto's contract on
// the one local runtime: with the query's leaves in the plan cache and a
// recycled dst, a Client — the N=1 short-circuit — allocates nothing, and
// a 2-shard Pool pays exactly its concurrent fan-out (one goroutine per
// extra shard in each of the plan and score phases), whatever k and
// however long the query. The ranking lands in dst's storage either way.
func TestSearchIntoSteadyStateAllocs(t *testing.T) {
	ctx := context.Background()
	client := poolTestWorld(t, 0)
	defer client.Close()
	pool, _ := shardedPool(t, client, 2)
	defer pool.Close()

	words := strings.Fields(client.Queries()[0].Keywords + " " + client.Queries()[1].Keywords)
	short, long := words[0], strings.Join(words, " ")
	for _, tc := range []struct {
		name string
		be   Backend
		want float64
	}{{"client", client, 0}, {"pool-2", pool, 2}} {
		for _, query := range []string{short, long} {
			for _, k := range []int{1, 5, 0} {
				dst := make([]Result, 0, 512)
				if _, err := tc.be.SearchInto(ctx, query, k, dst); err != nil { // warm the plan cache and the pools
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(200, func() {
					rs, err := tc.be.SearchInto(ctx, query, k, dst)
					if err != nil || len(rs) == 0 || &rs[0] != &dst[:1][0] {
						t.Fatalf("%s %q k=%d: ranking not scored into dst (%d results, err %v)", tc.name, query, k, len(rs), err)
					}
				})
				if allocs > tc.want {
					t.Errorf("%s SearchInto(%q, k=%d) allocates %v per op at steady state, want <= %v", tc.name, query, k, allocs, tc.want)
				}
			}
		}
	}
}

// TestColdExpandAllocBudget pins the cold expansion pipeline where a busy
// host cannot blur it: in allocations. On the default world, with the
// expansion cache off, an Expand averages ~500 allocations (26 KB) now that
// cycles are measured and filtered as the walk closes them, into pooled
// scratch, with no per-cycle record of the rejected ones; it was ~550
// (361 KB) with the bounded ball and the seed-anchored miner alone, and
// 12 600 for the whole-graph BFS and enumerate-everything-then-filter
// before them. What is left is linking, the ball and Induce; the ceiling
// is twice the measured value.
func TestColdExpandAllocBudget(t *testing.T) {
	cfg := DefaultWorldConfig()
	cfg.Queries = 30
	w, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(w, WithExpandCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, qs := context.Background(), c.Queries()
	perRun := testing.AllocsPerRun(5, func() {
		for _, q := range qs {
			if _, err := c.Expand(ctx, q.Keywords); err != nil {
				t.Fatal(err)
			}
		}
	})
	const ceiling = 1000
	if got := perRun / float64(len(qs)); got > ceiling {
		t.Errorf("a cold Expand allocates %.0f times on average, budget %d", got, ceiling)
	} else {
		t.Logf("cold Expand: %.0f allocations on average (budget %d)", got, ceiling)
	}
}

// TestPoolSummaryAllocatesNoShardRows pins what a health probe costs a
// pool: Summary — all /v1/healthz reads — allocates what Stats allocates,
// building no per-shard row it would not return, while PoolStats pays for
// the rows it does return.
func TestPoolSummaryAllocatesNoShardRows(t *testing.T) {
	client := poolTestWorld(t, 0)
	defer client.Close()
	pool, _ := shardedPool(t, client, 4)
	defer pool.Close()
	stats := testing.AllocsPerRun(100, func() { pool.Stats() })
	summary := testing.AllocsPerRun(100, func() {
		if st, shards := pool.Summary(); shards != 4 || st.Documents == 0 || st.Delta.Generation != pool.Generation() {
			t.Fatalf("Summary() = %+v, %d shards", st, shards)
		}
	})
	rows := testing.AllocsPerRun(100, func() { pool.PoolStats() })
	if summary != stats || rows <= summary {
		t.Fatalf("allocations per call: Summary %v, Stats %v, PoolStats %v; want Summary == Stats < PoolStats", summary, stats, rows)
	}
}
