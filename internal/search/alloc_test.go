// Allocation regression tests are meaningless under the race detector —
// its instrumentation allocates on paths that are clean in normal builds.
//go:build !race

package search

import "testing"

// TestSearchTextSteadyStateAllocs pins the engine-level zero-allocation
// contract the qserve fast path builds on: with a warm leaves cache and a
// reused dst, SearchText allocates nothing.
func TestSearchTextSteadyStateAllocs(t *testing.T) {
	e := buildEngine(t,
		"venice grand canal gondola",
		"venice carnival mask",
		"canal water transport venice",
	)
	dst := make([]Result, 0, 16)
	if _, err := e.SearchText("venice canal", 2, dst); err != nil { // warm
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		rs, err := e.SearchText("venice canal", 2, dst)
		if err != nil || len(rs) == 0 {
			t.Fatal("unexpected result", rs, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SearchText steady state allocates %v per op, want 0", allocs)
	}
}

// TestSearchSourcesSteadyStateAllocs pins the multi-source scorer's
// contract: two sources visited sequentially — a batch worker over two
// shards, or a base and its live delta — with a recycled dst allocate
// nothing once the pooled plans, leaf frequencies, local rankings and
// merge cursors have grown to the request's shape.
func TestSearchSourcesSteadyStateAllocs(t *testing.T) {
	c := splitSources(t, [][]string{
		{"venice", "grand", "canal", "gondola"},
		{"venice", "carnival", "mask"},
		{"canal", "water", "transport", "venice"},
	}, 1, 2, false, DefaultMu)
	leaves := []Leaf{{Terms: []string{"venice"}, Weight: 0.5}, {Terms: []string{"canal"}, Weight: 0.5}}
	dst := make([]Result, 0, 16)
	if _, err := SearchSourcesLeaves(c.sources, c.total, leaves, 2, dst); err != nil { // warm
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		rs, err := SearchSourcesLeaves(c.sources, c.total, leaves, 2, dst)
		if err != nil || len(rs) != 2 {
			t.Fatal("unexpected result", rs, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SearchSourcesLeaves steady state allocates %v per op, want 0", allocs)
	}
}

// TestPhrasePlanSteadyStateAllocs pins what planning a phrase leaf costs:
// with a recycled Plan, the matching documents' result list and nothing
// else — the surviving start positions of each document live in the plan's
// phrase scratch, however many documents match and however often.
func TestPhrasePlanSteadyStateAllocs(t *testing.T) {
	docs := make([]string, 50)
	for i := range docs {
		docs[i] = "grand canal venice grand canal venice grand canal"
	}
	e := buildEngine(t, docs...)
	leaves := []Leaf{{Terms: []string{"grand", "canal", "venice"}, Weight: 1}}
	plan := e.PlanLeavesInto(nil, leaves) // warm
	allocs := testing.AllocsPerRun(200, func() {
		plan = e.PlanLeavesInto(plan, leaves)
		if plan.LocalCF(0) != 100 {
			t.Fatal("unexpected phrase frequency", plan.LocalCF(0))
		}
	})
	if allocs != 1 {
		t.Fatalf("planning a phrase leaf allocates %v per op, want 1 (its result list)", allocs)
	}
}
