// Allocation regression tests are meaningless under the race detector —
// its instrumentation allocates on paths that are clean in normal builds.
//go:build !race

package search

import (
	"fmt"
	"testing"

	"github.com/querygraph/querygraph/internal/index"
)

// TestSearchTextSteadyStateAllocs pins the engine-level zero-allocation
// contract the qserve fast path builds on: with a warm leaves cache and a
// reused dst, SearchText allocates nothing — on the full walk and on the
// lazy-leaf path alike.
func TestSearchTextSteadyStateAllocs(t *testing.T) {
	small := buildEngine(t,
		"venice grand canal gondola",
		"venice carnival mask",
		"canal water transport venice",
	)
	lazy := buildEngine(t, lazyCorpus()...)
	assertLazyPath(t, lazy, "r7 near", 2)
	for _, tc := range []struct {
		e     *Engine
		query string
	}{{small, "venice canal"}, {lazy, "r7 near"}} {
		dst := make([]Result, 0, 16)
		if _, err := tc.e.SearchText(tc.query, 2, dst); err != nil { // warm
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			rs, err := tc.e.SearchText(tc.query, 2, dst)
			if err != nil || len(rs) == 0 {
				t.Fatal("unexpected result", rs, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("SearchText(%q) steady state allocates %v per op, want 0", tc.query, allocs)
		}
	}
}

// TestSearchSourcesSteadyStateAllocs pins the multi-source scorer's
// contract: two sources visited sequentially — a batch worker over two
// shards, or a base and its live delta — with a recycled dst allocate
// nothing once the pooled plans, leaf frequencies, local rankings and
// merge cursors have grown to the request's shape, whether the sources
// walk every list or read the common one lazily.
func TestSearchSourcesSteadyStateAllocs(t *testing.T) {
	small := splitSources(t, [][]string{
		{"venice", "grand", "canal", "gondola"},
		{"venice", "carnival", "mask"},
		{"canal", "water", "transport", "venice"},
	}, 1, 2, false, DefaultMu)
	docs := lazyCorpus()
	tokens := make([][]string, len(docs))
	for i, d := range docs {
		tokens[i] = plain.Analyze(d)
	}
	lazy := splitSources(t, tokens, 1, len(tokens)/2, false, DefaultMu)
	for _, src := range lazy.sources {
		assertLazyPath(t, src.Engine, "r7 near", 2)
	}
	for _, tc := range []struct {
		c     sourcesCase
		terms []string
	}{{small, []string{"venice", "canal"}}, {lazy, []string{"r7", "near"}}} {
		leaves := []Leaf{{Terms: tc.terms[:1], Weight: 0.5}, {Terms: tc.terms[1:], Weight: 0.5}}
		dst := make([]Result, 0, 16)
		if _, err := SearchSourcesLeaves(tc.c.sources, tc.c.total, leaves, 2, dst); err != nil { // warm
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			rs, err := SearchSourcesLeaves(tc.c.sources, tc.c.total, leaves, 2, dst)
			if err != nil || len(rs) != 2 {
				t.Fatal("unexpected result", rs, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("SearchSourcesLeaves(%v) steady state allocates %v per op, want 0", tc.terms, allocs)
		}
	}
}

// lazyCorpus is three blocks' worth of documents that all say "near" and
// one of fifty rare words each.
func lazyCorpus() []string {
	docs := make([]string, 3*index.BlockSize)
	for i := range docs {
		docs[i] = fmt.Sprintf("r%d near the r%d", i%50, (i+7)%50)
	}
	return docs
}

// assertLazyPath fails unless query's top k on e reads the lists lazily:
// fewer rows than they hold.
func assertLazyPath(t *testing.T, e *Engine, query string, k int) {
	t.Helper()
	leaves, err := e.LeavesForQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	p := e.PlanLeavesInto(nil, leaves)
	if _, err := e.SearchPlanInto(p, k, nil, nil); err != nil {
		t.Fatal(err)
	}
	listed := 0
	for _, postings := range p.postings {
		listed += len(postings)
	}
	if p.RowsRead() >= listed {
		t.Fatalf("%q: read %d rows of %d listed, want the lazy path", query, p.RowsRead(), listed)
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
