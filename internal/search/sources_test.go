package search

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/querygraph/querygraph/internal/index"
)

// sourcesCase is one way of cutting a corpus into sources: n hash
// partitions of the first cut documents (DocMap) and, above them, the
// remaining documents as a delta segment (Offset).
type sourcesCase struct {
	sources []Source
	total   int64
}

// splitSources builds the sources of one table cell. identity leaves the
// lone partition of n == 1 without a doc map — the unsharded case the
// scorer short-circuits.
func splitSources(t *testing.T, docs [][]string, n, cut int, identity bool, mu float64) sourcesCase {
	t.Helper()
	engine := func(ix *index.Index) *Engine {
		e, err := NewEngine(ix, plain, WithMu(mu))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	parts := make([]*index.Index, n)
	maps := make([][]int32, n)
	for p := range parts {
		parts[p] = index.New()
	}
	for d, tokens := range docs[:cut] {
		p := (d * 2654435761) % n // deterministic pseudo-hash
		parts[p].AddDocument(tokens)
		maps[p] = append(maps[p], int32(d))
	}
	var c sourcesCase
	for p, ix := range parts {
		src := Source{Engine: engine(ix), DocMap: maps[p]}
		if identity {
			src.DocMap = nil
		}
		c.sources = append(c.sources, src)
		c.total += ix.TotalTokens()
	}
	if cut < len(docs) {
		delta := index.New()
		for _, tokens := range docs[cut:] {
			delta.AddDocument(tokens)
		}
		c.sources = append(c.sources, Source{Engine: engine(delta), Offset: int32(cut)})
		c.total += delta.TotalTokens()
	}
	return c
}

// TestSearchSourcesEquivalence is the one table for the one multi-source
// scorer: randomized corpora × N ∈ {1, 2, 3, 5} hash partitions × {no
// delta, delta with Offset} × {sequential, parallel} × truncation depths.
// Every cell must rank bit-identically — ids and float scores compared
// with == — to the single index holding every document, and that ranking
// must match the map-and-sort referenceSearch oracle (assertMatchesOracle:
// the oracle sums in a different order, so it can pin scores, and the
// order of last-bit ties, only approximately). The same cell is then recomputed by hand through the Plan
// API the RPC shards speak (PlanLeavesInto, summed Stats, SearchPlanInto,
// sort-merge), so the distributable halves stay pinned to the same answer.
func TestSearchSourcesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 24; trial++ {
		numDocs := 2 + rng.Intn(100)
		vocab := 2 + rng.Intn(20)
		mu := float64(1 + rng.Intn(4000))
		docs := make([][]string, numDocs)
		full := index.New()
		for d := range docs {
			docs[d] = make([]string, rng.Intn(25)) // empty docs allowed
			for i := range docs[d] {
				docs[d][i] = fmt.Sprintf("t%d", rng.Intn(vocab))
			}
			full.AddDocument(docs[d])
		}
		mono, err := NewEngine(full, plain, WithMu(mu))
		if err != nil {
			t.Fatal(err)
		}
		queries := make([]Node, 4)
		for i := range queries {
			queries[i] = randomQuery(rng, vocab)
		}
		for _, n := range []int{1, 2, 3, 5} {
			for _, withDelta := range []bool{false, true} {
				cut := numDocs
				if withDelta {
					cut = rng.Intn(numDocs) // delta holds 1..numDocs documents
				}
				c := splitSources(t, docs, n, cut, n == 1 && trial%2 == 0, mu)
				for _, q := range queries {
					leaves, err := Flatten(q)
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range []int{-1, 0, 1, 5, numDocs + 3} {
						name := fmt.Sprintf("trial %d n=%d delta=%v k=%d query %v", trial, n, withDelta, k, q)
						want, err := mono.SearchLeaves(leaves, k, nil)
						if err != nil {
							t.Fatal(err)
						}
						oracle, err := referenceSearch(mono, q, k)
						if err != nil {
							t.Fatal(err)
						}
						assertMatchesOracle(t, name, want, oracle, k <= 0)
						seq, err := SearchSourcesLeaves(c.sources, c.total, leaves, k, nil)
						if err != nil {
							t.Fatal(err)
						}
						assertSameRanking(t, name+" sequential", seq, want)
						// One helper leaves sources to claim in turn; more
						// helpers than sources is capped.
						for _, helpers := range []int{1, len(c.sources) + 1} {
							par, err := SearchSourcesLeavesParallel(c.sources, c.total, leaves, k, make([]Result, 0, 4), helpers)
							if err != nil {
								t.Fatal(err)
							}
							assertSameRanking(t, fmt.Sprintf("%s %d helpers", name, helpers), par, want)
						}
						assertSameRanking(t, name+" plan API", planAPISearch(t, c, leaves, k), want)
					}
				}
			}
		}
	}
}

// planAPISearch is the scatter written out through the exported Plan
// API, with a full sort in place of the ranked merge.
func planAPISearch(t *testing.T, c sourcesCase, leaves []Leaf, k int) []Result {
	t.Helper()
	plans := make([]*Plan, len(c.sources))
	leafCF := make([]int64, len(leaves))
	for i, src := range c.sources {
		plans[i] = src.Engine.PlanLeavesInto(nil, leaves)
		if plans[i].NumLeaves() != len(leaves) {
			t.Fatalf("plan holds %d leaves, want %d", plans[i].NumLeaves(), len(leaves))
		}
		for j := range leaves {
			leafCF[j] += plans[i].LocalCF(j)
		}
	}
	stats := &Stats{TotalTokens: c.total, LeafCF: leafCF}
	merged := []Result{}
	for i, src := range c.sources {
		local, err := src.Engine.SearchPlanInto(plans[i], k, stats, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range local {
			if src.DocMap != nil {
				r.Doc = src.DocMap[r.Doc]
			}
			merged = append(merged, Result{Doc: r.Doc + src.Offset, Score: r.Score})
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Score != merged[j].Score {
			return merged[i].Score > merged[j].Score
		}
		return merged[i].Doc < merged[j].Doc
	})
	if k > 0 && len(merged) > k {
		merged = merged[:k]
	}
	return merged
}

// assertMatchesOracle compares a ranking with the oracle's up to the
// oracle's different summation order: rank by rank the scores agree
// approximately, and a full ranking (no truncation boundary for a
// last-bit tie to straddle) holds exactly the oracle's documents, each at
// approximately the oracle's score.
func assertMatchesOracle(t *testing.T, name string, got, oracle []Result, full bool) {
	t.Helper()
	if len(got) != len(oracle) {
		t.Fatalf("%s: %d results, oracle ranks %d", name, len(got), len(oracle))
	}
	byDoc := make(map[int32]float64, len(oracle))
	for i, r := range oracle {
		byDoc[r.Doc] = r.Score
		if !approxEqual(got[i].Score, r.Score) {
			t.Fatalf("%s rank %d: score %v, oracle %v", name, i, got[i].Score, r.Score)
		}
	}
	for _, r := range got {
		if score, ok := byDoc[r.Doc]; full && (!ok || !approxEqual(r.Score, score)) {
			t.Fatalf("%s: doc %d at %v, oracle has it %v at %v", name, r.Doc, r.Score, ok, score)
		}
	}
}

func assertSameRanking(t *testing.T, name string, got, want []Result) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil ranking", name)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\ngot  %v\nwant %v", name, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: (%d, %v), want (%d, %v)", name, i, got[i].Doc, got[i].Score, want[i].Doc, want[i].Score)
		}
	}
}

// TestSearchSourcesEmpty pins the empty contracts on both forms: a
// no-match query returns an empty non-nil slice (dst's storage when one
// was supplied), and zero sources is an error.
func TestSearchSourcesEmpty(t *testing.T) {
	c := splitSources(t, [][]string{{"motif"}, {"graph"}, {}}, 2, 2, false, DefaultMu)
	leaves := []Leaf{{Terms: []string{"absentterm"}, Weight: 1}}
	for name, fn := range map[string]func([]Source, int64, []Leaf, int, []Result) ([]Result, error){
		"sequential": SearchSourcesLeaves,
		"parallel": func(sources []Source, total int64, leaves []Leaf, k int, dst []Result) ([]Result, error) {
			return SearchSourcesLeavesParallel(sources, total, leaves, k, dst, 1)
		},
	} {
		for _, dst := range [][]Result{nil, make([]Result, 3, 8)} {
			rs, err := fn(c.sources, c.total, leaves, 5, dst)
			if err != nil {
				t.Fatal(err)
			}
			if rs == nil || len(rs) != 0 {
				t.Fatalf("%s no-match ranking: want empty non-nil, got %#v", name, rs)
			}
		}
		if _, err := fn(nil, 0, leaves, 5, nil); err == nil {
			t.Fatalf("%s zero sources: want error", name)
		}
	}
}

// TestSearchSourcesPanicReachesCaller scores many sources whose Engine is
// nil, so the plan phase panics on whichever participant claims one —
// helpers included. The panic must come out once, on the calling
// goroutine, after every helper has finished (-race sees a helper that
// still writes into the released scatter), and the pooled scatter must
// serve the next search as if nothing had happened.
func TestSearchSourcesPanicReachesCaller(t *testing.T) {
	good := splitSources(t, [][]string{{"motif", "graph"}, {"graph"}, {"motif"}}, 2, 3, false, DefaultMu)
	leaves := []Leaf{{Terms: []string{"motif"}, Weight: 1}}
	want, err := SearchSourcesLeaves(good.sources, good.total, leaves, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	broken := make([]Source, 16)
	for _, helpers := range []int{1, 3, len(broken)} {
		for round := 0; round < 20; round++ {
			func() {
				defer func() {
					p := recover()
					if err, ok := p.(error); !ok || !strings.Contains(err.Error(), "scatter phase panicked") {
						t.Fatalf("%d helpers: recovered %v, want the scatter's panic", helpers, p)
					}
				}()
				SearchSourcesLeavesParallel(broken, 1, leaves, 5, nil, helpers)
			}()
			got, err := SearchSourcesLeavesParallel(good.sources, good.total, leaves, 5, nil, helpers)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRanking(t, fmt.Sprintf("%d helpers after a panic", helpers), got, want)
		}
	}
}
