package search

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/querygraph/querygraph/internal/index"
)

// lazyDocs generates n documents in the shape the lazy leaf is for: a
// term "c" in nearly every document (tf mostly 1), three mid-frequency
// terms, forty rare ones and filler, lengths 1–60, and every tenth
// document a verbatim copy of an earlier one, so that scores tie.
func lazyDocs(rng *rand.Rand, n int) [][]string {
	docs := make([][]string, n)
	for d := range docs {
		if d > 0 && rng.Intn(10) == 0 {
			docs[d] = docs[rng.Intn(d)]
			continue
		}
		var toks []string
		if rng.Intn(30) != 0 {
			for tf := 1 + rng.Intn(4)*rng.Intn(2); tf > 0; tf-- {
				toks = append(toks, "c")
			}
		}
		for m := 0; m < 3; m++ {
			if rng.Intn(10) < 3 {
				toks = append(toks, fmt.Sprintf("m%d", m))
			}
		}
		for r := rng.Intn(3); r > 0; r-- {
			toks = append(toks, fmt.Sprintf("r%d", rng.Intn(40)))
		}
		for ln := 1 + rng.Intn(60); len(toks) < ln; {
			toks = append(toks, fmt.Sprintf("f%d", rng.Intn(100)))
		}
		rng.Shuffle(len(toks), func(i, j int) { toks[i], toks[j] = toks[j], toks[i] })
		docs[d] = toks
	}
	return docs
}

// lazyQuery draws a query over lazyDocs' vocabulary: rare titles beside
// "c" (#combine, or #weight with now and then a zero weight), "c" alone,
// and the shapes that must stay on the full walk — "c" twice, two
// frequent terms, a phrase.
func lazyQuery(rng *rand.Rand) Node {
	rare := func() Node { return Term{Text: fmt.Sprintf("r%d", rng.Intn(40))} }
	c := Term{Text: "c"}
	switch rng.Intn(8) {
	case 0:
		return c
	case 1:
		return Combine{Children: []Node{c, rare(), c}}
	case 2:
		return Combine{Children: []Node{rare(), c, Term{Text: fmt.Sprintf("m%d", rng.Intn(3))}}}
	case 3:
		return Combine{Children: []Node{Phrase{Terms: []string{"c", fmt.Sprintf("f%d", rng.Intn(100))}}, c}}
	}
	children := []Node{c}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		children = append(children, rare())
	}
	rng.Shuffle(len(children), func(i, j int) { children[i], children[j] = children[j], children[i] })
	if rng.Intn(2) == 0 {
		return Combine{Children: children}
	}
	weights := make([]float64, len(children))
	for i := range weights {
		weights[i] = 0.1 + rng.Float64()
	}
	if rng.Intn(3) == 0 {
		weights[rng.Intn(len(weights))] = 0
	}
	return Weight{Children: children, Weights: weights}
}

// candidates counts the documents of a plan's leaves other than lazy.
func candidates(p *Plan, lazy int) int {
	docs := make(map[int32]bool)
	for i, postings := range p.postings {
		for _, post := range postings {
			if i != lazy {
				docs[post.Doc] = true
			}
		}
	}
	return len(docs)
}

// TestLazyLeafMatchesStraightLog holds the lazy-leaf scorer to the
// straight-math.Log oracle with ==, on corpora whose common term spans
// three or more blocks in every source: one engine under its own
// statistics, and three hash partitions plus a delta (Offset) source
// under merged statistics. Truncation depths straddle each source's
// candidate count |C| (|C|−1, |C|, |C|+1: the tail is or is not needed)
// besides k ≤ 0. It also counts what the cases exercised, so a scorer
// that stopped taking the lazy path, or its tail, fails here too.
func TestLazyLeafMatchesStraightLog(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var lazy, tails, skips, full int
	for trial := 0; trial < 6; trial++ {
		docs := lazyDocs(rng, 1200+rng.Intn(400))
		mu := []float64{DefaultMu, 50, 1 + float64(rng.Intn(4000))}[trial%3]
		cut := len(docs) * 3 / 4
		for _, c := range []sourcesCase{
			splitSources(t, docs, 1, len(docs), true, mu),
			splitSources(t, docs, 3, cut, false, mu),
		} {
			for _, src := range c.sources {
				if _, blocks, _ := src.Engine.Index().LookupBlocks("c"); len(blocks) < 3 {
					t.Fatalf("trial %d: a source's common list spans %d blocks, want ≥ 3", trial, len(blocks))
				}
			}
			for qi := 0; qi < 25; qi++ {
				q := lazyQuery(rng)
				leaves, err := Flatten(q)
				if err != nil {
					t.Fatal(err)
				}
				plans := make([]*Plan, len(c.sources))
				stats := &Stats{TotalTokens: c.total, LeafCF: make([]int64, len(leaves))}
				for i, src := range c.sources {
					plans[i] = src.Engine.PlanLeavesInto(nil, leaves)
					for j := range leaves {
						stats.LeafCF[j] += plans[i].LocalCF(j)
					}
				}
				if len(c.sources) == 1 {
					stats = nil
				}
				for i, src := range c.sources {
					p := plans[i]
					listed := 0
					for _, postings := range p.postings {
						listed += len(postings)
					}
					cand := candidates(p, p.lazyLeaf(1))
					for _, k := range []int{cand - 1, cand, cand + 1, 0, -1, 1, 15} {
						got, err := src.Engine.SearchPlanInto(p, k, stats, nil)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("trial %d mu %g source %d/%d k=%d |C|=%d query %v", trial, mu, i, len(c.sources), k, cand, q)
						assertSameRanking(t, name, got, straightLogSearch(t, src.Engine, p, k, stats))
						switch rows := p.RowsRead(); {
						case rows == listed:
							full++
						case k > cand:
							tails++
							if rows < listed {
								skips++
							}
							lazy++
						default:
							lazy++
						}
					}
				}
			}
		}
	}
	t.Logf("lazy %d (tail %d, of which read less than the lists %d), full walk %d", lazy, tails, skips, full)
	if lazy < 200 || tails < 50 || skips < 20 || full < 200 {
		t.Fatalf("cases exercised: lazy %d, tail %d, tail reading less %d, full walk %d", lazy, tails, skips, full)
	}
}

// TestLazyLeafStaysOffCostlierShapes pins "no slower class": a query
// whose other leaves hold as many postings as the lazy list — the common
// term twice, or two frequent terms — and k <= 0 take the full walk.
func TestLazyLeafStaysOffCostlierShapes(t *testing.T) {
	ix := index.New()
	for d := 0; d < 3*index.BlockSize; d++ {
		ix.AddDocument([]string{"c", "m", fmt.Sprintf("r%d", d%50)})
	}
	e, err := NewEngine(ix, plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query string
		k     int
		lazy  bool
	}{
		{"r7 c", 10, true},
		{"c", 10, true},
		{"c r7 c", 10, false},
		{"m r7 c", 10, false},
		{"r7 c", 0, false},
		{"#1(r7 c) c", 10, true},
	} {
		leaves, err := e.LeavesForQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		p := e.PlanLeavesInto(nil, leaves)
		if got := p.lazyLeaf(tc.k) >= 0; got != tc.lazy {
			t.Errorf("%q k=%d: lazy leaf chosen %v, want %v", tc.query, tc.k, got, tc.lazy)
		}
	}
}
