package search

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/querygraph/querygraph/internal/index"
)

// referenceSearch is the pre-accumulator scorer — per-leaf tf hash maps, a
// map candidate set and a full sort over every candidate — kept as the
// oracle the accumulator+heap scorer must agree with on docs, scores and
// tie-breaks.
func referenceSearch(e *Engine, q Node, k int) ([]Result, error) {
	leaves, err := flatten(q, 1, nil)
	if err != nil {
		return nil, err
	}
	if e.ix.NumDocs() == 0 || e.ix.TotalTokens() == 0 {
		return nil, nil
	}
	total := float64(e.ix.TotalTokens())

	type leafStats struct {
		weight float64
		pc     float64
		tf     map[int32]float64
	}
	stats := make([]leafStats, 0, len(leaves))
	candidates := make(map[int32]struct{})
	for _, lf := range leaves {
		var postings []index.Posting
		var cf int64
		if len(lf.Terms) == 1 {
			postings = e.ix.Postings(lf.Terms[0])
			cf = e.ix.CollectionFreq(lf.Terms[0])
		} else {
			postings = e.ix.PhrasePostings(lf.Terms)
			for _, p := range postings {
				cf += int64(p.TF)
			}
		}
		ls := leafStats{
			weight: lf.Weight,
			pc:     math.Max(float64(cf), unseenFloor) / total,
			tf:     make(map[int32]float64, len(postings)),
		}
		for _, p := range postings {
			ls.tf[p.Doc] = float64(p.TF)
			candidates[p.Doc] = struct{}{}
		}
		stats = append(stats, ls)
	}
	if len(candidates) == 0 {
		return nil, nil
	}

	results := make([]Result, 0, len(candidates))
	for doc := range candidates {
		dl, err := e.ix.DocLen(doc)
		if err != nil {
			return nil, err
		}
		score := 0.0
		for _, ls := range stats {
			tf := ls.tf[doc]
			score += ls.weight * math.Log((tf+e.mu*ls.pc)/(float64(dl)+e.mu))
		}
		results = append(results, Result{Doc: doc, Score: score})
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].Doc < results[j].Doc
	})
	if k > 0 && len(results) > k {
		results = results[:k]
	}
	return results, nil
}

// randomIndex builds a small index of random documents over a compact
// vocabulary, so terms collide across docs and phrases actually occur.
func randomIndex(rng *rand.Rand, numDocs, vocab, maxLen int) *index.Index {
	ix := index.New()
	for d := 0; d < numDocs; d++ {
		n := rng.Intn(maxLen + 1) // empty docs allowed
		tokens := make([]string, n)
		for i := range tokens {
			tokens[i] = fmt.Sprintf("t%d", rng.Intn(vocab))
		}
		ix.AddDocument(tokens)
	}
	return ix
}

// randomQuery assembles a random AST of terms, phrases, #combine and
// #weight nodes over the same vocabulary.
func randomQuery(rng *rand.Rand, vocab int) Node {
	term := func() string { return fmt.Sprintf("t%d", rng.Intn(vocab)) }
	leaf := func() Node {
		if rng.Intn(3) == 0 {
			n := 2 + rng.Intn(2)
			terms := make([]string, n)
			for i := range terms {
				terms[i] = term()
			}
			return Phrase{Terms: terms}
		}
		return Term{Text: term()}
	}
	n := 1 + rng.Intn(5)
	children := make([]Node, n)
	for i := range children {
		children[i] = leaf()
	}
	if rng.Intn(2) == 0 {
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 0.1 + rng.Float64()
		}
		return Weight{Children: children, Weights: weights}
	}
	return Combine{Children: children}
}

// TestSearchMatchesReference is the property test for the rewritten hot
// path: on randomized indexes and queries, the accumulator+heap scorer
// must return the same ranked documents in the same order, with the same
// tie-breaks and numerically equal scores, as the map+sort oracle, for
// every truncation depth.
func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		numDocs := 1 + rng.Intn(120)
		vocab := 2 + rng.Intn(25)
		ix := randomIndex(rng, numDocs, vocab, 30)
		e, err := NewEngine(ix, plain, WithMu(float64(1+rng.Intn(4000))))
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 8; qi++ {
			q := randomQuery(rng, vocab)
			for _, k := range []int{0, 1, 3, 10, numDocs + 5} {
				want, err := referenceSearch(e, q, k)
				if err != nil {
					t.Fatalf("trial %d query %v: reference: %v", trial, q, err)
				}
				got, err := e.Search(q, k)
				if err != nil {
					t.Fatalf("trial %d query %v: %v", trial, q, err)
				}
				if got == nil {
					t.Fatalf("trial %d query %v k=%d: nil results", trial, q, k)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d query %v k=%d: %d results, want %d",
						trial, q, k, len(got), len(want))
				}
				for i := range want {
					if got[i].Doc != want[i].Doc {
						t.Fatalf("trial %d query %v k=%d rank %d: doc %d, want %d\ngot  %+v\nwant %+v",
							trial, q, k, i, got[i].Doc, want[i].Doc, got, want)
					}
					if !approxEqual(got[i].Score, want[i].Score) {
						t.Fatalf("trial %d query %v k=%d rank %d: score %g, want %g",
							trial, q, k, i, got[i].Score, want[i].Score)
					}
				}
			}
		}
	}
}

// approxEqual compares scores up to the float reassociation the
// accumulator decomposition introduces.
func approxEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	return diff <= 1e-9 || diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// TestSearchScratchReuse exercises the pooled scratch across many
// searches on one engine, including concurrent use, so epoch marking and
// accumulator reuse are covered.
func TestSearchScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix := randomIndex(rng, 80, 12, 25)
	e, err := NewEngine(ix, plain)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]Node, 20)
	for i := range queries {
		queries[i] = randomQuery(rng, 12)
	}
	wants := make([][]Result, len(queries))
	for i, q := range queries {
		if wants[i], err = referenceSearch(e, q, 10); err != nil {
			t.Fatal(err)
		}
	}
	// Sequential reuse: every search reuses the same pooled scratch.
	for round := 0; round < 5; round++ {
		for i, q := range queries {
			got, err := e.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(wants[i]) {
				t.Fatalf("round %d query %d: %d results, want %d", round, i, len(got), len(wants[i]))
			}
			for j := range got {
				if got[j].Doc != wants[i][j].Doc {
					t.Fatalf("round %d query %d rank %d: doc %d, want %d",
						round, i, j, got[j].Doc, wants[i][j].Doc)
				}
			}
		}
	}
	// Concurrent use: distinct scratches, same answers.
	t.Run("concurrent", func(t *testing.T) {
		done := make(chan error, len(queries))
		for i, q := range queries {
			go func(i int, q Node) {
				got, err := e.Search(q, 10)
				if err != nil {
					done <- err
					return
				}
				for j := range got {
					if got[j].Doc != wants[i][j].Doc {
						done <- fmt.Errorf("query %d rank %d: doc %d, want %d",
							i, j, got[j].Doc, wants[i][j].Doc)
						return
					}
				}
				done <- nil
			}(i, q)
		}
		for range queries {
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
	})
}

// straightLogSearch scores a plan the way SearchPlanInto does — the same
// decomposition, each document's leaves folded in the same order — but
// takes every logarithm straight from math.Log and every length through
// DocLen, and sorts all candidates: what the table-driven scorer must equal
// bit for bit.
func straightLogSearch(t *testing.T, e *Engine, p *Plan, k int, stats *Stats) []Result {
	t.Helper()
	totalTokens, leafCF := e.ix.TotalTokens(), p.localCF
	if stats != nil {
		totalTokens, leafCF = stats.TotalTokens, stats.LeafCF
	}
	total := float64(totalTokens)
	var zeroSum, weightSum float64
	acc := make(map[int32]float64)
	for i, lf := range p.leaves {
		muPc := e.mu * math.Max(float64(leafCF[i]), unseenFloor) / total
		logMuPc := math.Log(muPc)
		zeroSum += lf.Weight * logMuPc
		weightSum += lf.Weight
		for _, post := range p.postings[i] {
			acc[post.Doc] += float64(lf.Weight * (math.Log(float64(post.TF)+muPc) - logMuPc))
		}
	}
	results := make([]Result, 0, len(acc))
	for doc, a := range acc {
		dl, err := e.ix.DocLen(doc)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, Result{Doc: doc, Score: zeroSum + a - weightSum*math.Log(float64(dl)+e.mu)})
	}
	sort.Slice(results, func(i, j int) bool { return worse(results[j], results[i]) })
	if k > 0 && len(results) > k {
		results = results[:k]
	}
	return results
}

// TestScoreTablesMatchStraightLog reaches every branch of the scorer's two
// logarithm tables and compares ids and scores with ==: term frequencies
// and document lengths on both sides of the table sizes; a smoothing
// parameter so small that |d| + µ rounds to 1, whose logarithm is the norm
// table's "not computed" value; #weight and phrase leaves; the engine's own
// statistics and statistics merged over three sources; and one pooled
// scratch carried across queries of different leaf counts and across
// sources (every engine here serves all its queries from one scratch).
func TestScoreTablesMatchStraightLog(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const vocab = 6
	docs := [][]string{{"t0"}, {"t1"}, {"t0"}} // |d| = 1
	for _, n := range []int{normTableSize - 1, normTableSize, 1500, 40, 64} {
		docs = append(docs, make([]string, n))
	}
	for len(docs) < 60 {
		docs = append(docs, make([]string, rng.Intn(30)))
	}
	maxTF := 0
	for _, tokens := range docs[3:] {
		tfs := make(map[string]int)
		for i := range tokens {
			tokens[i] = fmt.Sprintf("t%d", rng.Intn(vocab))
			tfs[tokens[i]]++
			maxTF = max(maxTF, tfs[tokens[i]])
		}
	}
	if maxTF < tfTableSize {
		t.Fatalf("corpus tops out at tf %d, below the table's %d", maxTF, tfTableSize)
	}
	for _, mu := range []float64{1e-20, 0.5, 1, DefaultMu} {
		if norm := math.Log(float64(len(docs[0])) + mu); (norm == 0) != (mu == 1e-20) {
			t.Fatalf("mu %g: a one-token document normalizes by %g", mu, norm)
		}
		for _, n := range []int{1, 3} {
			c := splitSources(t, docs, n, len(docs), false, mu)
			for qi := 0; qi < 40; qi++ {
				leaves, err := Flatten(randomQuery(rng, vocab))
				if err != nil {
					t.Fatal(err)
				}
				plans := make([]*Plan, n)
				stats := &Stats{TotalTokens: c.total, LeafCF: make([]int64, len(leaves))}
				for i, src := range c.sources {
					plans[i] = src.Engine.PlanLeavesInto(nil, leaves)
					for j := range leaves {
						stats.LeafCF[j] += plans[i].LocalCF(j)
					}
				}
				if n == 1 {
					stats = nil // the engine's own statistics
				}
				for i, src := range c.sources {
					for _, k := range []int{0, 1, 7} {
						got, err := src.Engine.SearchPlanInto(plans[i], k, stats, nil)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("mu %g source %d/%d k=%d leaves %v", mu, i, n, k, leaves)
						assertSameRanking(t, name, got, straightLogSearch(t, src.Engine, plans[i], k, stats))
					}
				}
			}
		}
	}
}
