package index

import (
	"math/rand"
	"reflect"
	"testing"
)

// tokenDocs generates n synthetic token streams over a small vocabulary,
// with repeats (positional lists longer than 1) and the occasional empty
// document.
func tokenDocs(rng *rand.Rand, n int) [][]string {
	vocab := []string{"motif", "graph", "query", "expansion", "cycle", "hub", "wiki", "node"}
	docs := make([][]string, n)
	for i := range docs {
		ln := rng.Intn(12)
		toks := make([]string, 0, ln)
		for j := 0; j < ln; j++ {
			toks = append(toks, vocab[rng.Intn(len(vocab))])
		}
		docs[i] = toks
	}
	return docs
}

func buildIndex(docs [][]string) *Index {
	ix := New()
	for _, d := range docs {
		ix.AddDocument(d)
	}
	return ix
}

// TestMergeEquivalence pins the compaction contract: Merge(base, delta)
// is indistinguishable from replaying every document into one index.
func TestMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		baseDocs := tokenDocs(rng, 1+rng.Intn(20))
		deltaDocs := tokenDocs(rng, rng.Intn(15))
		mono := buildIndex(append(append([][]string{}, baseDocs...), deltaDocs...))
		merged := Merge(buildIndex(baseDocs), buildIndex(deltaDocs))
		assertSameIndex(t, mono, merged)
	}
}

// TestMergeEmptyDelta checks the degenerate folds: nothing ingested, and
// an empty base (a delta-only world).
func TestMergeEmptyDelta(t *testing.T) {
	docs := [][]string{{"motif", "graph"}, {"query"}}
	mono := buildIndex(docs)
	assertSameIndex(t, mono, Merge(buildIndex(docs), New()))
	assertSameIndex(t, mono, Merge(New(), buildIndex(docs)))
}

// TestMergeLeavesInputsIntact guards the aliasing discipline: merging
// must not mutate either input's postings or statistics.
func TestMergeLeavesInputsIntact(t *testing.T) {
	baseDocs := [][]string{{"motif", "graph", "motif"}, {"graph"}}
	deltaDocs := [][]string{{"motif", "hub"}}
	base, delta := buildIndex(baseDocs), buildIndex(deltaDocs)
	_ = Merge(base, delta)
	assertSameIndex(t, buildIndex(baseDocs), base)
	assertSameIndex(t, buildIndex(deltaDocs), delta)
}

func assertSameIndex(t *testing.T, want, got *Index) {
	t.Helper()
	if want.NumDocs() != got.NumDocs() {
		t.Fatalf("NumDocs: want %d, got %d", want.NumDocs(), got.NumDocs())
	}
	if want.TotalTokens() != got.TotalTokens() {
		t.Fatalf("TotalTokens: want %d, got %d", want.TotalTokens(), got.TotalTokens())
	}
	for doc := int32(0); int(doc) < want.NumDocs(); doc++ {
		wl, _ := want.DocLen(doc)
		gl, err := got.DocLen(doc)
		if err != nil || wl != gl {
			t.Fatalf("DocLen(%d): want %d, got %d (err %v)", doc, wl, gl, err)
		}
	}
	wantTerms, gotTerms := want.Terms(), got.Terms()
	if !reflect.DeepEqual(wantTerms, gotTerms) {
		t.Fatalf("vocabulary: want %v, got %v", wantTerms, gotTerms)
	}
	for _, term := range wantTerms {
		wp, wcf := want.Lookup(term)
		gp, gcf := got.Lookup(term)
		if wcf != gcf {
			t.Fatalf("CollectionFreq(%q): want %d, got %d", term, wcf, gcf)
		}
		if !reflect.DeepEqual(wp, gp) {
			t.Fatalf("Postings(%q): want %v, got %v", term, wp, gp)
		}
		if ws, gs := want.Positions(term), got.Positions(term); !reflect.DeepEqual(ws, gs) {
			t.Fatalf("Positions(%q): want %v, got %v", term, ws, gs)
		}
	}
	// Phrase evaluation exercises the positional structure end to end.
	for _, phrase := range [][]string{{"motif", "graph"}, {"graph", "query"}, {"cycle", "hub", "wiki"}} {
		wp, gp := want.PhrasePostings(phrase), got.PhrasePostings(phrase)
		if !reflect.DeepEqual(wp, gp) {
			t.Fatalf("PhrasePostings(%v): want %v, got %v", phrase, wp, gp)
		}
	}
	if want.NumPostings() != got.NumPostings() {
		t.Fatalf("NumPostings: want %d, got %d", want.NumPostings(), got.NumPostings())
	}
}
