package index

import (
	"math"
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
		_, wb, _ := want.LookupBlocks(term)
		_, gb, _ := got.LookupBlocks(term)
		if !reflect.DeepEqual(wb, gb) {
			t.Fatalf("blocks of %q: want %v, got %v", term, wb, gb)
		}
	}
	if want.MaxDocLen() != got.MaxDocLen() {
		t.Fatalf("MaxDocLen: want %d, got %d", want.MaxDocLen(), got.MaxDocLen())
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

// TestBlockTables checks every way an index gets its block tables —
// AddDocument one posting at a time, Load in its validation pass, Merge
// keeping base's full blocks — against the definition, on lists of one
// to five blocks and merge cuts on, beside and between block boundaries.
func TestBlockTables(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	docs := make([][]string, 5*BlockSize+17)
	for d := range docs {
		docs[d] = tokenDocs(rng, 1)[0]
		for tf := rng.Intn(4); tf > 0; tf-- {
			docs[d] = append(docs[d], "common")
		}
		if d%3 == 0 {
			docs[d] = append(docs[d], "third")
		}
	}
	ix := buildIndex(docs)
	assertBlocksDefined(t, ix)
	if _, bl, _ := ix.LookupBlocks("common"); len(bl) < 4 {
		t.Fatalf("common spans %d blocks, want ≥ 4", len(bl))
	}
	loaded, err := Load(ix.docLens, ix.terms, ix.postings, ix.positions)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, ix, loaded)
	for _, cut := range []int{0, 1, BlockSize - 1, BlockSize, BlockSize + 1, 2*BlockSize + 40, 3 * BlockSize, len(docs) - 1, len(docs)} {
		merged := Merge(buildIndex(docs[:cut]), buildIndex(docs[cut:]))
		assertSameIndex(t, ix, merged)
		// A second fold on top of the first: the live delta's case.
		half := cut + (len(docs)-cut)/2
		merged = Merge(Merge(buildIndex(docs[:cut]), buildIndex(docs[cut:half])), buildIndex(docs[half:]))
		assertSameIndex(t, ix, merged)
	}
}

// assertBlocksDefined compares every term's block table with one computed
// from its postings by the definition.
func assertBlocksDefined(t *testing.T, ix *Index) {
	t.Helper()
	for _, term := range ix.Terms() {
		postings, got, _ := ix.LookupBlocks(term)
		var want []Block
		for start := 0; len(postings) > BlockSize && start < len(postings); start += BlockSize {
			b := Block{MinDL: math.MaxInt64}
			for _, p := range postings[start:min(start+BlockSize, len(postings))] {
				b.LastDoc, b.MaxTF, b.MinDL = p.Doc, max(b.MaxTF, p.TF), min(b.MinDL, ix.docLens[p.Doc])
			}
			want = append(want, b)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("blocks of %q (%d postings): want %v, got %v", term, len(postings), want, got)
		}
	}
}
