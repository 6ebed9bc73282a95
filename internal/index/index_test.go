package index

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func toks(s string) []string { return strings.Fields(s) }

func buildSmall(t *testing.T) *Index {
	t.Helper()
	ix := New()
	// doc 0..3
	ix.AddDocument(toks("gondola in venice near the grand canal"))
	ix.AddDocument(toks("the grand canal of venice"))
	ix.AddDocument(toks("venice venice venice"))
	ix.AddDocument(toks("grand canal grand canal grand canal"))
	return ix
}

func TestAddDocumentIDsAndLengths(t *testing.T) {
	ix := New()
	if id := ix.AddDocument(toks("a b c")); id != 0 {
		t.Errorf("first id = %d", id)
	}
	if id := ix.AddDocument(nil); id != 1 {
		t.Errorf("second id = %d", id)
	}
	if ix.NumDocs() != 2 {
		t.Errorf("NumDocs = %d", ix.NumDocs())
	}
	if l, err := ix.DocLen(0); err != nil || l != 3 {
		t.Errorf("DocLen(0) = %d, %v", l, err)
	}
	if l, err := ix.DocLen(1); err != nil || l != 0 {
		t.Errorf("DocLen(1) = %d, %v", l, err)
	}
	if _, err := ix.DocLen(5); err == nil {
		t.Error("DocLen of unknown doc should fail")
	}
	if _, err := ix.DocLen(-1); err == nil {
		t.Error("DocLen of negative doc should fail")
	}
	if ix.TotalTokens() != 3 {
		t.Errorf("TotalTokens = %d", ix.TotalTokens())
	}
}

func TestPostingsAndFreqs(t *testing.T) {
	ix := buildSmall(t)
	p := ix.Postings("venice")
	if len(p) != 3 {
		t.Fatalf("venice postings = %+v", p)
	}
	if p[0] != (Posting{Doc: 0, TF: 1}) || p[2] != (Posting{Doc: 2, TF: 3}) {
		t.Errorf("venice postings = %+v", p)
	}
	// One slab, consumed TF at a time: doc 0's offset, doc 1's, doc 2's three.
	if slab := ix.Positions("venice"); !reflect.DeepEqual(slab, []uint32{2, 4, 0, 1, 2}) {
		t.Errorf("venice positions slab = %v", slab)
	}
	if ix.NumPostings() != 15 {
		t.Errorf("NumPostings = %d, want 15", ix.NumPostings())
	}
	if ix.CollectionFreq("venice") != 5 {
		t.Errorf("cf(venice) = %d", ix.CollectionFreq("venice"))
	}
	if ix.DocFreq("venice") != 3 {
		t.Errorf("df(venice) = %d", ix.DocFreq("venice"))
	}
	if ix.Postings("missing") != nil || ix.Positions("missing") != nil || ix.CollectionFreq("missing") != 0 || ix.DocFreq("missing") != 0 {
		t.Error("missing term should have empty stats")
	}
	// gondola in venice near the grand canal of = 8 distinct terms.
	if ix.NumTerms() != 8 {
		t.Errorf("NumTerms = %d, want 8", ix.NumTerms())
	}
}

func TestPhrasePostings(t *testing.T) {
	ix := buildSmall(t)
	p := ix.PhrasePostings(toks("grand canal"))
	if len(p) != 3 {
		t.Fatalf("phrase postings = %+v", p)
	}
	if want := []Posting{{Doc: 0, TF: 1}, {Doc: 1, TF: 1}, {Doc: 3, TF: 3}}; !reflect.DeepEqual(p, want) {
		t.Errorf("phrase postings = %+v, want %+v", p, want)
	}
	if ix.PhraseCollectionFreq(toks("grand canal")) != 5 {
		t.Errorf("phrase cf = %d", ix.PhraseCollectionFreq(toks("grand canal")))
	}
}

func TestPhraseOrderMatters(t *testing.T) {
	ix := buildSmall(t)
	if p := ix.PhrasePostings(toks("canal grand")); len(p) != 1 || p[0] != (Posting{Doc: 3, TF: 2}) {
		// "grand canal grand canal grand canal": "canal grand" occurs at 1 and 3.
		t.Errorf("reversed phrase = %+v", p)
	}
	if p := ix.PhrasePostings(toks("venice gondola")); p != nil {
		t.Errorf("non-occurring phrase = %+v", p)
	}
}

func TestPhraseEdgeCases(t *testing.T) {
	ix := buildSmall(t)
	if p := ix.PhrasePostings(nil); p != nil {
		t.Error("empty phrase should be nil")
	}
	single := ix.PhrasePostings(toks("venice"))
	if !reflect.DeepEqual(single, ix.Postings("venice")) {
		t.Error("single-term phrase should equal term postings")
	}
	if p := ix.PhrasePostings(toks("grand missing")); p != nil {
		t.Errorf("phrase with unknown term = %+v", p)
	}
	// Triple-term phrase across a doc boundary of repetitions.
	ix2 := New()
	ix2.AddDocument(toks("a b c a b c"))
	p := ix2.PhrasePostings(toks("a b c"))
	if len(p) != 1 || p[0].TF != 2 { // at 0 and 3
		t.Errorf("triple phrase = %+v", p)
	}
	// Overlapping repeats: "a a a" contains "a a" at 0 and 1.
	ix3 := New()
	ix3.AddDocument(toks("a a a"))
	p = ix3.PhrasePostings(toks("a a"))
	if len(p) != 1 || p[0].TF != 2 {
		t.Errorf("overlapping phrase = %+v", p)
	}
}

func TestTermsSorted(t *testing.T) {
	ix := buildSmall(t)
	terms := ix.Terms()
	for i := 1; i < len(terms); i++ {
		if terms[i-1] >= terms[i] {
			t.Fatalf("Terms not sorted: %v", terms)
		}
	}
}

// Property: phrase postings via positional intersection agree with a naive
// scan over the original documents.
func TestPhraseAgainstNaiveProperty(t *testing.T) {
	vocab := []string{"a", "b", "c", "d"}
	f := func(seed int64, phraseLenRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ndocs := 1 + rng.Intn(8)
		docs := make([][]string, ndocs)
		ix := New()
		for d := 0; d < ndocs; d++ {
			n := rng.Intn(30)
			tokens := make([]string, n)
			for i := range tokens {
				tokens[i] = vocab[rng.Intn(len(vocab))]
			}
			docs[d] = tokens
			ix.AddDocument(tokens)
		}
		plen := 1 + int(phraseLenRaw%3)
		phrase := make([]string, plen)
		for i := range phrase {
			phrase[i] = vocab[rng.Intn(len(vocab))]
		}
		// One scratch across both calls: the second must not see the first's
		// leftovers.
		var sc PhraseScratch
		ix.PhrasePostingsScratch(phrase, &sc)
		got := ix.PhrasePostingsScratch(phrase, &sc)
		// Naive scan.
		want := map[int32]uint32{}
		for d, tokens := range docs {
			for i := 0; i+plen <= len(tokens); i++ {
				match := true
				for j := 0; j < plen; j++ {
					if tokens[i+j] != phrase[j] {
						match = false
						break
					}
				}
				if match {
					want[int32(d)]++
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		prev := int32(-1)
		for _, p := range got {
			if p.Doc <= prev || p.TF == 0 || want[p.Doc] != p.TF {
				return false
			}
			prev = p.Doc
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: collection frequency equals the sum of posting frequencies and
// the length of the positions slab, each posting's share of the slab is the
// ascending offsets of its term in its document, and total tokens equal the
// sum of document lengths.
func TestIndexAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vocab := []string{"x", "y", "z", "w", "v"}
		ix := New()
		var total int64
		var docs [][]string
		for d := 0; d < 1+rng.Intn(10); d++ {
			n := rng.Intn(40)
			tokens := make([]string, n)
			for i := range tokens {
				tokens[i] = vocab[rng.Intn(len(vocab))]
			}
			ix.AddDocument(tokens)
			docs = append(docs, tokens)
			total += int64(n)
		}
		if ix.TotalTokens() != total {
			return false
		}
		var sum int64
		for _, term := range vocab {
			cf := ix.CollectionFreq(term)
			slab := ix.Positions(term)
			var fromPostings int64
			for _, p := range ix.Postings(term) {
				prev := -1
				for _, pos := range slab[fromPostings : fromPostings+int64(p.TF)] {
					if int(pos) <= prev || docs[p.Doc][pos] != term {
						return false
					}
					prev = int(pos)
				}
				fromPostings += int64(p.TF)
			}
			if cf != fromPostings || cf != int64(len(slab)) {
				return false
			}
			sum += cf
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
