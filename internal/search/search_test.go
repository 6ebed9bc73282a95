package search

import (
	"math"
	"strings"
	"testing"

	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/index"
	"github.com/querygraph/querygraph/internal/text"
)

var plain = text.NewAnalyzer(false, false)

func buildEngine(t *testing.T, docs ...string) *Engine {
	t.Helper()
	ix := index.New()
	for _, d := range docs {
		ix.AddDocument(plain.Analyze(d))
	}
	e, err := NewEngine(ix, plain)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func search(t *testing.T, e *Engine, q string, k int) []Result {
	t.Helper()
	node, err := e.Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	rs, err := e.Search(node, k)
	if err != nil {
		t.Fatalf("Search(%q): %v", q, err)
	}
	return rs
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, plain); err == nil {
		t.Error("nil index should fail")
	}
	if _, err := NewEngine(index.New(), plain, WithMu(-1)); err == nil {
		t.Error("negative mu should fail")
	}
	e, err := NewEngine(index.New(), plain, WithMu(100))
	if err != nil {
		t.Fatal(err)
	}
	if e.Analyzer() != plain || e.Index() == nil {
		t.Error("accessors broken")
	}
}

func TestTermRanking(t *testing.T) {
	e := buildEngine(t,
		"venice venice venice gondola", // doc 0: heavy on venice
		"venice canal",                 // doc 1
		"florence duomo",               // doc 2: no match
	)
	rs := search(t, e, "venice", 10)
	if len(rs) != 2 {
		t.Fatalf("results = %+v, want 2 candidates", rs)
	}
	if rs[0].Doc != 0 || rs[1].Doc != 1 {
		t.Errorf("ranking = %+v, want doc0 first", rs)
	}
	if rs[0].Score <= rs[1].Score {
		t.Errorf("scores not descending: %+v", rs)
	}
}

func TestPhraseBeatsScattered(t *testing.T) {
	e := buildEngine(t,
		"the grand canal of venice", // doc 0: exact phrase
		"grand hotel near a canal",  // doc 1: words, no phrase
		"canal grand",               // doc 2: wrong order
	)
	rs := search(t, e, "#1(grand canal)", 10)
	if len(rs) != 1 || rs[0].Doc != 0 {
		t.Fatalf("phrase results = %+v, want only doc 0", rs)
	}
}

func TestCombineQuery(t *testing.T) {
	e := buildEngine(t,
		"gondola in venice", // doc 0: both
		"gondola race",      // doc 1: one
		"venice carnival",   // doc 2: one
		"florence bridge",   // doc 3: none
	)
	rs := search(t, e, "#combine(gondola venice)", 10)
	if len(rs) != 3 {
		t.Fatalf("results = %+v", rs)
	}
	if rs[0].Doc != 0 {
		t.Errorf("doc 0 should rank first: %+v", rs)
	}
}

func TestWeightQuery(t *testing.T) {
	e := buildEngine(t,
		"apple apple banana",
		"banana banana apple",
	)
	// Heavily weighting banana must rank doc 1 first; weighting apple, doc 0.
	rs := search(t, e, "#weight(9 banana 1 apple)", 10)
	if rs[0].Doc != 1 {
		t.Errorf("banana-weighted ranking = %+v", rs)
	}
	rs = search(t, e, "#weight(1 banana 9 apple)", 10)
	if rs[0].Doc != 0 {
		t.Errorf("apple-weighted ranking = %+v", rs)
	}
}

func TestTieBreakByDocID(t *testing.T) {
	e := buildEngine(t, "same text", "same text", "same text")
	rs := search(t, e, "same", 10)
	if len(rs) != 3 || rs[0].Doc != 0 || rs[1].Doc != 1 || rs[2].Doc != 2 {
		t.Errorf("tie break = %+v", rs)
	}
}

func TestTopKTruncation(t *testing.T) {
	e := buildEngine(t, "x a", "x b", "x c", "x d")
	if rs := search(t, e, "x", 2); len(rs) != 2 {
		t.Errorf("k=2 gave %d results", len(rs))
	}
	if rs := search(t, e, "x", 0); len(rs) != 4 {
		t.Errorf("k=0 should return all candidates, got %d", len(rs))
	}
	if rs := search(t, e, "x", -1); len(rs) != 4 {
		t.Errorf("k<0 should return all candidates, got %d", len(rs))
	}
}

func TestNoMatchesAndEmptyIndex(t *testing.T) {
	// Contract: every no-result path returns an empty, non-nil slice, so
	// len(rs) == 0 and range loops behave uniformly whether the query was
	// truncated to nothing or never matched at all.
	e := buildEngine(t, "alpha beta")
	if rs := search(t, e, "missingterm", 10); rs == nil || len(rs) != 0 {
		t.Errorf("no-match query = %#v, want empty non-nil slice", rs)
	}
	empty, err := NewEngine(index.New(), plain)
	if err != nil {
		t.Fatal(err)
	}
	node, err := empty.Parse("anything")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := empty.Search(node, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rs == nil || len(rs) != 0 {
		t.Errorf("empty index search = %#v, want empty non-nil slice", rs)
	}
	// Zero-length documents only: the index has docs but no tokens.
	zeroTok := index.New()
	zeroTok.AddDocument(nil)
	ze, err := NewEngine(zeroTok, plain)
	if err != nil {
		t.Fatal(err)
	}
	rs, err = ze.Search(Term{Text: "anything"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rs == nil || len(rs) != 0 {
		t.Errorf("zero-token search = %#v, want empty non-nil slice", rs)
	}
}

func TestSearchErrors(t *testing.T) {
	e := buildEngine(t, "a b")
	if _, err := e.Search(nil, 5); err == nil {
		t.Error("nil node should fail")
	}
	if _, err := e.Search(Combine{}, 5); err == nil {
		t.Error("empty combine should fail")
	}
	if _, err := e.Search(Phrase{}, 5); err == nil {
		t.Error("empty phrase should fail")
	}
	if _, err := e.Search(Weight{Children: []Node{Term{"a"}}, Weights: []float64{1, 2}}, 5); err == nil {
		t.Error("mismatched weights should fail")
	}
	if _, err := e.Search(Weight{Children: []Node{Term{"a"}}, Weights: []float64{0}}, 5); err == nil {
		t.Error("zero total weight should fail")
	}
	if _, err := e.Search(Weight{Children: []Node{Term{"a"}}, Weights: []float64{-1}}, 5); err == nil {
		t.Error("negative weight should fail")
	}
}

func TestParser(t *testing.T) {
	n, err := ParseQuery("#combine( #1(grand canal) gondola )", plain)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := n.(Combine)
	if !ok || len(c.Children) != 2 {
		t.Fatalf("parsed = %#v", n)
	}
	if _, ok := c.Children[0].(Phrase); !ok {
		t.Errorf("first child = %#v, want Phrase", c.Children[0])
	}
	if term, ok := c.Children[1].(Term); !ok || term.Text != "gondola" {
		t.Errorf("second child = %#v", c.Children[1])
	}
	// Bare multi-word query becomes a combine of terms.
	n, err = ParseQuery("gondola venice", plain)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := n.(Combine); !ok || len(c.Children) != 2 {
		t.Fatalf("bare multiword = %#v", n)
	}
}

func TestParserWeight(t *testing.T) {
	n, err := ParseQuery("#weight(0.7 venice 0.3 #1(grand canal))", plain)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := n.(Weight)
	if !ok || len(w.Children) != 2 || w.Weights[0] != 0.7 || w.Weights[1] != 0.3 {
		t.Fatalf("parsed = %#v", n)
	}
}

func TestParserErrors(t *testing.T) {
	for _, q := range []string{
		"",
		"#combine(",
		"#1(a",
		"#1(#combine(a))",
		"#weight(x venice)",
		"#weight(0.5)",
		"#weight(-1 venice)",
		"#unknown(a)",
		"#",
		"#combine)",
	} {
		if _, err := ParseQuery(q, plain); err == nil {
			t.Errorf("ParseQuery(%q) should fail", q)
		}
	}
}

func TestParserStopwordDrop(t *testing.T) {
	stopping := text.NewAnalyzer(true, false)
	n, err := ParseQuery("gondola in venice", stopping)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := n.(Combine)
	if !ok || len(c.Children) != 2 {
		t.Fatalf("stopword query = %#v, want 2 children", n)
	}
	// A query of only stopwords analyzes to nothing.
	if _, err := ParseQuery("the of in", stopping); err == nil {
		t.Error("stopword-only query should fail")
	}
}

func TestASTStringRoundTrip(t *testing.T) {
	for _, q := range []string{
		"#combine(venice gondola)",
		"#1(grand canal)",
		"#weight(0.5 venice 0.5 #1(grand canal))",
	} {
		n, err := ParseQuery(q, plain)
		if err != nil {
			t.Fatal(err)
		}
		n2, err := ParseQuery(n.String(), plain)
		if err != nil {
			t.Fatalf("re-parse %q: %v", n.String(), err)
		}
		if n.String() != n2.String() {
			t.Errorf("round trip: %q -> %q", n.String(), n2.String())
		}
	}
}

func TestBuildTitleQuery(t *testing.T) {
	n, ok := BuildTitleQuery("gondola in venice", [][]string{plain.Analyze("Grand Canal (Venice)"), plain.Analyze("Bridge of Sighs")}, plain)
	if !ok {
		t.Fatal("BuildTitleQuery failed")
	}
	s := n.String()
	if !strings.Contains(s, "#1(grand canal venice)") || !strings.Contains(s, "#1(bridge of sighs)") {
		t.Errorf("query = %s", s)
	}
	if strings.Contains(s, "gondola") {
		t.Errorf("keywords beside surviving titles: %s", s)
	}
	if _, ok := BuildTitleQuery("", nil, plain); ok {
		t.Error("empty inputs should fail")
	}
	// Stopword-only title dropped, the keywords back the query off.
	stopping := text.NewAnalyzer(true, false)
	n, ok = BuildTitleQuery("gondola", [][]string{stopping.Analyze("of the")}, stopping)
	if !ok || strings.Contains(n.String(), "#1") || !strings.Contains(n.String(), "gondola") {
		t.Errorf("stopword title should be dropped for the keywords: %v %v", n, ok)
	}
}

func TestIndexCollection(t *testing.T) {
	var c corpus.Collection
	if _, err := c.Add(corpus.Image{ID: "1", Name: "Gondola in Venice.jpg"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(corpus.Image{ID: "2", Name: "Florence Duomo.jpg"}); err != nil {
		t.Fatal(err)
	}
	ix := IndexCollection(&c, plain)
	if ix.NumDocs() != 2 {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
	if ix.DocFreq("gondola") != 1 || ix.DocFreq("duomo") != 1 {
		t.Error("collection terms missing")
	}
}

func TestDirichletScoreValue(t *testing.T) {
	// Hand-checked Dirichlet score: one doc "a b", query "a".
	ix := index.New()
	ix.AddDocument([]string{"a", "b"})
	e, err := NewEngine(ix, plain, WithMu(10))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := e.Search(Term{Text: "a"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// tf=1, pc = 1/2, dl=2, mu=10: log((1 + 10*0.5) / (2+10)) = log(6/12).
	want := math.Log(0.5)
	if math.Abs(rs[0].Score-want) > 1e-12 {
		t.Errorf("score = %g, want %g", rs[0].Score, want)
	}
}

func TestDocsHelper(t *testing.T) {
	got := Docs([]Result{{Doc: 3}, {Doc: 1}})
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Errorf("Docs = %v", got)
	}
}
