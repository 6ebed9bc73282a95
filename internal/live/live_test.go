package live

import (
	"reflect"
	"strings"
	"testing"

	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/text"
)

func img(ext, name, description string) corpus.Image {
	return corpus.Image{
		ID:   ext,
		Name: name + ".jpg",
		Texts: []corpus.Text{{
			Lang:        "en",
			Description: description,
		}},
	}
}

var testCfg = Config{Mu: search.DefaultMu, RemoveStopwords: true, Stem: true}

// TestNilDeltaIsEmpty pins the nil-segment contract every runtime leans
// on: all accessors are safe and report the empty segment.
func TestNilDeltaIsEmpty(t *testing.T) {
	var d *Delta
	if d.NumDocs() != 0 || d.Bytes() != 0 || d.BaseDocs() != 0 || d.TotalTokens() != 0 {
		t.Fatalf("nil delta reports non-empty state")
	}
	if d.Docs() != nil || d.Engine() != nil {
		t.Fatalf("nil delta returns non-nil structure")
	}
	if src := d.Source(); src.Engine != nil || src.Offset != 0 {
		t.Fatalf("nil delta source: %+v", src)
	}
}

// TestAppendMatchesReplay pins the compaction/search equivalence at the
// segment level: a delta grown by successive Appends indexes exactly
// what one engine indexing the same documents in order does.
func TestAppendMatchesReplay(t *testing.T) {
	batches := [][]corpus.Image{
		{img("a", "graph_motif", "a motif query over graph structure"), img("", "cycles", "cycle counting for expansion")},
		{},
		{img("b", "hubs", "hub nodes link motif cycles"), img("c", "wiki", "graph knowledge base")},
	}
	var d *Delta
	var err error
	var all []corpus.Image
	for _, b := range batches {
		d, err = Append(d, testCfg, 7, b)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	if d.NumDocs() != len(all) || d.BaseDocs() != 7 {
		t.Fatalf("delta holds %d docs above %d, want %d above 7", d.NumDocs(), d.BaseDocs(), len(all))
	}

	an := text.NewAnalyzer(testCfg.RemoveStopwords, testCfg.Stem)
	col := &corpus.Collection{}
	var wantBytes int64
	for _, im := range all {
		if _, err := col.Add(im); err != nil {
			t.Fatal(err)
		}
		wantBytes += int64(len(im.RelevantText()))
	}
	ref, err := search.NewEngine(search.IndexCollection(col, an), an, search.WithMu(testCfg.Mu))
	if err != nil {
		t.Fatal(err)
	}
	if d.Bytes() != wantBytes {
		t.Fatalf("Bytes: want %d, got %d", wantBytes, d.Bytes())
	}
	if d.TotalTokens() != ref.Index().TotalTokens() {
		t.Fatalf("TotalTokens: want %d, got %d", ref.Index().TotalTokens(), d.TotalTokens())
	}
	for _, q := range []string{"motif graph", "#1(knowledge base)", "cycle"} {
		node, err := ref.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Search(node, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Engine().Search(node, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %q: replay %v, delta %v", q, want, got)
		}
	}

	for ext, want := range map[string]bool{"a": true, "c": true, "zz": false} {
		if _, ok := d.col.ByExternalID(ext); ok != want {
			t.Fatalf("external id %q registered = %v, want %v", ext, ok, want)
		}
	}
	if src := d.Source(); src.Engine != d.Engine() || src.Offset != 7 {
		t.Fatalf("source: %+v", src)
	}
}

// TestAppendImmutable checks that extending a segment leaves the
// previous value (a retired generation's view) untouched.
func TestAppendImmutable(t *testing.T) {
	d1, err := Append(nil, testCfg, 0, []corpus.Image{img("a", "one", "motif")})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Append(d1, testCfg, 0, []corpus.Image{img("b", "two", "graph")})
	if err != nil {
		t.Fatal(err)
	}
	if d1.NumDocs() != 1 || d2.NumDocs() != 2 {
		t.Fatalf("docs: d1=%d d2=%d", d1.NumDocs(), d2.NumDocs())
	}
	if _, ok := d1.col.ByExternalID("b"); ok {
		t.Fatalf("append mutated the previous segment")
	}
}

// TestAppendRejections pins the error paths: duplicate external ids
// within the segment and a config/base mismatch against prev.
func TestAppendRejections(t *testing.T) {
	d, err := Append(nil, testCfg, 3, []corpus.Image{img("dup", "one", "motif")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Append(d, testCfg, 3, []corpus.Image{img("dup", "two", "graph")}); err == nil ||
		!strings.Contains(err.Error(), "duplicate external id") {
		t.Fatalf("duplicate external id: got %v", err)
	}
	if _, err := Append(d, testCfg, 4, nil); err == nil {
		t.Fatalf("base mismatch accepted")
	}
	other := testCfg
	other.Stem = !other.Stem
	if _, err := Append(d, other, 3, nil); err == nil {
		t.Fatalf("config mismatch accepted")
	}
}
