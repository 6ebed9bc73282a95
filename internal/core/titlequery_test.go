package core

import (
	"reflect"
	"sync"
	"testing"

	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/synth"
	"github.com/querygraph/querygraph/internal/wiki"
)

// referenceTitleQuery writes the title query with every title analysed
// afresh by search.NewPhrase: a phrase per title that analyses to
// something, or, when none does, the keywords as bare terms.
func referenceTitleQuery(s *System, keywords string, articles []graph.NodeID) (search.Node, bool) {
	an := s.Engine.Analyzer()
	var children []search.Node
	for _, a := range articles {
		if p, ok := search.NewPhrase(s.Snapshot.Name(a), an); ok {
			children = append(children, p)
		}
	}
	if len(children) == 0 {
		for _, kw := range an.Analyze(keywords) {
			children = append(children, search.Term{Text: kw})
		}
	}
	if len(children) == 0 {
		return nil, false
	}
	return search.Combine{Children: children}, true
}

// checkTitleQuery fails t unless s.TitleQuery writes referenceTitleQuery's
// query.
func checkTitleQuery(t *testing.T, s *System, keywords string, articles []graph.NodeID, pass string) {
	t.Helper()
	got, ok, err := s.TitleQuery(keywords, articles)
	if err != nil {
		t.Fatalf("%s TitleQuery(%q, %d articles): %v", pass, keywords, len(articles), err)
	}
	want, wantOK := referenceTitleQuery(s, keywords, articles)
	if ok != wantOK || !reflect.DeepEqual(got, want) {
		t.Errorf("%s TitleQuery(%q, %v) = %.120s, %v; want %.120s, %v", pass, keywords, articles[:min(len(articles), 3)], got, ok, want, wantOK)
	}
}

// allNodes lists every node of s's graph.
func allNodes(s *System) []graph.NodeID {
	nodes := make([]graph.NodeID, s.Snapshot.Graph().NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	return nodes
}

// TestTitleQueryMatchesAnalyzer holds the per-node table of analysed titles
// to the analyser. For every node of the default world, and of a small
// snapshot whose titles include stopword-only ones, the query that fills the
// node's entry and the one that reads it back both write the phrase
// search.NewPhrase writes from the title — none for a stopword-only title,
// which a query of all nodes drops. When no title survives, as for that
// node alone or for no article at all, the keywords back the query off.
// An article past the graph is refused and fills no entry.
func TestTitleQueryMatchesAnalyzer(t *testing.T) {
	w, err := synth.Generate(synth.Default())
	if err != nil {
		t.Fatal(err)
	}
	defaultWorld, err := FromWorld(w, WithExpandCache(0))
	if err != nil {
		t.Fatal(err)
	}
	b := wiki.NewBuilder(4)
	canals, err := b.AddCategory("Canals")
	if err != nil {
		t.Fatal(err)
	}
	for _, title := range []string{"Grand Canal (Venice)", "Of The", "To Be"} {
		id, err := b.AddArticle(title)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AddBelongs(id, canals); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var coll corpus.Collection
	if _, err := coll.Add(corpus.Image{ID: "1", Name: "gondola in venice.jpg"}); err != nil {
		t.Fatal(err)
	}
	stopwordTitles, err := NewSystem(snap, &coll, WithExpandCache(0))
	if err != nil {
		t.Fatal(err)
	}

	const kw = "gondola in venice"
	for _, tc := range []struct {
		name        string
		s           *System
		emptyTitles int
	}{{"default world", defaultWorld, 0}, {"stopword titles", stopwordTitles, 2}} {
		name, s := tc.name, tc.s
		n := s.Snapshot.Graph().NumNodes()
		for _, bad := range []graph.NodeID{graph.NodeID(n), ^graph.NodeID(0)} {
			if _, _, err := s.TitleQuery(kw, []graph.NodeID{bad}); err == nil {
				t.Errorf("%s: TitleQuery of article %d in a %d-node graph: no error", name, bad, n)
			}
		}
		for a := range s.titleTerms {
			if s.titleTerms[a].Load() != nil {
				t.Fatalf("%s: node %d's title terms are filled before any valid query named it", name, a)
			}
		}
		empty := 0
		for _, a := range allNodes(s) {
			checkTitleQuery(t, s, kw, []graph.NodeID{a}, name+" filling")
			checkTitleQuery(t, s, kw, []graph.NodeID{a}, name+" cached")
			if s.titleTerms[a].Load() == nil {
				t.Errorf("%s: node %d's title terms are not kept", name, a)
			} else if len(*s.titleTerms[a].Load()) == 0 {
				empty++
			}
		}
		checkTitleQuery(t, s, kw, allNodes(s), name+" every node")
		checkTitleQuery(t, s, kw, nil, name+" no article")
		if empty != tc.emptyTitles {
			t.Errorf("%s: %d titles analyse to nothing, want %d", name, empty, tc.emptyTitles)
		}
	}
}

// TestTitleQueryConcurrentFirstFill races first fills of every node's
// entry on a fresh System: each goroutine asks for every node, starting at
// its own offset, and all of them must write the reference query. Run
// under -race.
func TestTitleQueryConcurrentFirstFill(t *testing.T) {
	_, w := testSystem(t)
	s, err := FromWorld(w, WithExpandCache(0))
	if err != nil {
		t.Fatal(err)
	}
	const kw, workers = "gondola in venice", 4
	nodes := allNodes(s)
	want, _ := referenceTitleQuery(s, kw, nodes)
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range nodes {
				a := nodes[(i+g*len(nodes)/workers)%len(nodes)]
				if _, _, err := s.TitleQuery(kw, []graph.NodeID{a}); err != nil {
					t.Error(err)
					return
				}
			}
			got, _, err := s.TitleQuery(kw, nodes)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("goroutine %d: TitleQuery over every node = %.120s, %v; want %.120s", g, got, err, want)
			}
		}()
	}
	wg.Wait()
}
