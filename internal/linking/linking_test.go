package linking

import (
	"testing"

	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/wiki"
)

// buildKB constructs the linker test knowledge base:
//
//	articles: "Gondola", "Venice", "Grand Canal", "Street Art", "Art",
//	          "Regatta", "Regatta Storica"
//	redirects: "Regata" -> Regatta, "La Serenissima" -> Venice
func buildKB(t *testing.T) (*wiki.Snapshot, map[string]graph.NodeID) {
	t.Helper()
	b := wiki.NewBuilder(16)
	ids := map[string]graph.NodeID{}
	mustA := func(title string) graph.NodeID {
		t.Helper()
		id, err := b.AddArticle(title)
		if err != nil {
			t.Fatal(err)
		}
		ids[title] = id
		return id
	}
	cat, err := b.AddCategory("Things")
	if err != nil {
		t.Fatal(err)
	}
	for _, title := range []string{"Gondola", "Venice", "Grand Canal", "Street Art", "Art", "Regatta", "Regatta Storica"} {
		id := mustA(title)
		if err := b.AddBelongs(id, cat); err != nil {
			t.Fatal(err)
		}
	}
	r1, err := b.AddRedirect("Regata", ids["Regatta"])
	if err != nil {
		t.Fatal(err)
	}
	ids["Regata"] = r1
	r2, err := b.AddRedirect("La Serenissima", ids["Venice"])
	if err != nil {
		t.Fatal(err)
	}
	ids["La Serenissima"] = r2
	snap, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return snap, ids
}

func TestLinkSimple(t *testing.T) {
	snap, ids := buildKB(t)
	l := New(snap)
	ms := l.Link("a gondola in venice")
	if len(ms) != 2 {
		t.Fatalf("mentions = %+v", ms)
	}
	if ms[0].Node != ids["Gondola"] || ms[1].Node != ids["Venice"] {
		t.Errorf("mentions = %+v", ms)
	}
	if ms[0].Start != 1 || ms[0].End != 2 || ms[1].Start != 3 || ms[1].End != 4 {
		t.Errorf("spans = %+v", ms)
	}
}

func TestMaximalMunch(t *testing.T) {
	snap, ids := buildKB(t)
	l := New(snap)
	// "street art" must match the longer title, not the nested "art".
	ms := l.Link("graffiti street art")
	if len(ms) != 1 || ms[0].Node != ids["Street Art"] {
		t.Fatalf("mentions = %+v, want only Street Art", ms)
	}
	// A lone "art" still matches "Art".
	ms = l.Link("modern art here")
	if len(ms) != 1 || ms[0].Node != ids["Art"] {
		t.Fatalf("mentions = %+v, want Art", ms)
	}
}

func TestNoOverlapAfterMatch(t *testing.T) {
	snap, ids := buildKB(t)
	l := New(snap)
	// After consuming "grand canal", scanning resumes after it.
	ms := l.Link("grand canal venice")
	if len(ms) != 2 {
		t.Fatalf("mentions = %+v", ms)
	}
	if ms[0].Node != ids["Grand Canal"] || ms[1].Node != ids["Venice"] {
		t.Errorf("mentions = %+v", ms)
	}
}

func TestCaseAndPunctuationInsensitive(t *testing.T) {
	snap, ids := buildKB(t)
	l := New(snap)
	ms := l.Link("GONDOLA, Venice!")
	if len(ms) != 2 || ms[0].Node != ids["Gondola"] || ms[1].Node != ids["Venice"] {
		t.Fatalf("mentions = %+v", ms)
	}
}

func TestRedirectTitleMatches(t *testing.T) {
	snap, ids := buildKB(t)
	l := New(snap)
	ms := l.Link("la serenissima by night")
	if len(ms) != 1 || ms[0].Node != ids["La Serenissima"] {
		t.Fatalf("mentions = %+v", ms)
	}
	if snap.MainOf(ms[0].Node) != ids["Venice"] {
		t.Error("redirect should resolve to Venice")
	}
	mains := l.LinkMain("la serenissima by night")
	if len(mains) != 1 || mains[0] != ids["Venice"] {
		t.Errorf("LinkMain = %v", mains)
	}
}

func TestSynonymSubstitution(t *testing.T) {
	snap, ids := buildKB(t)
	l := New(snap)
	// "regata storica": no article title matches literally, but the paper's
	// synonym-phrase mechanism applies — "regata" redirects to "Regatta",
	// and replacing the term by its synonym yields the phrase "regatta
	// storica", which matches the title "Regatta Storica".
	ms := l.Link("regata storica 2011")
	if len(ms) != 1 {
		t.Fatalf("mentions = %+v", ms)
	}
	if !ms[0].Substituted {
		t.Errorf("match should be flagged as substituted: %+v", ms[0])
	}
	if ms[0].Node != ids["Regatta Storica"] {
		t.Errorf("mention = %+v, want Regatta Storica", ms[0])
	}
	if ms[0].Start != 0 || ms[0].End != 2 {
		t.Errorf("span = %+v, want [0,2)", ms[0])
	}
}

func TestLiteralPreferredOverSubstituted(t *testing.T) {
	snap, ids := buildKB(t)
	l := New(snap)
	// "regata" alone matches the redirect literally; no substitution needed.
	ms := l.Link("regata")
	if len(ms) != 1 || ms[0].Substituted || ms[0].Node != ids["Regata"] {
		t.Fatalf("mentions = %+v", ms)
	}
}

func TestLinkMainDedupesAndSorts(t *testing.T) {
	snap, ids := buildKB(t)
	l := New(snap)
	set := l.LinkMain("venice venice gondola venice")
	if len(set) != 2 {
		t.Fatalf("LinkMain = %v", set)
	}
	if set[0] != ids["Gondola"] || set[1] != ids["Venice"] {
		t.Errorf("LinkMain = %v (gondola=%d venice=%d)", set, ids["Gondola"], ids["Venice"])
	}
}

func TestLinkNothing(t *testing.T) {
	snap, _ := buildKB(t)
	l := New(snap)
	if ms := l.Link("totally unrelated words"); len(ms) != 0 {
		t.Errorf("mentions = %+v, want none", ms)
	}
	if ms := l.Link(""); len(ms) != 0 {
		t.Errorf("mentions of empty = %+v", ms)
	}
	if set := l.LinkMain(""); len(set) != 0 {
		t.Errorf("LinkMain of empty = %v", set)
	}
}

func TestCategoriesNotLinkable(t *testing.T) {
	snap, _ := buildKB(t)
	l := New(snap)
	if ms := l.Link("things"); len(ms) != 0 {
		t.Errorf("category name produced mentions: %+v", ms)
	}
}

func TestMentionOrderAndSpans(t *testing.T) {
	snap, _ := buildKB(t)
	l := New(snap)
	ms := l.Link("venice grand canal gondola")
	if len(ms) != 3 {
		t.Fatalf("mentions = %+v", ms)
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Start < ms[i-1].End {
			t.Errorf("overlapping mentions: %+v", ms)
		}
	}
}
