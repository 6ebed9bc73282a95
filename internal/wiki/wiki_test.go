package wiki

import (
	"strings"
	"testing"

	"github.com/querygraph/querygraph/internal/graph"
)

// buildVenice builds the small knowledge base used across the wiki tests,
// modeled on the paper's running example (query #90 "gondola in venice").
func buildVenice(t *testing.T) (*Snapshot, map[string]graph.NodeID) {
	t.Helper()
	b := NewBuilder(16)
	ids := map[string]graph.NodeID{}
	add := func(name string, f func() (graph.NodeID, error)) {
		t.Helper()
		id, err := f()
		if err != nil {
			t.Fatalf("add %q: %v", name, err)
		}
		ids[name] = id
	}
	add("gondola", func() (graph.NodeID, error) { return b.AddArticle("Gondola") })
	add("venice", func() (graph.NodeID, error) { return b.AddArticle("Venice") })
	add("grand canal", func() (graph.NodeID, error) { return b.AddArticle("Grand Canal (Venice)") })
	add("cannaregio", func() (graph.NodeID, error) { return b.AddArticle("Cannaregio") })
	add("cat:venice", func() (graph.NodeID, error) { return b.AddCategory("Category:Venice") })
	add("cat:canals", func() (graph.NodeID, error) { return b.AddCategory("Canals in Italy") })
	add("cat:italy", func() (graph.NodeID, error) { return b.AddCategory("Italy") })
	add("regata", func() (graph.NodeID, error) { return b.AddRedirect("Regata", ids["gondola"]) })

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.AddLink(ids["gondola"], ids["venice"]))
	must(b.AddLink(ids["venice"], ids["gondola"])) // reciprocal
	must(b.AddLink(ids["venice"], ids["grand canal"]))
	must(b.AddLink(ids["grand canal"], ids["cannaregio"]))
	must(b.AddBelongs(ids["gondola"], ids["cat:venice"]))
	must(b.AddBelongs(ids["venice"], ids["cat:venice"]))
	must(b.AddBelongs(ids["grand canal"], ids["cat:canals"]))
	must(b.AddBelongs(ids["cannaregio"], ids["cat:venice"]))
	must(b.AddInside(ids["cat:venice"], ids["cat:italy"]))
	must(b.AddInside(ids["cat:canals"], ids["cat:italy"]))

	s, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s, ids
}

func TestSnapshotBasics(t *testing.T) {
	s, ids := buildVenice(t)
	if s.NumArticles() != 4 {
		t.Errorf("NumArticles = %d, want 4", s.NumArticles())
	}
	if s.NumRedirects() != 1 {
		t.Errorf("NumRedirects = %d, want 1", s.NumRedirects())
	}
	if s.NumCategories() != 3 {
		t.Errorf("NumCategories = %d, want 3", s.NumCategories())
	}
	if s.Name(ids["gondola"]) != "Gondola" {
		t.Errorf("Name = %q", s.Name(ids["gondola"]))
	}
}

func TestLookupNormalization(t *testing.T) {
	s, ids := buildVenice(t)
	for _, q := range []string{"grand canal (venice)", "Grand Canal (Venice)", "GRAND canal venice"} {
		id, ok := s.Lookup(q)
		if !ok || id != ids["grand canal"] {
			t.Errorf("Lookup(%q) = %d,%v want %d,true", q, id, ok, ids["grand canal"])
		}
	}
	if _, ok := s.Lookup("palazzo bembo"); ok {
		t.Error("Lookup of missing title should fail")
	}
	// Redirect titles resolve to the redirect node.
	id, ok := s.Lookup("regata")
	if !ok || !s.IsRedirect(id) {
		t.Fatalf("Lookup(regata) = %d,%v; want a redirect node", id, ok)
	}
	if s.MainOf(id) != ids["gondola"] {
		t.Errorf("MainOf(regata) = %d, want gondola %d", s.MainOf(id), ids["gondola"])
	}
}

func TestMainOfIdentityForNonRedirects(t *testing.T) {
	s, ids := buildVenice(t)
	if s.MainOf(ids["venice"]) != ids["venice"] {
		t.Error("MainOf(main article) should be identity")
	}
	if s.MainOf(ids["cat:italy"]) != ids["cat:italy"] {
		t.Error("MainOf(category) should be identity")
	}
}

func TestRedirectsTo(t *testing.T) {
	s, ids := buildVenice(t)
	rs := s.RedirectsTo(ids["gondola"])
	if len(rs) != 1 || s.Name(rs[0]) != "Regata" {
		t.Errorf("RedirectsTo(gondola) = %v", rs)
	}
	if rs := s.RedirectsTo(ids["venice"]); len(rs) != 0 {
		t.Errorf("RedirectsTo(venice) = %v, want empty", rs)
	}
}

func TestCategoriesOf(t *testing.T) {
	s, ids := buildVenice(t)
	cats := s.CategoriesOf(ids["gondola"])
	if len(cats) != 1 || cats[0] != ids["cat:venice"] {
		t.Errorf("CategoriesOf(gondola) = %v", cats)
	}
}

func TestReciprocalLinkRatio(t *testing.T) {
	s, _ := buildVenice(t)
	// Linked unordered pairs: {gondola,venice} (reciprocal), {venice,grand
	// canal}, {grand canal,cannaregio} -> 1/3.
	got := s.ReciprocalLinkRatio()
	if got < 0.333 || got > 0.334 {
		t.Errorf("ReciprocalLinkRatio = %g, want 1/3", got)
	}
}

func TestStats(t *testing.T) {
	s, _ := buildVenice(t)
	st := s.Stats()
	if st.Articles != 4 || st.Redirects != 1 || st.Categories != 3 {
		t.Errorf("Stats nodes = %+v", st)
	}
	if st.Links != 4 || st.Belongs != 4 || st.Inside != 2 {
		t.Errorf("Stats edges = %+v", st)
	}
}

func TestDuplicateTitleRejected(t *testing.T) {
	b := NewBuilder(4)
	if _, err := b.AddArticle("Venice"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddArticle("venice"); err == nil {
		t.Error("normalized duplicate title should be rejected")
	}
	if _, err := b.AddCategory("VENICE"); err == nil {
		t.Error("category colliding with article title should be rejected")
	}
	if _, err := b.AddArticle("  !! "); err == nil {
		t.Error("empty-after-normalization title should be rejected")
	}
}

func TestSchemaViolations(t *testing.T) {
	b := NewBuilder(8)
	a, _ := b.AddArticle("A")
	c, _ := b.AddCategory("C")
	r, err := b.AddRedirect("R", a)
	if err != nil {
		t.Fatal(err)
	}

	if err := b.AddLink(a, c); err == nil {
		t.Error("link to category should fail")
	}
	if err := b.AddLink(c, a); err == nil {
		t.Error("link from category should fail")
	}
	if err := b.AddLink(a, r); err == nil {
		t.Error("link to redirect should fail")
	}
	if err := b.AddLink(r, a); err == nil {
		t.Error("link from redirect should fail")
	}
	if err := b.AddBelongs(c, c); err == nil {
		t.Error("belongs from category should fail")
	}
	if err := b.AddBelongs(r, c); err == nil {
		t.Error("belongs from redirect should fail")
	}
	if err := b.AddInside(a, c); err == nil {
		t.Error("inside from article should fail")
	}
	if _, err := b.AddRedirect("R2", r); err == nil {
		t.Error("redirect chain should fail")
	}
	if _, err := b.AddRedirect("R3", c); err == nil {
		t.Error("redirect to category should fail")
	}
	if _, err := b.AddRedirect("R4", 999); err == nil {
		t.Error("redirect to unknown node should fail")
	}
}

func TestBuildRequiresCategory(t *testing.T) {
	b := NewBuilder(2)
	if _, err := b.AddArticle("Orphan"); err != nil {
		t.Fatal(err)
	}
	_, err := b.Build()
	if err == nil {
		t.Fatal("Build should fail for an article without categories")
	}
	if !strings.Contains(err.Error(), "Orphan") {
		t.Errorf("error should name the offending article: %v", err)
	}
}

func TestBuildRedirectNeedsNoCategory(t *testing.T) {
	b := NewBuilder(4)
	a, _ := b.AddArticle("Main")
	c, _ := b.AddCategory("Cat")
	if err := b.AddBelongs(a, c); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddRedirect("Alias", a); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err != nil {
		t.Errorf("redirects must not require categories: %v", err)
	}
}

func TestTitlesMapCoversEverything(t *testing.T) {
	s, _ := buildVenice(t)
	titles := s.Titles()
	if len(titles) != 8 { // 4 articles + 1 redirect + 3 categories
		t.Errorf("Titles() has %d entries, want 8", len(titles))
	}
	for norm, id := range titles {
		if norm == "" {
			t.Error("empty normalized title in map")
		}
		if !s.Graph().Valid(id) {
			t.Errorf("title %q maps to invalid node", norm)
		}
	}
}

func TestReciprocalRatioEmptyGraph(t *testing.T) {
	b := NewBuilder(0)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.ReciprocalLinkRatio() != 0 {
		t.Error("empty snapshot should have ratio 0")
	}
}
