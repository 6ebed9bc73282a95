// Package wiki models the part of the Wikipedia schema the paper uses
// (its Figure 1): Article and Category entries connected by link
// (article→article), belongs (article→category, at least one per main
// article), inside (category→category, forming a mostly-tree hierarchy) and
// redirects_to (redirect article→main article) relations.
//
// A Snapshot is an immutable, validated knowledge base; Builder constructs
// one while enforcing the schema invariants:
//
//   - titles are unique after normalization (shared between articles and
//     redirects: the linker must resolve any title unambiguously);
//   - every main article belongs to at least one category;
//   - a redirect article has exactly one relation — its redirects_to edge —
//     so redirects can never close a cycle, as the paper observes;
//   - redirect chains (redirect → redirect) are rejected.
package wiki

import (
	"fmt"
	"sort"

	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/text"
)

// Snapshot is a validated, immutable Wikipedia knowledge base. It is safe
// for concurrent reads.
type Snapshot struct {
	g        *graph.Graph
	names    []string // display name per node ID
	byTitle  map[string]graph.NodeID
	redirect map[graph.NodeID]graph.NodeID // redirect article -> main article
	inbound  map[graph.NodeID][]graph.NodeID
}

// Graph returns the underlying typed graph. The graph must be treated as
// read-only.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Name returns the display title (articles) or name (categories) of node
// n, "" for a node the snapshot does not have.
func (s *Snapshot) Name(n graph.NodeID) string {
	if int(n) >= len(s.names) {
		return ""
	}
	return s.names[n]
}

// Lookup resolves a title or category name to its node by normalized
// comparison. Redirect titles resolve to the redirect node itself; use
// MainOf to follow the redirect.
func (s *Snapshot) Lookup(title string) (graph.NodeID, bool) {
	id, ok := s.byTitle[text.Normalize(title)]
	return id, ok
}

// IsRedirect reports whether node n is a redirect article.
func (s *Snapshot) IsRedirect(n graph.NodeID) bool {
	_, ok := s.redirect[n]
	return ok
}

// MainOf resolves a redirect article to its main article; for main articles
// and categories it returns n unchanged.
func (s *Snapshot) MainOf(n graph.NodeID) graph.NodeID {
	if main, ok := s.redirect[n]; ok {
		return main
	}
	return n
}

// RedirectsTo returns the redirect articles pointing at main article a,
// i.e. the alternative titles the paper derives synonyms from.
func (s *Snapshot) RedirectsTo(a graph.NodeID) []graph.NodeID {
	return s.inbound[a]
}

// CategoriesOf returns the categories article a belongs to, ascending.
func (s *Snapshot) CategoriesOf(a graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, arc := range s.g.Out(a) {
		if arc.Kind == graph.Belongs {
			out = append(out, arc.To)
		}
	}
	return out
}

// NumArticles returns the number of main (non-redirect) articles.
func (s *Snapshot) NumArticles() int {
	return s.g.CountKind(graph.Article) - len(s.redirect)
}

// NumRedirects returns the number of redirect articles.
func (s *Snapshot) NumRedirects() int { return len(s.redirect) }

// NumCategories returns the number of categories.
func (s *Snapshot) NumCategories() int { return s.g.CountKind(graph.Category) }

// ReciprocalLinkRatio returns the fraction of unordered article pairs
// connected by at least one link that are connected in both directions. The
// paper measures 11.47% on Wikipedia; the synthetic generator targets the
// same rate.
func (s *Snapshot) ReciprocalLinkRatio() float64 {
	linked := 0
	reciprocal := 0
	for _, e := range s.g.Edges() {
		if e.Kind != graph.Link {
			continue
		}
		back := s.g.HasEdge(e.To, e.From, graph.Link)
		if back && e.From > e.To {
			continue // count each unordered pair once
		}
		linked++
		if back {
			reciprocal++
		}
	}
	if linked == 0 {
		return 0
	}
	return float64(reciprocal) / float64(linked)
}

// Titles returns every normalized title in the snapshot mapped to its node.
// The returned map is owned by the snapshot and must not be modified; it is
// what the entity linker builds its trie from.
func (s *Snapshot) Titles() map[string]graph.NodeID { return s.byTitle }

// Stats summarizes a snapshot for reports and sanity checks.
type Stats struct {
	Articles, Redirects, Categories int
	Links, Belongs, Inside          int
	ReciprocalLinkRatio             float64
}

// Stats computes summary statistics.
func (s *Snapshot) Stats() Stats {
	st := Stats{
		Articles:   s.NumArticles(),
		Redirects:  s.NumRedirects(),
		Categories: s.NumCategories(),
	}
	for _, e := range s.g.Edges() {
		switch e.Kind {
		case graph.Link:
			st.Links++
		case graph.Belongs:
			st.Belongs++
		case graph.Inside:
			st.Inside++
		}
	}
	st.ReciprocalLinkRatio = s.ReciprocalLinkRatio()
	return st
}

// Load reassembles a Snapshot from a decoded graph and its node names,
// deriving the title dictionary, redirect table and inbound-alias lists in
// one pass instead of replaying the Builder. This is the decode path of
// the binary snapshot subsystem (internal/store): the input is trusted to
// originate from a valid Snapshot (it is checksummed on disk), so the
// global schema validation of Builder.Build is not repeated — only shape
// checks that later lookups depend on run. The graph and names are owned
// by the snapshot afterwards.
func Load(g *graph.Graph, names []string) (*Snapshot, error) {
	if g == nil {
		return nil, fmt.Errorf("wiki: load: nil graph")
	}
	if len(names) != g.NumNodes() {
		return nil, fmt.Errorf("wiki: load: %d names for %d nodes", len(names), g.NumNodes())
	}
	byTitle := make(map[string]graph.NodeID, len(names))
	for i, name := range names {
		norm := text.Normalize(name)
		if norm == "" {
			return nil, fmt.Errorf("wiki: load: node %d has an empty name", i)
		}
		if prev, ok := byTitle[norm]; ok {
			return nil, fmt.Errorf("wiki: load: node %d (%q) collides with node %d (%q)",
				i, name, prev, names[prev])
		}
		byTitle[norm] = graph.NodeID(i)
	}
	redirect := make(map[graph.NodeID]graph.NodeID)
	inbound := make(map[graph.NodeID][]graph.NodeID)
	// Ascending node scan, so every inbound list comes out sorted — the
	// same order Build produces.
	for i := 0; i < g.NumNodes(); i++ {
		id := graph.NodeID(i)
		for _, arc := range g.Out(id) {
			if arc.Kind == graph.Redirect {
				redirect[id] = arc.To
				inbound[arc.To] = append(inbound[arc.To], id)
			}
		}
	}
	return &Snapshot{
		g:        g,
		names:    names,
		byTitle:  byTitle,
		redirect: redirect,
		inbound:  inbound,
	}, nil
}

// Builder assembles a Snapshot. Methods return errors immediately for local
// violations (duplicate titles, wrong node kinds); Build performs the global
// schema validation.
type Builder struct {
	g        *graph.Graph
	names    []string
	byTitle  map[string]graph.NodeID
	redirect map[graph.NodeID]graph.NodeID
}

// NewBuilder returns an empty Builder with a capacity hint of n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{
		g:        graph.New(n),
		byTitle:  make(map[string]graph.NodeID, n),
		redirect: make(map[graph.NodeID]graph.NodeID),
	}
}

func (b *Builder) addNode(kind graph.NodeKind, name string) (graph.NodeID, error) {
	norm := text.Normalize(name)
	if norm == "" {
		return 0, fmt.Errorf("wiki: empty %s name %q", kind, name)
	}
	if prev, ok := b.byTitle[norm]; ok {
		return 0, fmt.Errorf("wiki: %s %q collides with existing node %d (%q)",
			kind, name, prev, b.names[prev])
	}
	id := b.g.AddNode(kind)
	b.names = append(b.names, name)
	b.byTitle[norm] = id
	return id, nil
}

// AddArticle creates a main article with the given title. Titles must be
// unique after normalization across articles, redirects and categories.
func (b *Builder) AddArticle(title string) (graph.NodeID, error) {
	return b.addNode(graph.Article, title)
}

// AddCategory creates a category with the given name.
func (b *Builder) AddCategory(name string) (graph.NodeID, error) {
	return b.addNode(graph.Category, name)
}

// AddRedirect creates a redirect article with the given alternative title
// pointing at main. It fails if main is not a main article.
func (b *Builder) AddRedirect(title string, main graph.NodeID) (graph.NodeID, error) {
	if err := b.requireKind(main, graph.Article); err != nil {
		return 0, fmt.Errorf("wiki: redirect %q: %w", title, err)
	}
	if _, isRedir := b.redirect[main]; isRedir {
		return 0, fmt.Errorf("wiki: redirect %q points at redirect node %d; chains are not allowed", title, main)
	}
	id, err := b.addNode(graph.Article, title)
	if err != nil {
		return 0, err
	}
	if err := b.g.AddEdge(id, main, graph.Redirect); err != nil {
		return 0, fmt.Errorf("wiki: redirect %q: %w", title, err)
	}
	b.redirect[id] = main
	return id, nil
}

func (b *Builder) requireKind(n graph.NodeID, kind graph.NodeKind) error {
	if !b.g.Valid(n) {
		return fmt.Errorf("unknown node %d", n)
	}
	if b.g.Kind(n) != kind {
		return fmt.Errorf("node %d is a %s, want %s", n, b.g.Kind(n), kind)
	}
	return nil
}

func (b *Builder) requireMainArticle(n graph.NodeID, role string) error {
	if err := b.requireKind(n, graph.Article); err != nil {
		return err
	}
	if _, isRedir := b.redirect[n]; isRedir {
		return fmt.Errorf("%s %d is a redirect; redirects have no relations besides redirects_to", role, n)
	}
	return nil
}

// AddLink inserts a link edge between two main articles.
func (b *Builder) AddLink(from, to graph.NodeID) error {
	if err := b.requireMainArticle(from, "link source"); err != nil {
		return fmt.Errorf("wiki: %w", err)
	}
	if err := b.requireMainArticle(to, "link target"); err != nil {
		return fmt.Errorf("wiki: %w", err)
	}
	return b.g.AddEdge(from, to, graph.Link)
}

// AddBelongs asserts that main article a belongs to category c.
func (b *Builder) AddBelongs(a, c graph.NodeID) error {
	if err := b.requireMainArticle(a, "belongs source"); err != nil {
		return fmt.Errorf("wiki: %w", err)
	}
	if err := b.requireKind(c, graph.Category); err != nil {
		return fmt.Errorf("wiki: %w", err)
	}
	return b.g.AddEdge(a, c, graph.Belongs)
}

// AddInside nests category child inside category parent.
func (b *Builder) AddInside(child, parent graph.NodeID) error {
	if err := b.requireKind(child, graph.Category); err != nil {
		return fmt.Errorf("wiki: %w", err)
	}
	if err := b.requireKind(parent, graph.Category); err != nil {
		return fmt.Errorf("wiki: %w", err)
	}
	return b.g.AddEdge(child, parent, graph.Inside)
}

// Build validates the global schema and returns the immutable Snapshot.
// The builder must not be used afterwards.
func (b *Builder) Build() (*Snapshot, error) {
	inbound := make(map[graph.NodeID][]graph.NodeID)
	for redir, main := range b.redirect {
		inbound[main] = append(inbound[main], redir)
	}
	// Sort each alias list: b.redirect is a map, so append order above is
	// nondeterministic, and RedirectsTo order is visible (redirect-alias
	// expansion features, snapshot encoding).
	for _, ins := range inbound {
		sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
	}
	for _, id := range b.g.NodesOfKind(graph.Article) {
		if _, isRedir := b.redirect[id]; isRedir {
			continue
		}
		hasCategory := false
		for _, arc := range b.g.Out(id) {
			if arc.Kind == graph.Belongs {
				hasCategory = true
				break
			}
		}
		if !hasCategory {
			return nil, fmt.Errorf("wiki: article %d (%q) belongs to no category; the schema requires at least one",
				id, b.names[id])
		}
	}
	return &Snapshot{
		g:        b.g,
		names:    b.names,
		byTitle:  b.byTitle,
		redirect: b.redirect,
		inbound:  inbound,
	}, nil
}
