package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildDiamond constructs a small schema-shaped graph used across tests:
//
//	a0 <-> a1 (reciprocal links), both belong to c0, c0 inside c1,
//	a2 isolated article with redirect r -> a0.
func buildDiamond(t *testing.T) (*Graph, []NodeID) {
	t.Helper()
	g := New(8)
	a0 := g.AddNode(Article)
	a1 := g.AddNode(Article)
	a2 := g.AddNode(Article)
	r := g.AddNode(Article)
	c0 := g.AddNode(Category)
	c1 := g.AddNode(Category)
	for _, e := range []struct {
		from, to NodeID
		kind     EdgeKind
	}{
		{a0, a1, Link}, {a1, a0, Link},
		{a0, c0, Belongs}, {a1, c0, Belongs},
		{c0, c1, Inside},
		{r, a0, Redirect},
	} {
		if err := g.AddEdge(e.from, e.to, e.kind); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
	return g, []NodeID{a0, a1, a2, r, c0, c1}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(2)
	a := g.AddNode(Article)
	b := g.AddNode(Article)
	if err := g.AddEdge(a, 99, Link); err == nil {
		t.Error("edge to unknown node should fail")
	}
	if err := g.AddEdge(99, a, Link); err == nil {
		t.Error("edge from unknown node should fail")
	}
	if err := g.AddEdge(a, a, Link); err == nil {
		t.Error("self-loop should fail")
	}
	if err := g.AddEdge(a, b, Link); err != nil {
		t.Fatalf("first edge: %v", err)
	}
	if err := g.AddEdge(a, b, Link); err == nil {
		t.Error("duplicate (from,to,kind) should fail")
	}
	if err := g.AddEdge(a, b, Redirect); err != nil {
		t.Errorf("same pair different kind should succeed: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestKindsAndCounts(t *testing.T) {
	g, ids := buildDiamond(t)
	if g.NumNodes() != 6 || g.NumEdges() != 6 {
		t.Fatalf("nodes/edges = %d/%d, want 6/6", g.NumNodes(), g.NumEdges())
	}
	if g.CountKind(Article) != 4 || g.CountKind(Category) != 2 {
		t.Errorf("kind counts wrong: %d articles, %d categories",
			g.CountKind(Article), g.CountKind(Category))
	}
	arts := g.NodesOfKind(Article)
	if len(arts) != 4 || arts[0] != ids[0] {
		t.Errorf("NodesOfKind(Article) = %v", arts)
	}
	if !g.Valid(ids[5]) || g.Valid(100) {
		t.Error("Valid misbehaves")
	}
	if Article.String() != "article" || Category.String() != "category" {
		t.Error("NodeKind strings wrong")
	}
	if Link.String() != "link" || Redirect.String() != "redirects_to" {
		t.Error("EdgeKind strings wrong")
	}
	if NodeKind(9).String() == "" || EdgeKind(9).String() == "" {
		t.Error("unknown kind strings should not be empty")
	}
}

func TestHasEdgeAndEdgesBetween(t *testing.T) {
	g, ids := buildDiamond(t)
	a0, a1, c0 := ids[0], ids[1], ids[4]
	if !g.HasEdge(a0, a1, Link) || !g.HasEdge(a1, a0, Link) {
		t.Error("reciprocal link missing")
	}
	if g.HasEdge(a0, c0, Link) {
		t.Error("kind should be matched")
	}
	if n := g.EdgesBetween(a0, a1, nil); n != 2 {
		t.Errorf("EdgesBetween(a0,a1) = %d, want 2", n)
	}
	if n := g.EdgesBetween(a0, c0, nil); n != 1 {
		t.Errorf("EdgesBetween(a0,c0) = %d, want 1", n)
	}
	r, a2 := ids[3], ids[2]
	if n := g.EdgesBetween(r, a0, ExcludeRedirects); n != 0 {
		t.Errorf("EdgesBetween with filter = %d, want 0", n)
	}
	if n := g.EdgesBetween(a2, a0, nil); n != 0 {
		t.Errorf("EdgesBetween(disconnected) = %d, want 0", n)
	}
}

func TestNeighbors(t *testing.T) {
	g, ids := buildDiamond(t)
	a0 := ids[0]
	nbs := g.Neighbors(a0, nil)
	// a0: link to/from a1, belongs to c0, redirect from r.
	want := []NodeID{ids[1], ids[3], ids[4]}
	if len(nbs) != 3 || nbs[0] != want[0] && nbs[0] != want[1] {
		t.Fatalf("Neighbors(a0) = %v, want %v", nbs, want)
	}
	nbsNoRedir := g.Neighbors(a0, ExcludeRedirects)
	if len(nbsNoRedir) != 2 {
		t.Fatalf("Neighbors(a0, no redirects) = %v, want 2 entries", nbsNoRedir)
	}
	for i := 1; i < len(nbs); i++ {
		if nbs[i-1] >= nbs[i] {
			t.Error("neighbors must be sorted ascending")
		}
	}
}

func TestBFSDistances(t *testing.T) {
	g, ids := buildDiamond(t)
	dist := g.BFSDistances([]NodeID{ids[0]}, ExcludeRedirects)
	if dist[ids[0]] != 0 || dist[ids[1]] != 1 || dist[ids[4]] != 1 || dist[ids[5]] != 2 {
		t.Errorf("distances = %v", dist)
	}
	if _, ok := dist[ids[2]]; ok {
		t.Error("a2 should be unreachable")
	}
	if _, ok := dist[ids[3]]; ok {
		t.Error("r should be unreachable without redirect edges")
	}
	// Multi-source: minimum distance wins.
	dist = g.BFSDistances([]NodeID{ids[0], ids[5]}, ExcludeRedirects)
	if dist[ids[4]] != 1 {
		t.Errorf("multi-source distance to c0 = %d, want 1", dist[ids[4]])
	}
	// Invalid sources are skipped.
	dist = g.BFSDistances([]NodeID{999}, nil)
	if len(dist) != 0 {
		t.Errorf("invalid source should yield empty map, got %v", dist)
	}
}

func TestInduce(t *testing.T) {
	g, ids := buildDiamond(t)
	sub := g.Induce([]NodeID{ids[0], ids[1], ids[4], ids[4], 999})
	if sub.NumNodes() != 3 {
		t.Fatalf("induced nodes = %d, want 3 (dups and invalid dropped)", sub.NumNodes())
	}
	// Edges among {a0,a1,c0}: a0<->a1 links, two belongs = 4 directed edges.
	if sub.NumEdges() != 4 {
		t.Errorf("induced edges = %d, want 4", sub.NumEdges())
	}
	for parent, sid := range sub.ToSub {
		if sub.ToParent[sid] != parent {
			t.Errorf("mapping mismatch: parent %d -> sub %d -> parent %d",
				parent, sid, sub.ToParent[sid])
		}
		if sub.Kind(sid) != g.Kind(parent) {
			t.Errorf("kind not preserved for parent %d", parent)
		}
	}
	empty := g.Induce(nil)
	if empty.NumNodes() != 0 || empty.NumEdges() != 0 {
		t.Error("inducing empty set should give empty graph")
	}
}

func TestWriteDOT(t *testing.T) {
	g, _ := buildDiamond(t)
	var sb strings.Builder
	if err := g.WriteDOT(&sb, "q", nil, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "shape=box", "shape=ellipse", "redirects_to", "style=dashed"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	var sb2 strings.Builder
	if err := g.WriteDOT(&sb2, "q", nil, func(n NodeID) string { return "X" }); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), `label="X"`) {
		t.Error("custom label not used")
	}
}

// TestWriteDOTMatchesInduced checks the rendering of a node list against
// that of the subgraph Induce builds from it, line for line.
func TestWriteDOTMatchesInduced(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		g := randomGraph(seed, 40)
		rng := rand.New(rand.NewSource(seed))
		nodes := []NodeID{} // nil would render all of g
		for n := range g.NumNodes() {
			if rng.Intn(2) == 0 {
				nodes = append(nodes, NodeID(n))
			}
		}
		label := func(n NodeID) string { return fmt.Sprintf("p%d", n) }
		sub := g.Induce(nodes)
		var got, want strings.Builder
		if err := g.WriteDOT(&got, "s", nodes, label); err != nil {
			t.Fatal(err)
		}
		if err := sub.WriteDOT(&want, "s", nil, func(n NodeID) string { return label(sub.ToParent[n]) }); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("seed %d: WriteDOT(%v) =\n%s\nwant\n%s", seed, nodes, got.String(), want.String())
		}
	}
}

// randomGraph builds a random graph from a seed for property tests.
func randomGraph(seed int64, maxNodes int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(maxNodes)
	g := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			g.AddNode(Category)
		} else {
			g.AddNode(Article)
		}
	}
	edges := rng.Intn(3 * n)
	for i := 0; i < edges; i++ {
		from := NodeID(rng.Intn(n))
		to := NodeID(rng.Intn(n))
		kind := EdgeKind(rng.Intn(4))
		_ = g.AddEdge(from, to, kind) // self-loops/dups rejected, fine
	}
	return g
}

// Property: induced subgraph of the full node set is isomorphic in counts.
func TestInduceFullSetProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 50)
		all := make([]NodeID, g.NumNodes())
		for i := range all {
			all[i] = NodeID(i)
		}
		sub := g.Induce(all)
		return sub.NumNodes() == g.NumNodes() && sub.NumEdges() == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
