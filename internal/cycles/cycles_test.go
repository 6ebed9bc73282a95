package cycles

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/querygraph/querygraph/internal/graph"
)

func mustEdge(t *testing.T, g *graph.Graph, from, to graph.NodeID, kind graph.EdgeKind) {
	t.Helper()
	if err := g.AddEdge(from, to, kind); err != nil {
		t.Fatal(err)
	}
}

// paperGraph builds the Figure 4 shapes:
//
//	n0 venice (article), n1 cannaregio (article): reciprocal links (2-cycle)
//	n2 grand canal (article), n3 palazzo bembo (article):
//	   venice->grand canal, grand canal->palazzo bembo, palazzo bembo->venice (3-cycle)
//	n4 visitor attractions (category), n5 bridge of sighs (article):
//	   venice belongs n4, n5 belongs n4, n5 links venice ... 3-cycle with category
func paperGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(8)
	venice := g.AddNode(graph.Article)     // 0
	cannaregio := g.AddNode(graph.Article) // 1
	canal := g.AddNode(graph.Article)      // 2
	palazzo := g.AddNode(graph.Article)    // 3
	attractions := g.AddNode(graph.Category)
	sighs := g.AddNode(graph.Article) // 5
	mustEdge(t, g, venice, cannaregio, graph.Link)
	mustEdge(t, g, cannaregio, venice, graph.Link)
	mustEdge(t, g, venice, canal, graph.Link)
	mustEdge(t, g, canal, palazzo, graph.Link)
	mustEdge(t, g, palazzo, venice, graph.Link)
	mustEdge(t, g, venice, attractions, graph.Belongs)
	mustEdge(t, g, sighs, attractions, graph.Belongs)
	mustEdge(t, g, sighs, venice, graph.Link)
	return g
}

func TestEnumeratePaperShapes(t *testing.T) {
	g := paperGraph(t)
	cs, err := Enumerate(g, []graph.NodeID{0}, 5, graph.ExcludeRedirects)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]graph.NodeID
	for _, c := range cs {
		got = append(got, c.Nodes)
	}
	want := [][]graph.NodeID{
		{0, 1},    // reciprocal link 2-cycle
		{0, 2, 3}, // article 3-cycle
		{0, 4, 5}, // article-category-article 3-cycle
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cycles = %v, want %v", got, want)
	}
}

func TestEnumerateSeedFilter(t *testing.T) {
	g := paperGraph(t)
	// Seeded at cannaregio: only the 2-cycle contains it.
	cs, err := Enumerate(g, []graph.NodeID{1}, 5, graph.ExcludeRedirects)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || !reflect.DeepEqual(cs[0].Nodes, []graph.NodeID{0, 1}) {
		t.Errorf("cycles = %v", cs)
	}
	// nil seeds: every cycle.
	cs, err = Enumerate(g, nil, 5, graph.ExcludeRedirects)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 {
		t.Errorf("unfiltered cycles = %v", cs)
	}
	// Empty (non-nil) seeds: no cycle can contain a seed.
	cs, err = Enumerate(g, []graph.NodeID{}, 5, graph.ExcludeRedirects)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 0 {
		t.Errorf("empty-seed cycles = %v", cs)
	}
}

func TestEnumerateLengthCap(t *testing.T) {
	// 5-ring plus one chord making a 4-cycle and a 3-cycle.
	g := graph.New(5)
	for i := 0; i < 5; i++ {
		g.AddNode(graph.Article)
	}
	ring := [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	for _, e := range ring {
		mustEdge(t, g, e[0], e[1], graph.Link)
	}
	mustEdge(t, g, 0, 2, graph.Link) // chord

	cs, err := Enumerate(g, nil, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || len(cs[0].Nodes) != 3 {
		t.Errorf("maxLen=3 cycles = %v", cs)
	}
	cs, err = Enumerate(g, nil, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Triangle {0,1,2}, 4-cycle {0,2,3,4}, 5-ring {0..4}.
	if len(cs) != 3 {
		t.Errorf("maxLen=5 cycles = %v", cs)
	}
}

func TestEnumerateErrors(t *testing.T) {
	g := graph.New(1)
	g.AddNode(graph.Article)
	if _, err := Enumerate(g, nil, 1, nil); err == nil {
		t.Error("maxLen < 2 should fail")
	}
	if _, err := Enumerate(g, nil, MaxSupportedLength+1, nil); err == nil {
		t.Error("maxLen > max should fail")
	}
	if _, err := Enumerate(g, []graph.NodeID{42}, 3, nil); err == nil {
		t.Error("unknown seed should fail")
	}
}

func TestRedirectsNeverCloseCycles(t *testing.T) {
	// venice <-> gondola links; alias -> venice redirect. Without the
	// exclusion a spurious "cycle" via the redirect could never appear
	// anyway (redirect has one edge), but redirect edges between cycle
	// nodes must not count as closure either.
	g := graph.New(3)
	a := g.AddNode(graph.Article)
	b := g.AddNode(graph.Article)
	r := g.AddNode(graph.Article)
	mustEdge(t, g, a, b, graph.Link)
	mustEdge(t, g, r, a, graph.Redirect)
	// A hypothetical second relation b->a of kind Redirect (not schema-legal
	// in wiki, but the graph allows it) must not create a 2-cycle when
	// redirects are excluded.
	mustEdge(t, g, b, a, graph.Redirect)
	cs, err := Enumerate(g, nil, 5, graph.ExcludeRedirects)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 0 {
		t.Errorf("cycles = %v, want none", cs)
	}
	// Including redirect edges, the reciprocal pair is a 2-cycle.
	cs, err = Enumerate(g, nil, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 {
		t.Errorf("cycles with redirects = %v", cs)
	}
}

func TestAppendArticles(t *testing.T) {
	g := paperGraph(t)
	cs, err := Enumerate(g, []graph.NodeID{0}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The article-category-article cycle {0,4,5}: articles are 0 and 5.
	var found bool
	for _, c := range cs {
		if reflect.DeepEqual(c.Nodes, []graph.NodeID{0, 4, 5}) {
			arts := AppendArticles(nil, g, c)
			if !reflect.DeepEqual(arts, []graph.NodeID{0, 5}) {
				t.Errorf("AppendArticles = %v", arts)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("expected cycle {0,4,5} not enumerated")
	}
}

func TestMeasureTriangleWithCategory(t *testing.T) {
	g := paperGraph(t)
	m, err := Measure(g, Cycle{Nodes: []graph.NodeID{0, 4, 5}}, graph.ExcludeRedirects)
	if err != nil {
		t.Fatal(err)
	}
	if m.Length != 3 || m.Articles != 2 || m.Categories != 1 {
		t.Errorf("counts = %+v", m)
	}
	if math.Abs(m.CategoryRatio-1.0/3.0) > 1e-12 {
		t.Errorf("CategoryRatio = %g", m.CategoryRatio)
	}
	// Edges: venice-attractions belongs(1), sighs-attractions belongs(1),
	// sighs-venice link(1) = 3. M = 2*1 + 2*1 + 0 = 4. density = 0/1 = 0.
	if m.Edges != 3 || m.MaxEdges != 4 {
		t.Errorf("edges = %d/%d", m.Edges, m.MaxEdges)
	}
	if m.ExtraEdgeDensity != 0 {
		t.Errorf("density = %g, want 0", m.ExtraEdgeDensity)
	}
}

func TestMeasureDenseTriangle(t *testing.T) {
	// All-article triangle with every possible directed link: E = 6, M = 6,
	// density = (6-3)/(6-3) = 1.
	g := graph.New(3)
	for i := 0; i < 3; i++ {
		g.AddNode(graph.Article)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				mustEdge(t, g, graph.NodeID(i), graph.NodeID(j), graph.Link)
			}
		}
	}
	m, err := Measure(g, Cycle{Nodes: []graph.NodeID{0, 1, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Edges != 6 || m.MaxEdges != 6 || m.ExtraEdgeDensity != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestMeasureTwoCycleDensityZero(t *testing.T) {
	g := graph.New(2)
	g.AddNode(graph.Article)
	g.AddNode(graph.Article)
	mustEdge(t, g, 0, 1, graph.Link)
	mustEdge(t, g, 1, 0, graph.Link)
	m, err := Measure(g, Cycle{Nodes: []graph.NodeID{0, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// M = 2 = |C|: no room for extra edges.
	if m.ExtraEdgeDensity != 0 || m.MaxEdges != 2 || m.Edges != 2 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestMeasureErrors(t *testing.T) {
	g := graph.New(1)
	g.AddNode(graph.Article)
	if _, err := Measure(g, Cycle{Nodes: []graph.NodeID{0}}, nil); err == nil {
		t.Error("length-1 cycle should fail")
	}
	if _, err := Measure(g, Cycle{Nodes: []graph.NodeID{0, 99}}, nil); err == nil {
		t.Error("unknown node should fail")
	}
}

// --- property tests -------------------------------------------------------

// bruteForceCycles enumerates cycles by checking every permutation of every
// node subset of size 2..maxLen, canonicalizing and deduplicating.
func bruteForceCycles(g *graph.Graph, maxLen int, exclude func(graph.EdgeKind) bool) map[string]bool {
	n := g.NumNodes()
	adjacent := func(a, b graph.NodeID) bool {
		return g.EdgesBetween(a, b, exclude) >= 1
	}
	found := make(map[string]bool)
	var nodes []graph.NodeID
	for i := 0; i < n; i++ {
		nodes = append(nodes, graph.NodeID(i))
	}
	// 2-cycles.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if g.EdgesBetween(graph.NodeID(i), graph.NodeID(j), exclude) >= 2 {
				found[key([]graph.NodeID{graph.NodeID(i), graph.NodeID(j)})] = true
			}
		}
	}
	// k-cycles via permutations.
	var permute func(cur []graph.NodeID, rest []graph.NodeID, k int)
	permute = func(cur, rest []graph.NodeID, k int) {
		if len(cur) == k {
			for i := 0; i < k; i++ {
				if !adjacent(cur[i], cur[(i+1)%k]) {
					return
				}
			}
			found[key(canonical(cur))] = true
			return
		}
		for i := range rest {
			next := append(append([]graph.NodeID{}, cur...), rest[i])
			others := append(append([]graph.NodeID{}, rest[:i]...), rest[i+1:]...)
			permute(next, others, k)
		}
	}
	for k := 3; k <= maxLen; k++ {
		permute(nil, nodes, k)
	}
	return found
}

// canonical rotates the cycle so the minimum leads and reflects so the
// second element is smaller than the last.
func canonical(c []graph.NodeID) []graph.NodeID {
	k := len(c)
	minIdx := 0
	for i, v := range c {
		if v < c[minIdx] {
			minIdx = i
		}
	}
	rot := make([]graph.NodeID, k)
	for i := 0; i < k; i++ {
		rot[i] = c[(minIdx+i)%k]
	}
	if k > 2 && rot[1] > rot[k-1] {
		rev := make([]graph.NodeID, k)
		rev[0] = rot[0]
		for i := 1; i < k; i++ {
			rev[i] = rot[k-i]
		}
		return rev
	}
	return rot
}

func key(nodes []graph.NodeID) string {
	b := make([]byte, 0, len(nodes)*4)
	for _, n := range nodes {
		b = append(b, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	}
	return string(b)
}

// Property: DFS enumeration matches brute force on random small graphs.
func TestEnumerateMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				g.AddNode(graph.Category)
			} else {
				g.AddNode(graph.Article)
			}
		}
		for e := 0; e < rng.Intn(3*n); e++ {
			_ = g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)),
				graph.EdgeKind(rng.Intn(3)))
		}
		maxLen := 3 + rng.Intn(3) // 3..5
		got, err := Enumerate(g, nil, maxLen, nil)
		if err != nil {
			return false
		}
		want := bruteForceCycles(g, maxLen, nil)
		if len(got) != len(want) {
			return false
		}
		for _, c := range got {
			if !want[key(c.Nodes)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: every enumerated cycle is valid — distinct nodes, consecutive
// adjacency, canonical form, length within bounds, density within [0,1].
func TestCycleValidityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				g.AddNode(graph.Category)
			} else {
				g.AddNode(graph.Article)
			}
		}
		for e := 0; e < rng.Intn(4*n); e++ {
			_ = g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)),
				graph.EdgeKind(rng.Intn(3)))
		}
		cs, err := Enumerate(g, nil, 5, nil)
		if err != nil {
			return false
		}
		for _, c := range cs {
			k := len(c.Nodes)
			if k < 2 || k > 5 {
				return false
			}
			seen := map[graph.NodeID]bool{}
			for _, nd := range c.Nodes {
				if seen[nd] {
					return false
				}
				seen[nd] = true
			}
			for i := 0; i < k; i++ {
				a, b := c.Nodes[i], c.Nodes[(i+1)%k]
				need := 1
				if k == 2 {
					need = 2
				}
				if g.EdgesBetween(a, b, nil) < need {
					return false
				}
			}
			// Canonical form.
			for _, nd := range c.Nodes[1:] {
				if nd < c.Nodes[0] {
					return false
				}
			}
			if k > 2 && c.Nodes[1] > c.Nodes[k-1] {
				return false
			}
			m, err := Measure(g, c, nil)
			if err != nil {
				return false
			}
			if m.ExtraEdgeDensity < 0 || m.ExtraEdgeDensity > 1 {
				return false
			}
			if m.Articles+m.Categories != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
