package cycles

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/querygraph/querygraph/internal/graph"
)

// referenceBall is the expander's neighborhood as it was computed before
// the bounded walk: every distance in the graph, filtered by radius, sorted
// by (distance, id), capped.
func referenceBall(g *graph.Graph, sources []graph.NodeID, radius, maxNodes int, exclude func(graph.EdgeKind) bool) []graph.NodeID {
	dist := g.BFSDistances(sources, exclude)
	var ball []graph.NodeID
	for id, d := range dist {
		if d <= radius {
			ball = append(ball, id)
		}
	}
	sort.Slice(ball, func(i, j int) bool {
		if di, dj := dist[ball[i]], dist[ball[j]]; di != dj {
			return di < dj
		}
		return ball[i] < ball[j]
	})
	return ball[:max(0, min(len(ball), maxNodes))]
}

// randomSources draws up to max sources, some of them repeated and some of
// them not nodes of g at all.
func randomSources(rng *rand.Rand, g *graph.Graph, max int) []graph.NodeID {
	sources := make([]graph.NodeID, rng.Intn(max+1))
	for i := range sources {
		switch rng.Intn(6) {
		case 0:
			sources[i] = graph.NodeID(g.NumNodes() + rng.Intn(3)) // invalid
		case 1:
			sources[i] = sources[rng.Intn(i+1)] // repeated (or itself: the zero node)
		default:
			sources[i] = graph.NodeID(rng.Intn(g.NumNodes()))
		}
	}
	return sources
}

// checkBallNodes holds the node list of a ball miner to the reference
// ball want: the same nodes, in walk order — the distance from the sources
// never falls along the list — with the kept sources first, listed by
// Sources as view ids 0 to k−1.
func checkBallNodes(t *testing.T, g *graph.Graph, m *Miner, sources, want []graph.NodeID, exclude func(graph.EdgeKind) bool) {
	t.Helper()
	nodes := m.Nodes()
	if got := slices.Sorted(slices.Values(nodes)); !slices.Equal(got, slices.Sorted(slices.Values(want))) || m.Len() != len(want) {
		t.Fatalf("ball(%v) = %v (Len %d), want the nodes of %v", sources, nodes, m.Len(), want)
	}
	dist := g.BFSDistances(sources, exclude)
	for i := 1; i < len(nodes); i++ {
		if dist[nodes[i]] < dist[nodes[i-1]] {
			t.Fatalf("ball(%v) = %v: %d at distance %d follows %d at %d", sources, nodes, nodes[i], dist[nodes[i]], nodes[i-1], dist[nodes[i-1]])
		}
	}
	kept := 0
	for _, p := range want {
		if dist[p] == 0 {
			kept++
		}
	}
	seeds := m.Sources()
	if seeds == nil || len(seeds) != kept {
		t.Fatalf("ball(%v) = %v: Sources %v, want the %d sources kept", sources, nodes, seeds, kept)
	}
	for v, s := range seeds {
		if s != graph.NodeID(v) || dist[nodes[v]] != 0 {
			t.Fatalf("ball(%v) = %v: Sources %v, want the view ids of the sources, first", sources, nodes, seeds)
		}
	}
}

// checkIndexClear fails unless no graph node is left marked in m's index.
func checkIndexClear(t *testing.T, m *Miner, what string) {
	t.Helper()
	if i := slices.IndexFunc(m.index, func(x uint32) bool { return x != 0 }); i >= 0 {
		t.Fatalf("%s: index[%d] = %d, want a clear index", what, i, m.index[i])
	}
}

// TestBallMatchesBFSDistances checks the ball walk against the sorted,
// capped distance map it replaces, with caps that cut a level in the
// middle and caps that cut the sources themselves: the same set of nodes,
// the cut level's smallest ids kept, in walk order. The miners come from
// the pool, so graphs of every size share them; half the balls are
// released before Induce, and the pooled index must be clear either way.
func TestBallMatchesBFSDistances(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 10+int(seed%4)*40, 1+2*rng.Float64())
		sources, exclude := randomSources(rng, g, 5), randomFilter(rng)
		radius, maxNodes := rng.Intn(5), rng.Intn(g.NumNodes()+3)
		want := referenceBall(g, sources, radius, maxNodes, exclude)

		m := NewBallMiner(g, sources, radius, maxNodes, exclude)
		checkBallNodes(t, g, m, sources, want, exclude)
		if seed%2 == 0 {
			m.Induce()
			checkIndexClear(t, m, "after Induce")
		}
		m.Release()
		checkIndexClear(t, m, "after Release")
	}
}

// TestBallStopsAtTheCap pins the point of the bounded walk: a long path is
// not walked past the level that fills the cap.
func TestBallStopsAtTheCap(t *testing.T) {
	g := graph.New(1000)
	for i := 0; i < 1000; i++ {
		g.AddNode(graph.Article)
	}
	for i := 1; i < 1000; i++ {
		mustEdge(t, g, graph.NodeID(i-1), graph.NodeID(i), graph.Link)
	}
	m := new(Miner)
	if walked := m.ball(g, []graph.NodeID{0}, 500, 10, nil); m.Len() != 10 || walked != 10 {
		t.Fatalf("ball = %v after reaching %d nodes, want the 10 nearest and no more reached", m.Nodes(), walked)
	}
	m.Induce()
	if walked := m.ball(g, []graph.NodeID{0}, 3, 1000, nil); m.Len() != 4 || walked != 4 {
		t.Errorf("radius 3 reached %d nodes and returned %v, want 4", walked, m.Nodes())
	}
	m.Induce()
}

// TestBallUnboundedRadius: a radius of math.MaxInt bounds nothing. On a
// four-node path it reaches every node, as radius 10 does; the walk's level
// test once computed radius+1, which wraps there, and returned the source
// alone.
func TestBallUnboundedRadius(t *testing.T) {
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Article)
	}
	for i := 1; i < 4; i++ {
		mustEdge(t, g, graph.NodeID(i-1), graph.NodeID(i), graph.Link)
	}
	want := []graph.NodeID{0, 1, 2, 3}
	for _, radius := range []int{10, math.MaxInt - 1, math.MaxInt} {
		m := NewBallMiner(g, []graph.NodeID{0}, radius, math.MaxInt, nil)
		if got := m.Nodes(); !slices.Equal(got, want) {
			t.Errorf("ball(radius %d) = %v, want %v", radius, got, want)
		}
		m.Release()
	}
}

// minedCycle is a cycle a walk handed over, in graph ids and canonical form
// by them, with the Metrics it came with.
type minedCycle struct {
	Cycle
	Metrics
}

// walkInGraphIDs walks m from seeds and returns the cycles it hands over
// in graph ids, sorted, and Found.
func walkInGraphIDs(t *testing.T, m *Miner, seeds []graph.NodeID, maxLen int) ([]minedCycle, int) {
	t.Helper()
	var got []minedCycle
	err := m.Walk(seeds, maxLen, func(met Metrics) error {
		c := make([]graph.NodeID, 0, len(m.Path()))
		for _, v := range m.Path() {
			c = append(c, m.Nodes()[v])
		}
		Canonicalize(c)
		got = append(got, minedCycle{Cycle{c}, met})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(got, func(a, b minedCycle) int { return Compare(a.Cycle, b.Cycle) })
	return got, m.Found
}

// checkBallMiner holds the ball miner to NewMiner over the sorted
// reference ball, up to the permutation Nodes gives: the same nodes, in
// walk order; the same kinds and articles, neighbour and two-edge rows,
// permuted; occupied words that are the nonzero words of the rows; and at
// every Measure, with and without keep, the same cycles from the same
// seeds, in graph ids, with the same Metrics, and the same Found.
func checkBallMiner(t *testing.T, g *graph.Graph, sources []graph.NodeID, radius, maxNodes int, exclude func(graph.EdgeKind) bool, maxLen int, keep func(Metrics) bool) {
	t.Helper()
	want := referenceBall(g, sources, radius, maxNodes, exclude)
	ball := NewBallMiner(g, sources, radius, maxNodes, exclude).Induce()
	defer ball.Release()
	checkBallNodes(t, g, ball, sources, want, exclude)
	checkIndexClear(t, ball, "after Induce")
	sorted := slices.Sorted(slices.Values(want))
	ref := NewMiner(g, sorted, exclude)
	defer ref.Release()

	n := ball.Len()
	perm := make([]graph.NodeID, n) // ball view id → ref view id
	for v, p := range ball.Nodes() {
		i, _ := slices.BinarySearch(sorted, p)
		perm[v] = graph.NodeID(i)
	}
	for a := range graph.NodeID(n) {
		pa := perm[a]
		if ball.Kind(a) != ref.Kind(pa) || ball.articles[a>>6]>>(a&63)&1 != ref.articles[pa>>6]>>(pa&63)&1 {
			t.Fatalf("node %d (graph %d): kind or article bit differs", a, ball.Nodes()[a])
		}
		for b := range graph.NodeID(n) {
			if ball.has(ball.bits, a, b) != ref.has(ref.bits, pa, perm[b]) || ball.has(ball.two, a, b) != ref.has(ref.two, pa, perm[b]) {
				t.Fatalf("graph nodes %d, %d: the rows differ", ball.Nodes()[a], ball.Nodes()[b])
			}
		}
		row := ball.row(ball.bits, a)
		for w := range row {
			if (row[w] != 0) != (ball.occupied[a]>>w&1 != 0) {
				t.Fatalf("node %d: word %d is %#x, occupied %#x", a, w, row[w], ball.occupied[a])
			}
		}
	}

	seeds, refSeeds := ball.Sources(), []graph.NodeID{}
	for _, v := range seeds {
		refSeeds = append(refSeeds, perm[v])
	}
	for measure := range maxLen + 1 {
		if measure == 1 {
			continue
		}
		for _, filter := range []func(Metrics) bool{nil, keep} {
			ball.Keep, ball.Measure, ref.Keep, ref.Measure = filter, measure, filter, measure
			got, found := walkInGraphIDs(t, ball, seeds, maxLen)
			wantCycles, wantFound := walkInGraphIDs(t, ref, refSeeds, maxLen)
			if found != wantFound || !reflect.DeepEqual(got, wantCycles) {
				t.Fatalf("sources %v, radius %d, cap %d, maxLen %d, Measure %d, filtered %v: Found %d, %v; want %d, %v",
					sources, radius, maxNodes, maxLen, measure, filter != nil, found, got, wantFound, wantCycles)
			}
		}
	}
}

// TestBallMinerMatchesNewMiner runs checkBallMiner on random graphs of up
// to three row words, from repeated and invalid sources, at radius 1 to 3,
// with caps that bind and caps that cut the sources themselves.
func TestBallMinerMatchesNewMiner(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(180)
		g := randomGraph(rng, n, 1+2*rng.Float64())
		sources := randomSources(rng, g, 6)
		maxNodes := n + 1
		switch rng.Intn(3) {
		case 0:
			maxNodes = rng.Intn(len(sources) + 1) // may cut the sources
		case 1:
			maxNodes = 1 + rng.Intn(n)
		}
		checkBallMiner(t, g, sources, 1+rng.Intn(3), maxNodes, randomFilter(rng), 2+rng.Intn(4), randomKeep(rng))
	}
}
