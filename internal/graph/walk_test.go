package graph

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// referenceBFSDistances is BFSDistances as it stood before the dense walk:
// a map for the visited set and one Neighbors call (a map, a slice and a
// sort) per visited node. It is the oracle the walk is tested against.
func referenceBFSDistances(g *Graph, sources []NodeID, exclude func(EdgeKind) bool) map[NodeID]int {
	dist := make(map[NodeID]int, len(sources)*4)
	queue := make([]NodeID, 0, len(sources))
	for _, s := range sources {
		if !g.Valid(s) {
			continue
		}
		if _, ok := dist[s]; !ok {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(cur, exclude) {
			if _, ok := dist[nb]; !ok {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// referenceBall is the expander's neighborhood as it was computed before
// Ball: every distance in the graph, filtered by radius, sorted by
// (distance, id), capped.
func referenceBall(g *Graph, sources []NodeID, radius, maxNodes int, exclude func(EdgeKind) bool) []NodeID {
	dist := referenceBFSDistances(g, sources, exclude)
	type nd struct {
		id NodeID
		d  int
	}
	ball := make([]nd, 0, len(dist))
	for id, d := range dist {
		if d <= radius {
			ball = append(ball, nd{id, d})
		}
	}
	sort.Slice(ball, func(i, j int) bool {
		if ball[i].d != ball[j].d {
			return ball[i].d < ball[j].d
		}
		return ball[i].id < ball[j].id
	})
	if len(ball) > maxNodes {
		ball = ball[:maxNodes]
	}
	nodes := make([]NodeID, len(ball))
	for i, n := range ball {
		nodes[i] = n.id
	}
	return nodes
}

// referenceInduce is Induce as it stood before it stopped iterating a map
// and re-scanning for duplicate edges.
func referenceInduce(g *Graph, nodes []NodeID) *Subgraph {
	sub := &Subgraph{
		Graph: New(len(nodes)),
		ToSub: make(map[NodeID]NodeID, len(nodes)),
	}
	ordered := append([]NodeID(nil), nodes...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, n := range ordered {
		if !g.Valid(n) {
			continue
		}
		if _, dup := sub.ToSub[n]; dup {
			continue
		}
		id := sub.Graph.AddNode(g.Kind(n))
		sub.ToSub[n] = id
		sub.ToParent = append(sub.ToParent, n)
	}
	for parent, sid := range sub.ToSub {
		for _, a := range g.Out(parent) {
			if tid, ok := sub.ToSub[a.To]; ok {
				if err := sub.Graph.AddEdge(sid, tid, a.Kind); err != nil {
					panic("graph: induce broke edge uniqueness: " + err.Error())
				}
			}
		}
	}
	return sub
}

// randomSources draws up to max sources, some of them repeated and some of
// them not nodes of g at all.
func randomSources(rng *rand.Rand, g *Graph, max int) []NodeID {
	sources := make([]NodeID, rng.Intn(max+1))
	for i := range sources {
		switch rng.Intn(6) {
		case 0:
			sources[i] = NodeID(g.NumNodes() + rng.Intn(3)) // invalid
		case 1:
			sources[i] = sources[rng.Intn(i+1)] // repeated (or itself: the zero node)
		default:
			sources[i] = NodeID(rng.Intn(g.NumNodes()))
		}
	}
	return sources
}

func randomFilter(rng *rand.Rand) func(EdgeKind) bool {
	if rng.Intn(2) == 0 {
		return nil
	}
	return ExcludeRedirects
}

func TestBFSDistancesMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(seed, 80)
		sources, exclude := randomSources(rng, g, 4), randomFilter(rng)
		got, want := g.BFSDistances(sources, exclude), referenceBFSDistances(g, sources, exclude)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: BFSDistances(%v) = %v, want %v", seed, sources, got, want)
		}
	}
}

// TestBallMatchesBFSDistances checks Ball against the sorted, capped
// distance map it replaces, with caps that cut a level in the middle and
// caps that cut the sources themselves: the same set of nodes, the cut
// level's smallest ids kept, in ascending id order. Every graph shares one
// scratch with the others, of all sizes, and the scratch's epoch is driven
// across its wrap-around on the way.
func TestBallMatchesBFSDistances(t *testing.T) {
	w := &walkScratch{}
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(seed, 10+int(seed%4)*40)
		sources, exclude := randomSources(rng, g, 5), randomFilter(rng)
		radius, maxNodes := rng.Intn(5), rng.Intn(g.NumNodes()+3)
		want := referenceBall(g, sources, radius, maxNodes, exclude)
		slices.Sort(want)

		if seed == 300 {
			w.epoch = math.MaxUint32 - 2 // wraps within the next three walks
		}
		if got := g.ball(w, sources, radius, maxNodes, exclude); !slices.Equal(got, want) {
			t.Fatalf("seed %d (epoch %d): ball(%v, r=%d, max=%d) = %v, want %v", seed, w.epoch, sources, radius, maxNodes, got, want)
		}
		if got := g.Ball(sources, radius, maxNodes, exclude); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Ball(%v, r=%d, max=%d) = %v, want %v", seed, sources, radius, maxNodes, got, want)
		}
	}
	if w.epoch > 600 {
		t.Fatalf("epoch %d never wrapped", w.epoch)
	}
}

// TestBallStopsAtTheCap pins the point of the bounded walk: a long path is
// not walked past the level that fills the cap.
func TestBallStopsAtTheCap(t *testing.T) {
	g := New(1000)
	for i := 0; i < 1000; i++ {
		g.AddNode(Article)
	}
	for i := 1; i < 1000; i++ {
		if err := g.AddEdge(NodeID(i-1), NodeID(i), Link); err != nil {
			t.Fatal(err)
		}
	}
	w := &walkScratch{}
	if got := g.ball(w, []NodeID{0}, 500, 10, nil); len(got) != 10 {
		t.Fatalf("ball = %v, want the 10 nearest nodes", got)
	}
	if len(w.queue) != 10 {
		t.Errorf("the walk reached %d nodes for a cap of 10", len(w.queue))
	}
	if got := g.ball(w, []NodeID{0}, 3, 1000, nil); len(got) != 4 || len(w.queue) != 4 {
		t.Errorf("radius 3 reached %d nodes and returned %v, want 4", len(w.queue), got)
	}
}

// TestBallUnboundedRadius: a radius of math.MaxInt bounds nothing. On a
// four-node path it reaches every node, as radius 10 does; the walk's level
// test once computed radius+1, which wraps there, and returned the source
// alone.
func TestBallUnboundedRadius(t *testing.T) {
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(Article)
	}
	for i := 1; i < 4; i++ {
		if err := g.AddEdge(NodeID(i-1), NodeID(i), Link); err != nil {
			t.Fatal(err)
		}
	}
	want := []NodeID{0, 1, 2, 3}
	for _, radius := range []int{10, math.MaxInt - 1, math.MaxInt} {
		if got := g.Ball([]NodeID{0}, radius, math.MaxInt, nil); !slices.Equal(got, want) {
			t.Errorf("Ball(radius %d) = %v, want %v", radius, got, want)
		}
	}
}

func TestInduceMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(seed, 60)
		nodes := randomSources(rng, g, g.NumNodes())
		got, want := g.Induce(nodes), referenceInduce(g, nodes)
		if !reflect.DeepEqual(got.ToSub, want.ToSub) || !slices.Equal(got.ToParent, want.ToParent) {
			t.Fatalf("seed %d: node maps differ: %v / %v, want %v / %v", seed, got.ToSub, got.ToParent, want.ToSub, want.ToParent)
		}
		// Edges lists every node's outgoing arcs in stored order. The
		// incoming lists' order was never specified (the reference's follows
		// a map iteration), so they are compared as sets.
		if !reflect.DeepEqual(got.Edges(), want.Edges()) || got.NumEdges() != want.NumEdges() {
			t.Fatalf("seed %d: edges differ: %v, want %v", seed, got.Edges(), want.Edges())
		}
		for n := 0; n < want.NumNodes(); n++ {
			if g.Kind(want.ToParent[n]) != got.Kind(NodeID(n)) {
				t.Fatalf("seed %d: node %d changed kind", seed, n)
			}
			in := func(s *Subgraph) []Arc {
				arcs := append([]Arc(nil), s.In(NodeID(n))...)
				sort.Slice(arcs, func(i, j int) bool {
					if arcs[i].To != arcs[j].To {
						return arcs[i].To < arcs[j].To
					}
					return arcs[i].Kind < arcs[j].Kind
				})
				return arcs
			}
			if !reflect.DeepEqual(in(got), in(want)) {
				t.Fatalf("seed %d: incoming arcs of %d differ: %v, want %v", seed, n, in(got), in(want))
			}
		}
	}
}
