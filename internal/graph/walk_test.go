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

// TestBFSDistancesMatchesReference holds BFSDistances to the map-based
// walk it replaced. The graphs also share one scratch, of all sizes, whose
// epoch is driven across its wrap-around on the way.
func TestBFSDistancesMatchesReference(t *testing.T) {
	w := &walkScratch{}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(seed, 80)
		sources, exclude := randomSources(rng, g, 4), randomFilter(rng)
		want := referenceBFSDistances(g, sources, exclude)
		if got := g.BFSDistances(sources, exclude); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: BFSDistances(%v) = %v, want %v", seed, sources, got, want)
		}
		if seed == 150 {
			w.epoch = math.MaxUint32 - 2 // wraps within the next three walks
		}
		if got := g.distances(w, sources, exclude); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (epoch %d): distances(%v) = %v, want %v", seed, w.epoch, sources, got, want)
		}
	}
	if w.epoch > 300 {
		t.Fatalf("epoch %d never wrapped", w.epoch)
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
