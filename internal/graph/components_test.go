package graph_test

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/querygraph"
	"github.com/querygraph/querygraph/internal/wiki"
)

// A Graph scans neither its components nor its triangles: the analysis
// reads a node list's subgraph through a cycles.Miner (see querygraph).
// These tests hold that view, over graphs of this package's fixtures, to
// what the scans computed and to BFSDistances.

// load wraps g in a snapshot whose node n is named "n<n>".
func load(t *testing.T, g *graph.Graph) *wiki.Snapshot {
	t.Helper()
	names := make([]string, g.NumNodes())
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	snap, err := wiki.Load(g, names)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// allNodes lists every node of g, ascending.
func allNodes(g *graph.Graph) []graph.NodeID {
	nodes := make([]graph.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	return nodes
}

// bfsComponents is the oracle: the components of g, each the nodes
// BFSDistances reaches from its smallest node, in order of that node.
func bfsComponents(g *graph.Graph) [][]graph.NodeID {
	var comps [][]graph.NodeID
	seen := make([]bool, g.NumNodes())
	for s := range g.NumNodes() {
		if seen[s] {
			continue
		}
		var comp []graph.NodeID
		for n := range g.BFSDistances([]graph.NodeID{graph.NodeID(s)}, nil) {
			seen[n] = true
			comp = append(comp, n)
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

func TestComponents(t *testing.T) {
	g, ids := graph.BuildDiamond(t)
	a0, a2, r := ids[0], ids[2], ids[3]
	snap := load(t, g)
	// The redirect connects r to the main component: {a0,a1,r,c0,c1}, {a2}.
	qg := &querygraph.QueryGraph{Snap: snap, Nodes: allNodes(g), QueryArticles: []graph.NodeID{a0, a2}}
	if n := qg.NumComponents(); n != 2 {
		t.Fatalf("got %d components, want 2", n)
	}
	st := qg.LargestComponentStats()
	if st.Size != 5 {
		t.Errorf("largest component has %d nodes, want 5", st.Size)
	}
	if st.QueryNodeFrac != 0.5 {
		t.Errorf("query node fraction = %g, want 0.5: a2 should be the singleton", st.QueryNodeFrac)
	}
	// Leaving r out takes it from the largest component.
	qg.Nodes = slices.DeleteFunc(allNodes(g), func(n graph.NodeID) bool { return n == r })
	if n := qg.NumComponents(); n != 2 {
		t.Fatalf("got %d components without r, want 2", n)
	}
	if st := qg.LargestComponentStats(); st.Size != 4 {
		t.Errorf("largest component without r has %d nodes, want 4", st.Size)
	}
	empty := &querygraph.QueryGraph{Snap: snap, Nodes: []graph.NodeID{}}
	if n, st := empty.NumComponents(), empty.LargestComponentStats(); n != 0 || st != (querygraph.ComponentStats{}) {
		t.Errorf("empty node list: %d components, stats %+v; want 0 and zero stats", n, st)
	}
}

func TestTriangleParticipation(t *testing.T) {
	g := graph.New(5)
	a := g.AddNode(graph.Article)
	b := g.AddNode(graph.Article)
	c := g.AddNode(graph.Category)
	d := g.AddNode(graph.Article)
	// Triangle a-b-c (link + two belongs), d hangs off a.
	for _, e := range []struct {
		from, to graph.NodeID
		kind     graph.EdgeKind
	}{
		{a, b, graph.Link}, {a, c, graph.Belongs}, {b, c, graph.Belongs}, {a, d, graph.Link},
	} {
		if err := g.AddEdge(e.from, e.to, e.kind); err != nil {
			t.Fatal(err)
		}
	}
	snap := load(t, g)
	tpr := func(nodes []graph.NodeID) float64 {
		qg := &querygraph.QueryGraph{Snap: snap, Nodes: nodes}
		return qg.LargestComponentStats().TPR
	}
	if got := tpr([]graph.NodeID{a, b, c, d}); got != 0.75 {
		t.Errorf("TPR = %g, want 0.75", got)
	}
	if got := tpr([]graph.NodeID{}); got != 0 {
		t.Errorf("TPR(empty) = %g, want 0", got)
	}
	// Restricting the node set to a,b,d has no triangle.
	if got := tpr([]graph.NodeID{a, b, d}); got != 0 {
		t.Errorf("TPR(no triangle subset) = %g, want 0", got)
	}
}

// Property: the components partition the node set exactly. There are as
// many as the oracle finds, the largest is the largest of them, each is
// connected on its own, and taking one away leaves the others.
func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomGraph(seed, 60)
		snap := load(t, g)
		comps := bfsComponents(g)
		qg := &querygraph.QueryGraph{Snap: snap, Nodes: allNodes(g)}
		largest := 0
		for _, comp := range comps {
			largest = max(largest, len(comp))
		}
		if qg.NumComponents() != len(comps) || qg.LargestComponentStats().Size != largest {
			return false
		}
		for _, comp := range comps {
			one := &querygraph.QueryGraph{Snap: snap, Nodes: comp}
			if one.NumComponents() != 1 || one.LargestComponentStats().Size != len(comp) {
				return false
			}
			rest := &querygraph.QueryGraph{Snap: snap, Nodes: slices.DeleteFunc(allNodes(g), func(n graph.NodeID) bool {
				_, in := slices.BinarySearch(comp, n)
				return in
			})}
			if rest.NumComponents() != len(comps)-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: from every node, the largest component is reached exactly
// when the node is in it, and then at BFS distances: the node as the one
// query article and the component's other nodes as features give a full
// query-node fraction and the farthest feature's BFS distance.
func TestComponentsReachabilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomGraph(seed, 40)
		snap := load(t, g)
		var largest []graph.NodeID // first of the largest, by smallest node
		for _, comp := range bfsComponents(g) {
			if len(comp) > len(largest) {
				largest = comp
			}
		}
		for _, v := range allNodes(g) {
			_, in := slices.BinarySearch(largest, v)
			qg := &querygraph.QueryGraph{
				Snap:          snap,
				Nodes:         allNodes(g),
				QueryArticles: []graph.NodeID{v},
				Expansion:     slices.DeleteFunc(slices.Clone(largest), func(n graph.NodeID) bool { return n == v }),
			}
			st := qg.LargestComponentStats()
			if !in {
				if st.QueryNodeFrac != 0 || st.MaxExpansionDistance != 0 {
					return false
				}
				continue
			}
			farthest := 0
			for _, d := range g.BFSDistances([]graph.NodeID{v}, nil) {
				farthest = max(farthest, d)
			}
			if st.QueryNodeFrac != 1 || st.MaxExpansionDistance != farthest {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: TPR is always within [0, 1].
func TestTPRBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.RandomGraph(seed, 40)
		qg := &querygraph.QueryGraph{Snap: load(t, g), Nodes: allNodes(g)}
		tpr := qg.LargestComponentStats().TPR
		return tpr >= 0 && tpr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
