// Package querygraph assembles and characterizes the paper's query graphs
// (Section 2.3 and Table 3).
//
// Given a query q, its query graph G(q) is the subgraph of Wikipedia
// induced by: the articles of X(q) = L(q.k) ∪ A', the main articles of any
// redirects among them, and the categories of those articles. G(q)
// represents the query's entities, the best expansion features, and the
// semantics the categories provide.
//
// A QueryGraph holds G(q) as its ascending node list. Its statistics read
// the subgraph through the one view the expander mines too, a
// cycles.Miner over that list: components and distances by level-order
// walks over the Miner's rows, triangles as its cycles of length three.
package querygraph

import (
	"fmt"
	"slices"

	"github.com/querygraph/querygraph/internal/cycles"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/wiki"
)

// QueryGraph is one assembled G(q). Node sets are stored as snapshot IDs.
type QueryGraph struct {
	Snap *wiki.Snapshot
	// Nodes are the nodes of G(q), ascending; G(q) is the subgraph they
	// induce in Snap's graph.
	Nodes []graph.NodeID
	// QueryArticles is L(q.k): the articles mentioned in the query keywords
	// (ascending).
	QueryArticles []graph.NodeID
	// Expansion is A': the expansion-feature articles (ascending); disjoint
	// from QueryArticles.
	Expansion []graph.NodeID
}

// Assemble builds G(q) from the query articles L(q.k) and the expansion set
// A'. Redirect articles bring in their main article; every main article
// brings in its categories. Unknown node IDs are rejected.
func Assemble(snap *wiki.Snapshot, queryArticles, expansion []graph.NodeID) (*QueryGraph, error) {
	g := snap.Graph()
	var nodes []graph.NodeID
	for _, id := range slices.Concat(queryArticles, expansion) {
		if !g.Valid(id) {
			return nil, fmt.Errorf("querygraph: unknown node %d", id)
		}
		if g.Kind(id) != graph.Article {
			return nil, fmt.Errorf("querygraph: node %d (%q) is a %s, want article",
				id, snap.Name(id), g.Kind(id))
		}
		main := snap.MainOf(id)
		nodes = append(append(nodes, id, main), snap.CategoriesOf(main)...)
	}
	slices.Sort(nodes)
	qa := slices.Compact(slices.Sorted(slices.Values(queryArticles)))
	exp := slices.DeleteFunc(slices.Compact(slices.Sorted(slices.Values(expansion))), func(id graph.NodeID) bool {
		_, dup := slices.BinarySearch(qa, id)
		return dup
	})
	return &QueryGraph{Snap: snap, Nodes: slices.Compact(nodes), QueryArticles: qa, Expansion: exp}, nil
}

// Size returns the number of nodes in G(q).
func (qg *QueryGraph) Size() int { return len(qg.Nodes) }

// ComponentStats are the per-query measurements behind the paper's Table 3,
// all computed on the largest connected component of G(q).
type ComponentStats struct {
	// Size is the node count of the largest connected component.
	Size int
	// RelSize is Size divided by the total query-graph size (%size).
	RelSize float64
	// QueryNodeFrac is the fraction of L(q.k) articles inside the component
	// (%query nodes).
	QueryNodeFrac float64
	// ArticleFrac and CategoryFrac partition the component's nodes
	// (%articles, %categories).
	ArticleFrac, CategoryFrac float64
	// ExpansionRatio is the number of expansion features in the component
	// per query article in the component; 0 when the component holds no
	// query article (the paper's convention).
	ExpansionRatio float64
	// TPR is the triangle participation ratio of the component (the paper
	// reports ~0.3 on average).
	TPR float64
	// MaxExpansionDistance is the largest hop distance from a query article
	// to an expansion feature within the component (the paper observes
	// features up to distance three), or 0 when not measurable.
	MaxExpansionDistance int
}

// LargestComponentStats measures the largest connected component, the
// first in order of smallest node among those of the largest size. An
// empty query graph yields zero stats.
func (qg *QueryGraph) LargestComponentStats() ComponentStats {
	var st ComponentStats
	if len(qg.Nodes) == 0 {
		return st
	}
	m := cycles.NewMiner(qg.Snap.Graph(), qg.Nodes, nil)
	defer m.Release()
	_, comp := components(m)
	st.Size = len(comp)
	st.RelSize = float64(len(comp)) / float64(m.Len())

	inComp := make([]bool, m.Len())
	for _, v := range comp {
		inComp[v] = true
	}
	// in returns the ids of the listed articles in the component, as
	// positions in Nodes.
	in := func(articles []graph.NodeID) []graph.NodeID {
		var out []graph.NodeID
		for _, a := range articles {
			if i, ok := slices.BinarySearch(qg.Nodes, a); ok && inComp[i] {
				out = append(out, graph.NodeID(i))
			}
		}
		return out
	}
	queryIn, expIn := in(qg.QueryArticles), in(qg.Expansion)
	if len(qg.QueryArticles) > 0 {
		st.QueryNodeFrac = float64(len(queryIn)) / float64(len(qg.QueryArticles))
	}
	if len(queryIn) > 0 {
		st.ExpansionRatio = float64(len(expIn)) / float64(len(queryIn))
	}

	// A node takes part in a triangle when it is on a cycle of three.
	onTriangle := make([]bool, m.Len())
	_ = m.Walk(nil, 3, func(c cycles.Metrics) error { // 3 is a valid length, and visit never fails
		if c.Length == 3 {
			for _, v := range m.Cycle().Nodes {
				onTriangle[v] = true
			}
		}
		return nil
	})
	articles, triangles := 0, 0
	for _, v := range comp {
		if m.Kind(v) == graph.Article {
			articles++
		}
		if onTriangle[v] {
			triangles++
		}
	}
	st.ArticleFrac = float64(articles) / float64(len(comp))
	st.CategoryFrac = float64(len(comp)-articles) / float64(len(comp))
	st.TPR = float64(triangles) / float64(len(comp))

	// Distance from the query articles to the expansion features, measured
	// inside G(q): the walk from the component's query articles stays in it.
	dist := unreached(m.Len())
	walk(m, dist, queryIn)
	for _, e := range expIn {
		st.MaxExpansionDistance = max(st.MaxExpansionDistance, dist[e])
	}
	return st
}

// NumComponents returns the number of connected components of G(q). The
// paper observes that query graphs are generally disconnected, with one
// moderately large component and several trivial ones.
func (qg *QueryGraph) NumComponents() int {
	m := cycles.NewMiner(qg.Snap.Graph(), qg.Nodes, nil)
	defer m.Release()
	n, _ := components(m)
	return n
}

// components walks m's view one connected component at a time, in order
// of their smallest node, and returns how many there are and the nodes of
// the first of the largest.
func components(m *cycles.Miner) (n int, largest []graph.NodeID) {
	dist := unreached(m.Len())
	for s := range m.Len() {
		if dist[s] < 0 {
			n++
			if comp := walk(m, dist, []graph.NodeID{graph.NodeID(s)}); len(comp) > len(largest) {
				largest = comp
			}
		}
	}
	return n, largest
}

// unreached returns n distances of -1: no node reached yet.
func unreached(n int) []int {
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	return dist
}

// walk is a level-order walk of m's view from the sources: it sets the
// distance from them of every node it reaches that dist holds no distance
// for, and returns those nodes, nearest first.
func walk(m *cycles.Miner, dist []int, sources []graph.NodeID) []graph.NodeID {
	var reached []graph.NodeID
	for _, s := range sources {
		if dist[s] < 0 {
			dist[s] = 0
			reached = append(reached, s)
		}
	}
	for head := 0; head < len(reached); head++ {
		v := reached[head]
		for w := range m.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				reached = append(reached, w)
			}
		}
	}
	return reached
}
