// Package cycles implements the structural analysis at the heart of the
// paper's Section 3: enumerating the undirected cycles of a query graph and
// measuring the characteristics that correlate with expansion quality.
//
// A cycle is a sequence of |C| distinct nodes (articles or categories),
// start and end at the same node, with at least one edge — in either
// direction — between each pair of consecutive nodes. Cycles need not be
// chordless, direction is ignored, lengths are limited (the paper uses 5,
// because enumeration cost grows exponentially with length), and only
// cycles containing at least one query article are of interest. Redirect
// edges are excluded: a redirect article has a single relation and can
// never close a cycle.
//
// A length-2 cycle is a pair of articles linked in both directions (the
// paper's Figure 4a).
package cycles

import (
	"fmt"
	"slices"
	"sort"

	"github.com/querygraph/querygraph/internal/graph"
)

// MaxSupportedLength bounds enumeration; the paper limits cycles to length
// 5 and so does this implementation's analysis, but the enumerator accepts
// any small bound.
const MaxSupportedLength = 8

// Cycle is one enumerated cycle in canonical form: Nodes[0] is the smallest
// node ID in the cycle, and Nodes[1] < Nodes[len-1] (so each rotation/
// reflection class appears exactly once).
type Cycle struct {
	Nodes []graph.NodeID
}

// Len returns |C|.
func (c Cycle) Len() int { return len(c.Nodes) }

// Contains reports whether the cycle includes node n.
func (c Cycle) Contains(n graph.NodeID) bool {
	for _, m := range c.Nodes {
		if m == n {
			return true
		}
	}
	return false
}

// Enumerate returns every cycle of length 2..maxLen in the undirected view
// of g (edges filtered by exclude; nil keeps all kinds) that contains at
// least one seed node. A nil seed set disables the seed filter and returns
// every cycle — the analysis always passes L(q.k), but the generic form is
// useful for whole-graph statistics.
//
// Cycles are returned in deterministic order (by length, then
// lexicographic node sequence).
func Enumerate(g *graph.Graph, seeds []graph.NodeID, maxLen int, exclude func(graph.EdgeKind) bool) ([]Cycle, error) {
	if maxLen < 2 {
		return nil, fmt.Errorf("cycles: maxLen must be >= 2, got %d", maxLen)
	}
	if maxLen > MaxSupportedLength {
		return nil, fmt.Errorf("cycles: maxLen %d exceeds supported maximum %d", maxLen, MaxSupportedLength)
	}
	var seedSet map[graph.NodeID]struct{}
	if seeds != nil {
		seedSet = make(map[graph.NodeID]struct{}, len(seeds))
		for _, s := range seeds {
			if !g.Valid(s) {
				return nil, fmt.Errorf("cycles: unknown seed node %d", s)
			}
			seedSet[s] = struct{}{}
		}
	}
	keep := func(nodes []graph.NodeID) bool {
		if seedSet == nil {
			return true
		}
		for _, n := range nodes {
			if _, ok := seedSet[n]; ok {
				return true
			}
		}
		return false
	}

	n := g.NumNodes()
	adj := make([][]graph.NodeID, n)
	for i := 0; i < n; i++ {
		adj[i] = g.Neighbors(graph.NodeID(i), exclude)
	}

	var out []Cycle

	// Length-2 cycles: pairs connected by at least two directed edges.
	for a := 0; a < n; a++ {
		for _, b := range adj[a] {
			if graph.NodeID(a) >= b {
				continue
			}
			if g.EdgesBetween(graph.NodeID(a), b, exclude) >= 2 {
				nodes := []graph.NodeID{graph.NodeID(a), b}
				if keep(nodes) {
					out = append(out, Cycle{Nodes: nodes})
				}
			}
		}
	}

	// Lengths >= 3: DFS from each start node s, visiting only nodes > s so
	// that s is the canonical minimum; a cycle is emitted when the path can
	// close back to s. Reflections are suppressed by requiring
	// path[1] < path[len-1].
	if maxLen >= 3 {
		path := make([]graph.NodeID, 0, maxLen)
		onPath := make([]bool, n)
		var dfs func(s graph.NodeID, cur graph.NodeID)
		dfs = func(s, cur graph.NodeID) {
			for _, next := range adj[cur] {
				if next == s && len(path) >= 3 && path[1] < path[len(path)-1] {
					nodes := append([]graph.NodeID(nil), path...)
					if keep(nodes) {
						out = append(out, Cycle{Nodes: nodes})
					}
					continue
				}
				if next <= s || onPath[next] || len(path) >= maxLen {
					continue
				}
				path = append(path, next)
				onPath[next] = true
				dfs(s, next)
				onPath[next] = false
				path = path[:len(path)-1]
			}
		}
		for s := 0; s < n; s++ {
			path = append(path[:0], graph.NodeID(s))
			onPath[s] = true
			dfs(graph.NodeID(s), graph.NodeID(s))
			onPath[s] = false
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Nodes, out[j].Nodes
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out, nil
}

// AppendArticles appends the article nodes of the cycle to dst, ascending.
// This is the set used as expansion features: "in L(q.k) ∪ C we only
// consider the articles in C but ignore the categories". Appending lets a
// caller measuring thousands of cycles keep them all in one allocation.
func AppendArticles(dst []graph.NodeID, g *graph.Graph, c Cycle) []graph.NodeID {
	start := len(dst)
	for _, n := range c.Nodes {
		if g.Kind(n) == graph.Article {
			dst = append(dst, n)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// Metrics are the per-cycle measurements of the paper's Section 3.
type Metrics struct {
	Length     int
	Articles   int
	Categories int
	// CategoryRatio is Categories / Length (Figure 7a).
	CategoryRatio float64
	// Edges is E(C): the number of edges among the cycle's nodes, counting
	// both directions for article pairs (capped at each pair's schema
	// maximum so density stays within [0, 1]).
	Edges int
	// MaxEdges is the paper's M(C) = A(A-1) + A·K + K(K-1)/2.
	MaxEdges int
	// ExtraEdgeDensity is (E(C) − |C|) / (M(C) − |C|) (Figure 7b); defined
	// as 0 when M(C) = |C| (no room for extra edges, e.g. any 2-cycle).
	ExtraEdgeDensity float64
}

// Measure computes the metrics of one cycle against the graph it was
// enumerated from, using the same edge filter.
func Measure(g *graph.Graph, c Cycle, exclude func(graph.EdgeKind) bool) (Metrics, error) {
	if len(c.Nodes) < 2 {
		return Metrics{}, fmt.Errorf("cycles: cycle of length %d", len(c.Nodes))
	}
	var m Metrics
	m.Length = len(c.Nodes)
	for _, n := range c.Nodes {
		if !g.Valid(n) {
			return Metrics{}, fmt.Errorf("cycles: unknown node %d in cycle", n)
		}
		if g.Kind(n) == graph.Article {
			m.Articles++
		} else {
			m.Categories++
		}
	}
	m.CategoryRatio = float64(m.Categories) / float64(m.Length)

	for i := 0; i < len(c.Nodes); i++ {
		for j := i + 1; j < len(c.Nodes); j++ {
			a, b := c.Nodes[i], c.Nodes[j]
			e := g.EdgesBetween(a, b, exclude)
			if max := pairCapacity(g.Kind(a), g.Kind(b)); e > max {
				e = max
			}
			m.Edges += e
		}
	}
	a, k := m.Articles, m.Categories
	m.MaxEdges = a*(a-1) + a*k + k*(k-1)/2
	if m.MaxEdges > m.Length {
		m.ExtraEdgeDensity = float64(m.Edges-m.Length) / float64(m.MaxEdges-m.Length)
	}
	return m, nil
}

// pairCapacity is the schema maximum of countable edges between two nodes:
// two articles may link in both directions; an article belongs to a
// category at most once; a category nests inside another at most once.
func pairCapacity(a, b graph.NodeKind) int {
	if a == graph.Article && b == graph.Article {
		return 2
	}
	return 1
}
