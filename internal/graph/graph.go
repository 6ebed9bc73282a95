// Package graph implements the typed directed multigraph underlying the
// Wikipedia model and every structural analysis in the paper: typed
// adjacency and the DOT rendering of a node list's induced subgraph. The
// expander's neighbourhood is walked, and components, triangles and cycles
// are measured, on the undirected view package cycles builds over a node
// list; Induce and BFSDistances remain as the tests' oracles and for
// bench/'s replay.
//
// Nodes carry a NodeKind (article or category) and edges an EdgeKind (link,
// belongs, inside, redirect), mirroring the paper's Figure 1 schema. The
// graph itself does not enforce schema constraints between kinds — that is
// the wiki layer's job — but it preserves kinds so analyses can filter on
// them (for example, cycle mining ignores redirect edges because a redirect
// can never close a cycle).
package graph

import (
	"fmt"
	"sort"
)

// NodeID is a dense identifier allocated by the graph, starting at 0.
type NodeID uint32

// NodeKind distinguishes the two entry types of the paper's schema.
type NodeKind uint8

// Node kinds.
const (
	Article NodeKind = iota
	Category
)

func (k NodeKind) String() string {
	switch k {
	case Article:
		return "article"
	case Category:
		return "category"
	}
	return fmt.Sprintf("NodeKind(%d)", uint8(k))
}

// EdgeKind distinguishes the relation types of the paper's schema.
type EdgeKind uint8

// Edge kinds.
const (
	Link     EdgeKind = iota // article -> article
	Belongs                  // article -> category
	Inside                   // category -> category
	Redirect                 // redirect article -> main article
)

func (k EdgeKind) String() string {
	switch k {
	case Link:
		return "link"
	case Belongs:
		return "belongs"
	case Inside:
		return "inside"
	case Redirect:
		return "redirects_to"
	}
	return fmt.Sprintf("EdgeKind(%d)", uint8(k))
}

// Arc is one directed adjacency entry.
type Arc struct {
	To   NodeID
	Kind EdgeKind
}

// Edge is a fully-specified directed edge, as returned by Edges.
type Edge struct {
	From, To NodeID
	Kind     EdgeKind
}

// Graph is a directed multigraph with typed nodes and edges. The zero value
// is an empty graph ready for use. Graph is not safe for concurrent
// mutation; once built it is safe for concurrent reads.
type Graph struct {
	kinds []NodeKind
	out   [][]Arc
	in    [][]Arc
	edges int
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	return &Graph{
		kinds: make([]NodeKind, 0, n),
		out:   make([][]Arc, 0, n),
		in:    make([][]Arc, 0, n),
	}
}

// AddNode allocates a new node of the given kind and returns its ID.
func (g *Graph) AddNode(kind NodeKind) NodeID {
	id := NodeID(len(g.kinds))
	g.kinds = append(g.kinds, kind)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddEdge inserts a directed edge. It returns an error if either endpoint
// does not exist or the edge would be a self-loop (the Wikipedia schema has
// no self-relations). Parallel edges of different kinds are allowed;
// duplicate (from, to, kind) triples are rejected.
func (g *Graph) AddEdge(from, to NodeID, kind EdgeKind) error {
	if int(from) >= len(g.kinds) {
		return fmt.Errorf("graph: unknown source node %d", from)
	}
	if int(to) >= len(g.kinds) {
		return fmt.Errorf("graph: unknown target node %d", to)
	}
	if from == to {
		return fmt.Errorf("graph: self-loop on node %d rejected", from)
	}
	for _, a := range g.out[from] {
		if a.To == to && a.Kind == kind {
			return fmt.Errorf("graph: duplicate %s edge %d->%d", kind, from, to)
		}
	}
	g.out[from] = append(g.out[from], Arc{To: to, Kind: kind})
	g.in[to] = append(g.in[to], Arc{To: from, Kind: kind})
	g.edges++
	return nil
}

// Load reconstructs a graph directly from its raw adjacency — node kinds
// and per-node outgoing arc lists in stored order — without replaying
// AddEdge's per-edge duplicate scan. This is the decode path of the binary
// snapshot subsystem (internal/store): the input is trusted to originate
// from a Graph (it is checksummed on disk), so only structural bounds are
// validated. The incoming-arc lists are derived; their internal order is
// unspecified, which is safe because no exported API exposes it unsorted.
// The given slices are owned by the graph afterwards.
func Load(kinds []NodeKind, out [][]Arc) (*Graph, error) {
	if len(kinds) != len(out) {
		return nil, fmt.Errorf("graph: load: %d kinds but %d adjacency lists", len(kinds), len(out))
	}
	n := len(kinds)
	g := &Graph{kinds: kinds, out: out, in: make([][]Arc, n)}
	indeg := make([]int, n)
	for from, arcs := range out {
		for _, a := range arcs {
			if int(a.To) >= n {
				return nil, fmt.Errorf("graph: load: arc %d->%d beyond %d nodes", from, a.To, n)
			}
			if int(a.To) == from {
				return nil, fmt.Errorf("graph: load: self-loop on node %d", from)
			}
			indeg[a.To]++
			g.edges++
		}
	}
	for to, d := range indeg {
		if d > 0 {
			g.in[to] = make([]Arc, 0, d)
		}
	}
	for from, arcs := range out {
		for _, a := range arcs {
			g.in[a.To] = append(g.in[a.To], Arc{To: NodeID(from), Kind: a.Kind})
		}
	}
	return g, nil
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.kinds) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.edges }

// Kind returns the kind of node n. It panics on an invalid ID, consistent
// with slice indexing: node IDs are only minted by AddNode.
func (g *Graph) Kind(n NodeID) NodeKind { return g.kinds[n] }

// Valid reports whether n is an allocated node ID.
func (g *Graph) Valid(n NodeID) bool { return int(n) < len(g.kinds) }

// Out returns the outgoing arcs of n. The returned slice is owned by the
// graph and must not be modified.
func (g *Graph) Out(n NodeID) []Arc { return g.out[n] }

// In returns the incoming arcs of n (Arc.To holds the source). The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) In(n NodeID) []Arc { return g.in[n] }

// HasEdge reports whether a directed edge (from, to, kind) exists.
func (g *Graph) HasEdge(from, to NodeID, kind EdgeKind) bool {
	for _, a := range g.out[from] {
		if a.To == to && a.Kind == kind {
			return true
		}
	}
	return false
}

// EdgesBetween counts directed edges between a and b in both directions,
// excluding the kinds in exclude. This is E(C)'s building block: the cycle
// density formula counts every directed edge among the cycle's nodes.
func (g *Graph) EdgesBetween(a, b NodeID, exclude func(EdgeKind) bool) int {
	n := 0
	for _, arc := range g.out[a] {
		if arc.To == b && (exclude == nil || !exclude(arc.Kind)) {
			n++
		}
	}
	for _, arc := range g.out[b] {
		if arc.To == a && (exclude == nil || !exclude(arc.Kind)) {
			n++
		}
	}
	return n
}

// Edges returns all directed edges in deterministic order (by source, then
// insertion order).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for from := range g.out {
		for _, a := range g.out[from] {
			out = append(out, Edge{From: NodeID(from), To: a.To, Kind: a.Kind})
		}
	}
	return out
}

// Neighbors returns the deduplicated, sorted undirected neighbors of n,
// considering edges in both directions and skipping kinds for which exclude
// returns true. A nil exclude keeps every kind.
func (g *Graph) Neighbors(n NodeID, exclude func(EdgeKind) bool) []NodeID {
	seen := make(map[NodeID]struct{})
	for _, a := range g.out[n] {
		if exclude == nil || !exclude(a.Kind) {
			seen[a.To] = struct{}{}
		}
	}
	for _, a := range g.in[n] {
		if exclude == nil || !exclude(a.Kind) {
			seen[a.To] = struct{}{}
		}
	}
	out := make([]NodeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NodesOfKind returns all node IDs of the given kind in ascending order.
func (g *Graph) NodesOfKind(kind NodeKind) []NodeID {
	var out []NodeID
	for i, k := range g.kinds {
		if k == kind {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// CountKind returns the number of nodes of the given kind.
func (g *Graph) CountKind(kind NodeKind) int {
	n := 0
	for _, k := range g.kinds {
		if k == kind {
			n++
		}
	}
	return n
}

// ExcludeRedirects is the standard edge filter of the structural analysis:
// the paper observes that redirect edges can never close a cycle (a redirect
// article has exactly one outgoing relation), so cycle mining and component
// statistics operate on the link/belongs/inside view.
func ExcludeRedirects(k EdgeKind) bool { return k == Redirect }
