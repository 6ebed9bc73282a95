package graph

import (
	"slices"
	"sync"
)

// walkScratch is the dense state of one level-order walk. stamp[n] == epoch
// marks n as reached by the current walk, so a walk pays for the nodes it
// touches, never for clearing or hashing the whole graph. It comes from a
// pool per call, so it may have served a graph of any size before.
type walkScratch struct {
	stamp []uint32
	epoch uint32
	// queue holds the reached nodes in discovery order; level[d] is where
	// distance d starts in it, with one closing entry at the end.
	queue []NodeID
	level []int
}

var walkPool = sync.Pool{New: func() any { return new(walkScratch) }}

// walk runs the multi-source breadth-first walk of the undirected view of g
// under the filter, one whole level at a time, to the end of what the
// sources reach. Invalid and repeated sources are skipped.
func (g *Graph) walk(w *walkScratch, sources []NodeID, exclude func(EdgeKind) bool) {
	if len(w.stamp) < len(g.kinds) {
		w.stamp, w.epoch = make([]uint32, len(g.kinds)), 0
	}
	if w.epoch++; w.epoch == 0 { // wrapped: a stale stamp could pass for this walk's
		clear(w.stamp)
		w.epoch = 1
	}
	w.queue, w.level = w.queue[:0], append(w.level[:0], 0)
	reach := func(n NodeID) {
		if w.stamp[n] != w.epoch {
			w.stamp[n] = w.epoch
			w.queue = append(w.queue, n)
		}
	}
	for _, s := range sources {
		if g.Valid(s) {
			reach(s)
		}
	}
	for start := 0; start < len(w.queue); {
		end := len(w.queue)
		w.level = append(w.level, end)
		for _, cur := range w.queue[start:end] {
			for _, a := range g.out[cur] {
				if exclude == nil || !exclude(a.Kind) {
					reach(a.To)
				}
			}
			for _, a := range g.in[cur] {
				if exclude == nil || !exclude(a.Kind) {
					reach(a.To)
				}
			}
		}
		start = end
	}
}

// BFSDistances returns the undirected hop distance from each of the sources
// to every reachable node under the filter. Unreachable nodes are absent
// from the map. Multiple sources give the multi-source distance (minimum
// over sources). Only the tests, as an oracle, and bench/'s replay of a
// cold expansion call it: the expander walks its ball into a cycles.Miner,
// and the analysis measures G(q)'s distances inside G(q), on such a view.
func (g *Graph) BFSDistances(sources []NodeID, exclude func(EdgeKind) bool) map[NodeID]int {
	w := walkPool.Get().(*walkScratch)
	defer walkPool.Put(w)
	return g.distances(w, sources, exclude)
}

// distances is BFSDistances on w's storage.
func (g *Graph) distances(w *walkScratch, sources []NodeID, exclude func(EdgeKind) bool) map[NodeID]int {
	g.walk(w, sources, exclude)
	dist := make(map[NodeID]int, len(w.queue))
	for d := 1; d < len(w.level); d++ {
		for _, n := range w.queue[w.level[d-1]:w.level[d]] {
			dist[n] = d - 1
		}
	}
	return dist
}

// Subgraph is an induced subgraph together with the node mappings between
// the parent graph and the subgraph. No production code builds one: the
// miner and the analysis read a node list's subgraph through a
// cycles.Miner, and Induce is the tests' oracle for that view and the
// subgraph bench/'s replay times.
type Subgraph struct {
	*Graph
	// ToSub maps parent IDs to subgraph IDs.
	ToSub map[NodeID]NodeID
	// ToParent maps subgraph IDs back to parent IDs (indexed by subgraph ID).
	ToParent []NodeID
}

// Induce builds the subgraph induced by the given parent nodes: all of the
// nodes, and every edge of the parent whose endpoints are both in the set.
// Duplicate input nodes are ignored. Edge kinds and node kinds carry over;
// subgraph ids ascend with parent ids.
func (g *Graph) Induce(nodes []NodeID) *Subgraph {
	sub := &Subgraph{
		Graph: New(len(nodes)),
		ToSub: make(map[NodeID]NodeID, len(nodes)),
	}
	ordered := slices.Clone(nodes)
	slices.Sort(ordered)
	ordered = slices.Compact(ordered)
	for len(ordered) > 0 && !g.Valid(ordered[len(ordered)-1]) {
		ordered = ordered[:len(ordered)-1] // sorted: the invalid ids are the largest
	}
	sub.ToParent = ordered
	for _, n := range ordered {
		sub.ToSub[n] = sub.Graph.AddNode(g.Kind(n))
	}
	// Parent edges are unique by (from, to, kind) and each is met once, from
	// its source, so the arcs go in without AddEdge's duplicate scan.
	for sid, parent := range sub.ToParent {
		for _, a := range g.out[parent] {
			if tid, ok := sub.ToSub[a.To]; ok {
				sub.out[sid] = append(sub.out[sid], Arc{To: tid, Kind: a.Kind})
				sub.in[tid] = append(sub.in[tid], Arc{To: NodeID(sid), Kind: a.Kind})
				sub.edges++
			}
		}
	}
	return sub
}
