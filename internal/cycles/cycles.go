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
	"cmp"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/querygraph/querygraph/internal/graph"
)

// MaxSupportedLength bounds enumeration; the paper limits cycles to length
// 5 and so does this implementation's analysis, but the enumerator accepts
// any small bound.
const MaxSupportedLength = 8

// MaxViewNodes bounds the node count of the views callers ask for from
// outside input: a view of n nodes costs 2·n·⌈n/64⌉·8 bytes, 45 KB at the
// expander's default cap of 400 nodes and 4 MiB here.
const MaxViewNodes = 4096

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

// Miner is the undirected view, under one edge filter, of the subgraph a
// node list induces in a graph, that cycle mining and the query-graph
// analysis read, built once straight from the graph's adjacency, with no
// subgraph in between: each node's kind, a bitset row of the articles, and
// two bitset rows per node — its neighbours, and the neighbours it shares
// two or more edges with — which the walk scans to go one level down and
// intersects to close its last level and to choose what it enters at the
// level before. Its node ids are positions in the list, Nodes. Get one from
// NewMiner, or from NewBallMiner and Induce, and Release it after use; a
// Miner serves one goroutine.
type Miner struct {
	kind []graph.NodeKind
	// nodes lists the view's nodes as ids of the graph, view id order, and
	// sources the view ids of the sources NewBallMiner kept: nodes' prefix.
	nodes, sources []graph.NodeID
	// Bit b of row a, bits[a*words:][:words], is set when b is a neighbour
	// of a, and the same bit of two[a*words:][:words] when EdgesBetween(a,
	// b) ≥ 2, uncapped; bit b of articles is set when b is an article.
	// words is ⌈n/64⌉.
	bits, two, articles []uint64
	words               int
	// Bit w of occupied[a] is set when word w of a's neighbour row is
	// nonzero (a row has at most 64 words): the words reach, dfs,
	// closedCount and Neighbors read. closers reads every word from its
	// first on, which on views of a few words measured faster than
	// skipping the empty ones.
	occupied []uint64
	// index[p] is one more than the view id of graph node p from when the
	// node list is known until the rows are built, and 0 otherwise: the
	// ball walk's visited set, and the row build's way from an arc's head
	// to its view id. Only listed nodes are ever set, and they are cleared
	// again, so a build pays for the nodes it lists, never for the size of
	// g. g and exclude are the graph and filter of a ball walked and not
	// yet induced, and nil otherwise.
	index   []uint32
	g       *graph.Graph
	exclude func(graph.EdgeKind) bool
	// Poll, when set, is asked once per pollEvery cycles found whether the
	// walk may go on (a request sets it to a check of its ctx); the error it
	// returns ends Walk and Enumerate, which return it.
	Poll func() error
	// Keep, when set, is the filter a cycle must pass for Walk to hand it
	// to its visitor; nil keeps every cycle. It sees each possible Metrics
	// of the lengths the visitor may be handed once per Walk, before the
	// walk starts, and must be a function of them alone.
	Keep func(Metrics) bool
	// Measure is the longest length Walk measures; 0, or less, measures
	// every length. The cycles of more nodes are counted and not measured: they
	// add to Found, at most 64 at a time, but Keep never sees them and the
	// visitor is never handed one. A caller that ranks the shorter lengths
	// first and may not reach the longer ones walks this way first.
	Measure int
	// Found counts the cycles the last Walk closed, those Keep rejected
	// and those counted beyond Measure included.
	Found int

	// State of one Walk: dist is the distance from the current seed of the
	// nodes in reached — but blocked for those the walk may not enter (the
	// ones on the path, and seeds whose cycles are all found) — and far
	// everywhere else, and bit v of blockedBits is set exactly when dist[v]
	// is blocked; seedRow is the current seed's bitset row; arts[k] and
	// edges[k] count the articles among path[:k] and the capped edges
	// between them; kept[i] is Keep's verdict on measured[i]; err is what
	// visit or Poll said, once one says stop.
	maxLen      int
	err         error
	visit       func(Metrics) error
	kept        []bool
	seeds       []graph.NodeID
	seedRow     []uint64
	dist        []uint8
	blockedBits []uint64
	reached     []graph.NodeID
	path        []graph.NodeID
	arts        [MaxSupportedLength + 1]int
	edges       [MaxSupportedLength + 1]int
	canon       [MaxSupportedLength]graph.NodeID
	// longest is the longest length the visitor may be handed, Measure's:
	// record and closeLast count the cycles longer than it. shared[v] is,
	// while closedCount runs, the number of the seed's open neighbours
	// that are next to v, and 0 otherwise.
	longest int
	shared  []int32
}

// pollEvery is how many cycles the walk finds between two calls of Poll:
// enumeration cost grows exponentially with length, so an abandoned
// request must be able to stop its walk, and 256 cycles are microseconds.
const pollEvery = 256

// far is the dist of a node the current seed does not reach in time, and
// blocked that of one the walk may not enter; both are beyond any maxLen.
const far, blocked = math.MaxUint8, math.MaxUint8 - 1

var minerPool = sync.Pool{New: func() any { return new(Miner) }}

// NewMiner builds the mining view of the subgraph of g that nodes induce
// (edges filtered by exclude; nil keeps all kinds): node i of the view is
// nodes[i], and its edges are those of g between listed nodes. nodes must
// be ascending ids of g without repeats — then the view is, id for id,
// g.Induce(nodes); a nil or empty list is an empty view.
func NewMiner(g *graph.Graph, nodes []graph.NodeID, exclude func(graph.EdgeKind) bool) *Miner {
	m := minerPool.Get().(*Miner)
	m.grow(g)
	m.nodes, m.sources = append(m.nodes[:0], nodes...), m.sources[:0]
	for i, p := range nodes {
		m.index[p] = uint32(i) + 1
	}
	m.build(g, exclude)
	return m
}

// NewBallMiner is the first half of a view of the ball around the sources:
// it walks the undirected view of g under exclude breadth-first from the
// sources, invalid and repeated ones skipped, one whole level at a time,
// and lists the nodes within radius hops, the nearest maxNodes of them.
// The walk stops after the level that reaches radius or brings the count
// to maxNodes; where the cap cuts that level, the level's smallest ids are
// kept. Induce then builds the view of the subgraph the list induces, as
// NewMiner would from the same nodes ascending, up to the order of the
// ids: view ids are walk order, so the kept sources lead, and Sources
// lists them. Until Induce the Miner answers Nodes, Sources, Len and
// Release, and nothing else.
func NewBallMiner(g *graph.Graph, sources []graph.NodeID, radius, maxNodes int, exclude func(graph.EdgeKind) bool) *Miner {
	m := minerPool.Get().(*Miner)
	m.ball(g, sources, radius, maxNodes, exclude)
	return m
}

// ball is NewBallMiner on m. It returns how many nodes the walk reached,
// those the cap cut included.
func (m *Miner) ball(g *graph.Graph, sources []graph.NodeID, radius, maxNodes int, exclude func(graph.EdgeKind) bool) (walked int) {
	m.grow(g)
	m.g, m.exclude = g, exclude
	m.nodes = m.nodes[:0]
	for _, s := range sources {
		if g.Valid(s) && m.index[s] == 0 {
			m.nodes = append(m.nodes, s)
			m.index[s] = uint32(len(m.nodes))
		}
	}
	reached := len(m.nodes)
	start := 0 // of the last level walked
	for d := 0; d < radius && start < len(m.nodes) && len(m.nodes) < maxNodes; d++ {
		end := len(m.nodes)
		for _, p := range m.nodes[start:end] {
			for _, arcs := range [2][]graph.Arc{g.Out(p), g.In(p)} {
				for _, a := range arcs {
					if m.index[a.To] == 0 && (exclude == nil || !exclude(a.Kind)) {
						m.nodes = append(m.nodes, a.To)
						m.index[a.To] = uint32(len(m.nodes))
					}
				}
			}
		}
		start = end
	}
	walked = len(m.nodes)
	if keep := max(maxNodes, 0); walked > keep { // the cap cuts the last level
		last := m.nodes[start:]
		slices.Sort(last)
		for i, p := range last {
			m.index[p] = 0
			if start+i < keep {
				m.index[p] = uint32(start+i) + 1
			}
		}
		m.nodes = m.nodes[:keep]
	}
	m.sources = slices.Grow(m.sources[:0], reached+1) // not nil: a nil seed list is every seed
	for v := range min(reached, len(m.nodes)) {
		m.sources = append(m.sources, graph.NodeID(v))
	}
	return walked
}

// Induce builds the view of the ball NewBallMiner listed, with the graph
// and filter it walked, and returns m; on a Miner whose view is built it
// does nothing.
func (m *Miner) Induce() *Miner {
	if m.g != nil {
		m.build(m.g, m.exclude)
		m.g, m.exclude = nil, nil
	}
	return m
}

// grow makes index cover every node of g.
func (m *Miner) grow(g *graph.Graph) {
	if len(m.index) < g.NumNodes() {
		m.index = make([]uint32, g.NumNodes())
	}
}

// build fills the view of m.nodes, whose view ids index holds, from g's
// adjacency, and clears index. It reads each out-arc once: the edge between
// two listed nodes is met from its source, sets both neighbour bits the
// first time, and both two-edge bits every time after, and marks both
// words occupied the first time. A view costs 2·n·⌈n/64⌉ words, which is
// why callers bound the node count.
func (m *Miner) build(g *graph.Graph, exclude func(graph.EdgeKind) bool) {
	nodes, n := m.nodes, len(m.nodes)
	m.words = (n + 63) / 64
	m.kind = m.kind[:0]
	m.articles = slices.Grow(m.articles[:0], m.words)[:m.words]
	clear(m.articles)
	for i, p := range nodes {
		k := g.Kind(p)
		m.kind = append(m.kind, k)
		if k == graph.Article {
			m.articles[i>>6] |= 1 << (i & 63)
		}
	}
	m.bits = slices.Grow(m.bits[:0], n*m.words)[:n*m.words]
	clear(m.bits)
	m.two = slices.Grow(m.two[:0], n*m.words)[:n*m.words]
	clear(m.two)
	m.occupied = slices.Grow(m.occupied[:0], n)[:n]
	clear(m.occupied)
	for i, p := range nodes {
		for _, a := range g.Out(p) {
			j := int(m.index[a.To]) - 1
			if j < 0 || exclude != nil && exclude(a.Kind) {
				continue
			}
			rows := m.bits
			if m.has(rows, graph.NodeID(i), graph.NodeID(j)) {
				rows = m.two
			} else {
				m.occupied[i] |= 1 << (j >> 6)
				m.occupied[j] |= 1 << (i >> 6)
			}
			rows[i*m.words+j>>6] |= 1 << (j & 63)
			rows[j*m.words+i>>6] |= 1 << (i & 63)
		}
	}
	for _, p := range nodes {
		m.index[p] = 0
	}
}

// row is the view's bitset row of v in rows, m.bits or m.two.
func (m *Miner) row(rows []uint64, v graph.NodeID) []uint64 {
	return rows[int(v)*m.words:][:m.words]
}

// has reports whether bit b of a's row in rows is set.
func (m *Miner) has(rows []uint64, a, b graph.NodeID) bool {
	return m.row(rows, a)[b>>6]>>(b&63)&1 != 0
}

// Len is the number of nodes of the view.
func (m *Miner) Len() int { return len(m.nodes) }

// Nodes lists the view's nodes as ids of the graph: view node v is graph
// node Nodes()[v]. The slice is the Miner's.
func (m *Miner) Nodes() []graph.NodeID { return m.nodes }

// Sources lists, ascending, the view ids of the sources NewBallMiner kept,
// which are the first ones, as Walk's seeds; a view NewMiner built has
// none. The slice is the Miner's.
func (m *Miner) Sources() []graph.NodeID { return m.sources }

// Kind is the kind of the view's node v.
func (m *Miner) Kind(v graph.NodeID) graph.NodeKind { return m.kind[v] }

// Neighbors yields the view's neighbours of v, ascending.
func (m *Miner) Neighbors(v graph.NodeID) iter.Seq[graph.NodeID] {
	return func(yield func(graph.NodeID) bool) {
		row := m.row(m.bits, v)
		for ws := m.occupied[v]; ws != 0; ws &= ws - 1 {
			w := bits.TrailingZeros64(ws)
			for x := row[w]; x != 0; x &= x - 1 {
				if !yield(graph.NodeID(w<<6 | bits.TrailingZeros64(x))) {
					return
				}
			}
		}
	}
}

// Release returns the Miner's storage to the pool; the Miner must not be
// used afterwards. Cycles it enumerated stay valid.
func (m *Miner) Release() {
	if m.g != nil { // walked and never induced
		for _, p := range m.nodes {
			m.index[p] = 0
		}
	}
	m.g, m.exclude, m.Poll, m.Keep, m.visit, m.Measure = nil, nil, nil, nil, nil, 0
	minerPool.Put(m)
}

// Enumerate returns every cycle of length 2..maxLen in the undirected view
// of g (edges filtered by exclude; nil keeps all kinds) that contains at
// least one seed node. A nil seed set disables the seed filter and returns
// every cycle. Production code walks a Miner instead; Enumerate, the
// Miner's Enumerate and Measure are the tests' oracles and what bench/'s
// replay of a cold expansion times. It mines a view of all of g, which
// costs n²/4 bytes for n nodes: it is for graphs of a query's size.
//
// Cycles are returned in deterministic order (by length, then
// lexicographic node sequence).
func Enumerate(g *graph.Graph, seeds []graph.NodeID, maxLen int, exclude func(graph.EdgeKind) bool) ([]Cycle, error) {
	m := NewMiner(g, allNodes(g), exclude)
	defer m.Release()
	return m.Enumerate(seeds, maxLen)
}

// allNodes lists every node of g, ascending: the node list of g's own view.
func allNodes(g *graph.Graph) []graph.NodeID {
	all := make([]graph.NodeID, g.NumNodes())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	return all
}

// Enumerate is the package's Enumerate on the Miner's view: Walk, collect
// the cycles back to back in one slab, order. With Keep set it returns the
// cycles Keep accepts.
func (m *Miner) Enumerate(seeds []graph.NodeID, maxLen int) ([]Cycle, error) {
	var flat []graph.NodeID
	var ends []int
	err := m.Walk(seeds, maxLen, func(Metrics) error {
		flat = append(flat, m.Cycle().Nodes...)
		ends = append(ends, len(flat))
		return nil
	})
	if err != nil || len(ends) == 0 {
		return nil, err
	}
	out, start := make([]Cycle, len(ends)), 0
	for i, end := range ends {
		out[i].Nodes = flat[start:end:end]
		start = end
	}
	slices.SortFunc(out, Compare)
	return out, nil
}

// Compare orders cycles by length, then by node sequence: the order
// Enumerate returns them in.
func Compare(a, b Cycle) int {
	if c := cmp.Compare(len(a.Nodes), len(b.Nodes)); c != 0 {
		return c
	}
	return slices.Compare(a.Nodes, b.Nodes)
}

// Walk hands visit the Metrics of every cycle of 2..maxLen nodes through a
// seed (any cycle, for nil seeds) that Keep accepts, each once and as it
// closes, in no stated order; a visitor that keeps the cycle asks Cycle for
// its nodes, or Path for them as walked. The Metrics are Measure's: the
// walk keeps up the cycle's length, articles and capped edges along the
// path, and looks the rest up in a table filled by the same arithmetic.
// Keep is asked once per such triple before the walk starts, never per
// cycle; Found counts every cycle closed, kept or not, and Poll is asked
// each time Found passes a multiple of pollEvery. An error from visit ends
// the walk like one from Poll, and Walk returns it. With Measure set below
// maxLen the longer cycles are counted and not visited: the visitor sees
// exactly the cycles of at most Measure nodes that the walk without it
// sees, in the same order, and Found and the number of polls are the same.
//
// The walk is anchored at the seeds: in ascending order, a depth-first
// search from each seed finds the cycles through it, and the seed is then
// removed from the graph, so a cycle is found from its smallest seed and
// from no other. With no seed filter every node is a seed, and the search
// from s is the search for the cycles whose smallest node is s. The last
// level of each search — a path one node short of maxLen — is not searched
// at all: its closers are one intersection of two rows, less the blocked
// nodes; and the level before it enters only the nodes that close a cycle,
// which the same intersection tells. When 3 ≤ Measure < maxLen ≤ 5, the
// cycles of 4 and 5 nodes through a seed that Measure leaves out are
// counted in closed form from its neighbourhood (closedCount) before the
// search, which then stops at Measure; at other lengths the search counts
// them as it closes them.
func (m *Miner) Walk(seeds []graph.NodeID, maxLen int, visit func(Metrics) error) error {
	if maxLen < 2 {
		return fmt.Errorf("cycles: maxLen must be >= 2, got %d", maxLen)
	}
	if maxLen > MaxSupportedLength {
		return fmt.Errorf("cycles: maxLen %d exceeds supported maximum %d", maxLen, MaxSupportedLength)
	}
	n := len(m.kind)
	m.seeds = m.seeds[:0]
	if seeds == nil {
		for i := 0; i < n; i++ {
			m.seeds = append(m.seeds, graph.NodeID(i))
		}
	} else {
		for _, s := range seeds {
			if int(s) >= n {
				return fmt.Errorf("cycles: unknown seed node %d", s)
			}
		}
		m.seeds = append(m.seeds, seeds...)
		slices.Sort(m.seeds)
	}
	m.maxLen, m.err, m.visit, m.Found, m.longest = maxLen, nil, visit, 0, maxLen
	if m.Measure > 0 {
		m.longest = min(m.Measure, maxLen)
	}
	end := len(measured)
	if m.longest < MaxSupportedLength {
		end = measuredAt[m.longest+1][0]
	}
	m.kept = slices.Grow(m.kept[:0], end)[:end]
	for i := range m.kept {
		m.kept[i] = m.Keep == nil || m.Keep(measured[i])
	}
	m.dist = slices.Grow(m.dist[:0], n)[:n]
	for i := range m.dist {
		m.dist[i] = far
	}
	m.blockedBits = slices.Grow(m.blockedBits[:0], m.words)[:m.words]
	clear(m.blockedBits)
	steps, closed := maxLen/2, 3 <= m.longest && m.longest < maxLen && maxLen <= 5
	if closed {
		m.shared = slices.Grow(m.shared[:0], n)[:n]
		clear(m.shared)
		m.maxLen = m.longest // the search stops at Measure
	}
	for _, s := range m.seeds {
		if m.dist[s] != blocked && m.err == nil { // a repeated seed is already removed
			m.reach(s, steps)
			m.seedRow = m.row(m.bits, s)
			if closed {
				four, n := m.closedCount(maxLen)
				if m.longest == 3 {
					n += four
				}
				for ; n > 0 && m.err == nil; n -= 64 {
					m.count(min(n, 64)) // so a poll comes within 64 of its multiple
				}
			}
			m.path = append(m.path[:0], s)
			m.arts[1], m.edges[1] = 0, 0
			if m.kind[s] == graph.Article {
				m.arts[1] = 1
			}
			m.dfs(s, 0)
			for _, v := range m.reached[1:] { // s leads it, and stays blocked
				m.dist[v] = far
			}
		}
	}
	return m.err
}

// reach sets dist for the nodes within steps of s, the seeds already
// removed neither counted nor crossed, and blocks s. Walk asks for maxLen/2
// steps: no other node is on a cycle of maxLen nodes through s, as it would
// be as many steps from s both ways round.
func (m *Miner) reach(s graph.NodeID, steps int) {
	m.dist[s] = 0
	m.reached = append(m.reached[:0], s)
	for head := 0; head < len(m.reached); head++ {
		v := m.reached[head]
		d := m.dist[v] + 1
		if int(d) > steps {
			break // reached is in order of distance
		}
		row := m.row(m.bits, v)
		for ws := m.occupied[v]; ws != 0; ws &= ws - 1 {
			i := bits.TrailingZeros64(ws)
			for x := row[i] &^ m.blockedBits[i]; x != 0; x &= x - 1 {
				if w := graph.NodeID(i<<6 | bits.TrailingZeros64(x)); m.dist[w] == far {
					m.dist[w] = d
					m.reached = append(m.reached, w)
				}
			}
		}
	}
	m.block(s)
}

// closedCount returns the numbers of cycles of 4 and of 5 nodes through
// the seed just reached, the second 0 unless maxLen is 5. Let X be its
// open neighbours (seedRow less blockedBits), N'(v) v's open neighbours,
// and y(v) = |N'(v) ∩ X| for the reached nodes v, which are all within
// two steps: no other node has a y.
// A 4-cycle is a node b and two of its y(b) neighbours in X. A 5-cycle
// s-a-b-c-d is walked both ways round, and the directed walks with a, d in
// X and b~c open are Σ y(b)·y(c) over the ordered edges b~c, less those in
// which a = c or b = d, Σ deg'(a)·y(a) over X each, or a = d, twice the
// edges among N'(a) over X; a = c and b = d overlap in Σ y(a) over X, the
// walks s-a-b-a-b, and no other two can.
func (m *Miner) closedCount(maxLen int) (four, five int) {
	near, walks := m.reached[1:], 0
	for _, v := range near {
		row, y := m.row(m.bits, v), 0
		for ws := m.occupied[v]; ws != 0; ws &= ws - 1 {
			i := bits.TrailingZeros64(ws)
			y += bits.OnesCount64(row[i] & m.seedRow[i] &^ m.blockedBits[i])
		}
		m.shared[v], four = int32(y), four+y*(y-1)/2
	}
	for _, b := range near {
		inX := m.dist[b] == 1
		if maxLen == 4 || m.shared[b] == 0 && !inX {
			continue
		}
		row, y, z, deg := m.row(m.bits, b), int(m.shared[b]), 0, 0
		for ws := m.occupied[b]; ws != 0; ws &= ws - 1 {
			i := bits.TrailingZeros64(ws)
			for x := row[i] &^ m.blockedBits[i]; x != 0; x &= x - 1 {
				c := i<<6 | bits.TrailingZeros64(x)
				z, deg = z+int(m.shared[c]), deg+1
				if inX { // less the walks s-b-c-e-b, e next to b and c
					cRow := m.row(m.bits, graph.NodeID(c))
					for us := m.occupied[b] & m.occupied[c]; us != 0; us &= us - 1 {
						j := bits.TrailingZeros64(us)
						walks -= bits.OnesCount64(row[j] & cRow[j] &^ m.blockedBits[j])
					}
				}
			}
		}
		walks += y * z
		if inX { // less s-b-c-b-e and s-e-b-c-b, both at once in s-b-c-b-c
			walks -= 2*deg*y - y
		}
	}
	for _, v := range near {
		m.shared[v] = 0
	}
	return four, walks / 2
}

// dfs records the path, which starts at a seed and ends at cur, d steps
// from it, if it closes a cycle — cur is next to the seed — and extends it
// through every neighbour of cur that is not blocked and can still get back
// to the seed with the nodes maxLen leaves. Two nodes close a cycle when
// they share two edges (Figure 4a); of the two directions a longer cycle
// can be walked in, the one with path[1] < path[last] is kept, so a node
// that could only close the path the other way round is not entered. The
// neighbours are scanned in ascending order over the occupied words of
// cur's row, the blocked ones masked off a word at a time; the last level
// is closeLast, and the level before it enterLast.
func (m *Miner) dfs(cur graph.NodeID, d uint8) {
	k := len(m.path)
	if d == 1 && (k >= 3 && m.path[1] < cur || k == 2 && m.has(m.two, cur, m.path[0])) {
		m.record()
	}
	if k >= m.maxLen {
		return // nothing below could be entered: spare the widest level its scan
	}
	if k+1 == m.maxLen && k >= 2 {
		i, x := m.closers(cur, int(m.path[1])+1)
		m.closeLast(cur, i, x)
		return
	}
	beforeLast := k+2 == m.maxLen && k >= 2
	row := m.row(m.bits, cur)
	for ws := m.occupied[cur]; ws != 0; ws &= ws - 1 {
		// A word's blocked nodes are the same after each neighbour's search
		// as before it: the search unblocks what it blocks.
		i := bits.TrailingZeros64(ws)
		for x := row[i] &^ m.blockedBits[i]; x != 0; x &= x - 1 {
			next := graph.NodeID(i<<6 | bits.TrailingZeros64(x))
			d := m.dist[next]
			switch {
			case int(d) > m.maxLen-k:
				// not entered
			case beforeLast:
				m.enterLast(next, d == 1)
			default:
				m.extend(next)
				m.block(next)
				m.path = append(m.path, next)
				m.dfs(next, d)
				m.path = m.path[:k]
				m.unblock(next, d)
			}
		}
	}
}

// enterLast is dfs(next, d) at the level before the last, adjacent telling
// whether d is 1. The path cannot grow past next, so next is entered only
// if it closes a cycle: when it is next to the seed, above path[1], or has
// a closer of its own. The closers found to decide that are the first that
// closeLast takes. Nothing below can enter a node, so next is never
// blocked.
func (m *Miner) enterLast(next graph.NodeID, adjacent bool) {
	i, x := m.closers(next, int(m.path[1])+1)
	self := adjacent && m.path[1] < next
	if !self && x == 0 {
		return
	}
	k := len(m.path)
	m.extend(next)
	m.path = append(m.path, next)
	if self {
		m.record()
	}
	if m.err == nil {
		m.closeLast(next, i, x)
	}
	m.path = m.path[:k]
}

// closeLast closes the path with each of its closers, taken a word at a
// time from i and x, the first word as closers returns it: the last level
// of the walk, where the scan in dfs would enter a neighbour of cur only to
// find it next to the seed or not. It records each cycle, in ascending
// order, or, when they are longer than the visitor may be handed (longer
// than Measure), adds the word's closers to Found.
func (m *Miner) closeLast(cur graph.NodeID, i int, x uint64) {
	k := len(m.path)
	for ; x != 0 && m.err == nil; i, x = m.closers(cur, (i+1)<<6) {
		if k+1 > m.longest {
			m.count(bits.OnesCount64(x))
			continue
		}
		for ; x != 0 && m.err == nil; x &= x - 1 {
			v := graph.NodeID(i<<6 | bits.TrailingZeros64(x))
			m.extend(v)
			m.path = append(m.path, v)
			m.record()
			m.path = m.path[:k]
		}
	}
}

// closers returns the first word, from bit lo on, of the set of nodes that
// close the path, with cur appended, into a cycle, and its index; x is 0
// when there is none. Those nodes are at distance 1 and not blocked — in
// the seed's row less blockedBits — and in cur's row: the two rows ANDed
// word by word, the first word masked below lo. cur is not in its own row,
// so whether it is blocked yet does not matter.
func (m *Miner) closers(cur graph.NodeID, lo int) (i int, x uint64) {
	curRow := m.row(m.bits, cur)
	seedRow, blockedBits := m.seedRow[:len(curRow)], m.blockedBits[:len(curRow)]
	mask := ^uint64(0) << (lo & 63)
	for i = lo >> 6; i < len(curRow); i++ {
		if x = curRow[i] & seedRow[i] &^ blockedBits[i] & mask; x != 0 {
			return i, x
		}
		mask = ^uint64(0)
	}
	return i, 0
}

// block bars the walk from v, and unblock gives it back its distance d.
func (m *Miner) block(v graph.NodeID) {
	m.dist[v] = blocked
	m.blockedBits[v>>6] |= 1 << (v & 63)
}

func (m *Miner) unblock(v graph.NodeID, d uint8) {
	m.dist[v] = d
	m.blockedBits[v>>6] &^= 1 << (v & 63)
}

// extend sets the running counts of the path with v appended: the
// articles, and the capped edges between v and every node on the path —
// one per neighbour on it, and a second for each article neighbour it
// shares two edges with when v is an article (pairCapacity).
func (m *Miner) extend(v graph.NodeID) {
	k, row := len(m.path), m.row(m.bits, v)
	edges, arts := m.edges[k], m.arts[k]
	if m.kind[v] == graph.Article {
		arts++
		two, articles := m.row(m.two, v), m.articles[:len(row)]
		for _, u := range m.path {
			w, b := u>>6, u&63
			edges += int(row[w]>>b&1 + two[w]&articles[w]>>b&1)
		}
	} else {
		for _, u := range m.path {
			edges += int(row[u>>6] >> (u & 63) & 1)
		}
	}
	m.edges[k+1], m.arts[k+1] = edges, arts
}

// record hands visit the Metrics of the path's cycle if it is measured
// and Keep kept them, and counts it.
func (m *Miner) record() {
	k := len(m.path)
	if k <= m.longest {
		if i := measuredAt[k][m.arts[k]] + m.edges[k]; m.kept[i] {
			m.err = m.visit(measured[i])
		}
	}
	m.count(1)
}

// count adds n ≤ pollEvery closed cycles to Found and asks Poll if that
// passed a multiple of pollEvery: it passes at most one.
func (m *Miner) count(n int) {
	m.Found += n
	if m.err == nil && m.Found%pollEvery < n && m.Poll != nil {
		m.err = m.Poll()
	}
	if m.err != nil {
		// No path may grow any more, so the walk unwinds by itself and dfs
		// needs no stop test.
		m.maxLen = 0
	}
}

// Path returns the nodes of the cycle Walk has just handed its visitor the
// Metrics of, as walked: the seed first, then the path it closed. The
// slice is the Miner's again when the visitor returns; a visitor that
// keeps the cycle copies it, and Canonicalize gives the copy Cycle's form.
// Only the visitor may call it.
func (m *Miner) Path() []graph.NodeID { return m.path }

// Cycle returns the cycle Walk has just handed its visitor the Metrics of,
// in canonical form (Canonicalize) by view id, in a slice that is the
// Miner's again when the visitor returns: the form by graph id is the same
// only where view ids ascend with graph ids, as NewMiner's do. Only the
// visitor may call it.
func (m *Miner) Cycle() Cycle {
	c := append(m.canon[:0], m.path...) // within canon's capacity
	Canonicalize(c)
	return Cycle{Nodes: c}
}

// Canonicalize puts the cycle through the nodes of c, in their order round
// it, into canonical form in place: rotated so that its smallest node
// leads, and turned so that c[1] < c[last]. Each rotation and reflection of
// a cycle gives the same form.
func Canonicalize(c []graph.NodeID) {
	lo := 0
	for i, v := range c {
		if v < c[lo] {
			lo = i
		}
	}
	slices.Reverse(c[:lo]) // two reversals and a third rotate c left by lo
	slices.Reverse(c[lo:])
	slices.Reverse(c)
	if len(c) > 2 && c[1] > c[len(c)-1] {
		slices.Reverse(c[1:])
	}
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
	articles, edges := 0, 0
	for i, a := range c.Nodes {
		if !g.Valid(a) {
			return Metrics{}, fmt.Errorf("cycles: unknown node %d in cycle", a)
		}
		if g.Kind(a) == graph.Article {
			articles++
		}
		for _, b := range c.Nodes[:i] {
			edges += min(g.EdgesBetween(a, b, exclude), pairCapacity(g.Kind(a), g.Kind(b)))
		}
	}
	return metrics(len(c.Nodes), articles, edges), nil
}

// measured holds metrics(l, a, e) for every length l from 2 to
// MaxSupportedLength, article count a <= l and capped edge count e up to
// the M(C) of l and a, the most there can be, at measuredAt[l][a]+e, in
// that order: ascending l, then a, then e. A cycle's Metrics depend on
// those three counts alone, so the walk, which keeps them up along its
// path, looks its cycles' Metrics up here, and tabulates its Keep over it.
var measured, measuredAt = tabulateMetrics()

func tabulateMetrics() ([]Metrics, [MaxSupportedLength + 1][MaxSupportedLength + 1]int) {
	var all []Metrics
	var at [MaxSupportedLength + 1][MaxSupportedLength + 1]int
	for l := 2; l <= MaxSupportedLength; l++ {
		for a := 0; a <= l; a++ {
			at[l][a] = len(all)
			for e := 0; e <= metrics(l, a, 0).MaxEdges; e++ {
				all = append(all, metrics(l, a, e))
			}
		}
	}
	return all, at
}

// metrics completes the Metrics of a cycle of length nodes, articles of
// them articles, with edges capped edges among them.
func metrics(length, articles, edges int) Metrics {
	a, k := articles, length-articles
	met := Metrics{
		Length:        length,
		Articles:      a,
		Categories:    k,
		CategoryRatio: float64(k) / float64(length),
		Edges:         edges,
		MaxEdges:      a*(a-1) + a*k + k*(k-1)/2,
	}
	if met.MaxEdges > length {
		met.ExtraEdgeDensity = float64(edges-length) / float64(met.MaxEdges-length)
	}
	return met
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
