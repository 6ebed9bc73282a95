package cycles

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/querygraph/querygraph/internal/graph"
)

// referenceEnumerate is Enumerate as it stood before the seed-anchored
// walk: a depth-first search from every node of the graph, then the seed
// filter over everything it found. It is the oracle the Miner is tested
// against.
func referenceEnumerate(g *graph.Graph, seeds []graph.NodeID, maxLen int, exclude func(graph.EdgeKind) bool) ([]Cycle, error) {
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

// referenceMeasure is Measure as it stood before the pair table: one
// EdgesBetween scan per pair of the cycle.
func referenceMeasure(g *graph.Graph, c Cycle, exclude func(graph.EdgeKind) bool) Metrics {
	var m Metrics
	m.Length = len(c.Nodes)
	for _, n := range c.Nodes {
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
	return m
}

// wideView is a view width of 16 words a row, well above the 400 nodes a
// query's ball holds by default.
const wideView = 1024

// randomGraph draws n nodes, a quarter of them categories, and about
// density*n edges of all four kinds, parallel and reciprocal ones included.
func randomGraph(rng *rand.Rand, n int, density float64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			g.AddNode(graph.Category)
		} else {
			g.AddNode(graph.Article)
		}
	}
	for e := 0; e < int(density*float64(n)); e++ {
		_ = g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), graph.EdgeKind(rng.Intn(4))) // self-loops and repeats rejected, fine
	}
	return g
}

// randomSeeds draws nil (one time in five), or up to max nodes with
// repeats; the empty non-nil set comes up too.
func randomSeeds(rng *rand.Rand, n, max int) []graph.NodeID {
	if rng.Intn(5) == 0 {
		return nil
	}
	seeds := make([]graph.NodeID, rng.Intn(max+1))
	for i := range seeds {
		seeds[i] = graph.NodeID(rng.Intn(n))
		if i > 0 && rng.Intn(4) == 0 {
			seeds[i] = seeds[rng.Intn(i)]
		}
	}
	return seeds
}

func randomFilter(rng *rand.Rand) func(graph.EdgeKind) bool {
	if rng.Intn(2) == 0 {
		return nil
	}
	return graph.ExcludeRedirects
}

// checkMinerAgainstReference holds one Miner to the references on one
// input: Enumerate gives the identical list in the identical order; Walk
// hands over the same cycles, each once, in canonical form whatever the
// order, and asks Poll once per pollEvery of them; every cycle's metrics
// equal the scanned ones. It returns how many cycles that was.
func checkMinerAgainstReference(t *testing.T, seed int64, g *graph.Graph, seeds []graph.NodeID, maxLen int, exclude func(graph.EdgeKind) bool) int {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("the failure above: seed %d", seed)
		}
	}()
	given := slices.Clone(seeds)
	want, err := referenceEnumerate(g, seeds, maxLen, exclude)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMiner(g, allNodes(g), exclude)
	got, err := m.Enumerate(seeds, maxLen)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("n=%d seeds=%v maxLen=%d: %d cycles %v, want %d %v", g.NumNodes(), seeds, maxLen, len(got), got, len(want), want)
	}
	if !slices.Equal(seeds, given) {
		t.Fatalf("Enumerate reordered its caller's seeds: %v, were %v", seeds, given)
	}

	var visited []Cycle
	asked := 0
	m.Poll = func() error { asked++; return nil }
	err = m.Walk(seeds, maxLen, func(met Metrics) error {
		c := m.Cycle()
		if lo := slices.Min(c.Nodes); c.Nodes[0] != lo || len(c.Nodes) > 2 && c.Nodes[1] > c.Nodes[len(c.Nodes)-1] {
			t.Fatalf("Walk visited %v, which is not in canonical form", c.Nodes)
		}
		if want := referenceMeasure(g, c, exclude); met != want {
			t.Fatalf("Walk measured %v as %+v, want %+v", c.Nodes, met, want)
		}
		visited = append(visited, Cycle{Nodes: slices.Clone(c.Nodes)}) // the slice is the Miner's again after the call
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Poll = nil
	slices.SortFunc(visited, func(a, b Cycle) int {
		if len(a.Nodes) != len(b.Nodes) {
			return len(a.Nodes) - len(b.Nodes)
		}
		return slices.Compare(a.Nodes, b.Nodes)
	})
	if !reflect.DeepEqual(visited, want) {
		t.Fatalf("n=%d seeds=%v maxLen=%d: Walk visited %v, want %v", g.NumNodes(), seeds, maxLen, visited, want)
	}
	if asked != len(want)/pollEvery {
		t.Fatalf("Walk over %d cycles asked Poll %d times, want %d", len(want), asked, len(want)/pollEvery)
	}

	for _, c := range got {
		want := referenceMeasure(g, c, exclude)
		if got, err := Measure(g, c, exclude); err != nil || got != want {
			t.Fatalf("Measure(%v) = %+v, %v, want %+v", c.Nodes, got, err, want)
		}
	}
	m.Release()
	if again, _ := Enumerate(g, seeds, maxLen, exclude); !reflect.DeepEqual(again, want) {
		t.Fatalf("a pooled Miner found %v, want %v", again, want)
	}
	return len(want)
}

// TestEnumerateMatchesReference is the Miner's half of the proof chain
// (core's TestExpandMatchesReference is the other): on random graphs,
// seeds, lengths and filters, Enumerate, Walk and Measure agree with
// referenceEnumerate and referenceMeasure, which share no code with them.
func TestEnumerateMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		g := randomGraph(rng, n, 1+2*rng.Float64())
		checkMinerAgainstReference(t, seed, g, randomSeeds(rng, n, 5), 2+rng.Intn(7), randomFilter(rng))
	}
}

// TestEnumerateBeyondThePairTable holds views that span many words to the
// reference: graphs of just over wideView nodes, 17 words a row, where
// the walk's row scans, its two-edge test and its capped edge counts read
// far from a row's first word. Sparse graphs, so that the reference's
// search from every node stays short; they must still hold cycles worth
// comparing.
func TestEnumerateBeyondThePairTable(t *testing.T) {
	cycles := 0
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := wideView + 1 + rng.Intn(50)
		g := randomGraph(rng, n, 2)
		cycles += checkMinerAgainstReference(t, seed, g, randomSeeds(rng, n, 40), 4+rng.Intn(3), randomFilter(rng))
	}
	if t.Logf("%d cycles compared", cycles); cycles < 100 {
		t.Errorf("only %d cycles in all: the graphs are too sparse to test anything", cycles)
	}
}

// TestEnumerateSeededMatchesFiltered states the seed-anchored walk's
// contract without the reference: the seeded list is the unseeded list
// with the cycles that miss every seed taken out, order kept — repeated
// seeds and all.
func TestEnumerateSeededMatchesFiltered(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, 1+2*rng.Float64())
		seeds := append(randomSeeds(rng, n, 6), graph.NodeID(rng.Intn(n)))
		seeds = append(seeds, seeds[0]) // at least one repeat
		maxLen := 2 + rng.Intn(5)

		all, err := Enumerate(g, nil, maxLen, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []Cycle
		for _, c := range all {
			for _, s := range seeds {
				if c.Contains(s) {
					want = append(want, c)
					break
				}
			}
		}
		got, err := Enumerate(g, seeds, maxLen, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (seeds=%v maxLen=%d): %v, want %v", seed, seeds, maxLen, got, want)
		}
	}
}

// TestEnumerateEmptySeedSet pins the difference between no seed filter and
// a filter nothing passes.
func TestEnumerateEmptySeedSet(t *testing.T) {
	g := paperGraph(t)
	if cs, err := Enumerate(g, []graph.NodeID{}, 5, nil); err != nil || len(cs) != 0 {
		t.Errorf("empty seed set: %v, %v, want no cycles", cs, err)
	}
	if cs, err := Enumerate(g, nil, 5, nil); err != nil || len(cs) != 3 {
		t.Errorf("nil seed set: %v, %v, want the graph's 3 cycles", cs, err)
	}
}

// TestEnumeratePollStops: Poll is asked once per pollEvery cycles found,
// the first error it or the visitor returns ends the walk at once and is
// what Enumerate or Walk returns, and the same Miner then enumerates as if
// nothing had happened.
func TestEnumeratePollStops(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 14, 4)
	m := NewMiner(g, allNodes(g), nil)
	defer m.Release()
	want, err := m.Enumerate(nil, 7)
	if err != nil || len(want) < 4*pollEvery {
		t.Fatalf("%d cycles, %v: the graph must be worth several polls", len(want), err)
	}
	stop, asked := fmt.Errorf("stop"), 0
	for n := 1; n <= len(want)/pollEvery; n++ {
		asked = 0
		m.Poll = func() error {
			if asked++; asked == n {
				return stop
			}
			return nil
		}
		if cs, err := m.Enumerate(nil, 7); cs != nil || err != stop || asked != n {
			t.Fatalf("stopped at poll %d: %d cycles, err %v, %d polls", n, len(cs), err, asked)
		}
	}
	// The visitor's error ends a Walk the same way: it is the last call.
	visits := 0
	m.Poll = nil
	err = m.Walk(nil, 7, func(Metrics) error {
		if visits++; visits == pollEvery+3 {
			return stop
		}
		return nil
	})
	if err != stop || visits != pollEvery+3 {
		t.Fatalf("visitor stopped at cycle %d: err %v after %d visits", pollEvery+3, err, visits)
	}
	asked = 0
	m.Poll = func() error { asked++; return nil }
	if got, err := m.Enumerate(nil, 7); err != nil || !reflect.DeepEqual(got, want) || asked != len(want)/pollEvery {
		t.Fatalf("after the stopped walks: %d cycles, %v, %d polls; want %d cycles and %d polls", len(got), err, asked, len(want), len(want)/pollEvery)
	}
}

// TestMinerOnNodeListMatchesInduced holds the Miner NewMiner builds from a
// node list to the one it builds from the subgraph the list induces: on
// random graphs with redirect and parallel edges, and a category pair
// nested inside each other both ways — a 2-cycle, which the two-edge test
// finds only by reading raw multiplicities, not capped ones — seeded and
// unseeded walks over subsets on both sides of wideView find exactly
// Enumerate's cycles of g.Induce(nodes), position for subgraph id, and
// each cycle's Metrics are Measure's on that subgraph.
func TestMinerOnNodeListMatchesInduced(t *testing.T) {
	total, beyond, nested := 0, 0, 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, size := 4+rng.Intn(60), 0
		if seed%8 == 0 { // a subset just below or just above wideView
			n = wideView + 120
			size = wideView - 40 + rng.Intn(120)
		}
		g := randomGraph(rng, n, 1+3*rng.Float64())
		c1, c2 := g.AddNode(graph.Category), g.AddNode(graph.Category)
		a1, a2 := g.AddNode(graph.Article), g.AddNode(graph.Article)
		for _, e := range []graph.Edge{
			{From: c1, To: c2, Kind: graph.Inside}, {From: c2, To: c1, Kind: graph.Inside},
			{From: a1, To: a2, Kind: graph.Link}, {From: a1, To: a2, Kind: graph.Redirect},
			{From: a2, To: c1, Kind: graph.Belongs}, {From: a1, To: c2, Kind: graph.Belongs},
			{From: a1, To: graph.NodeID(rng.Intn(n)), Kind: graph.Redirect},
			{From: graph.NodeID(rng.Intn(n)), To: a2, Kind: graph.Link},
		} {
			_ = g.AddEdge(e.From, e.To, e.Kind) // a repeat of a random edge is rejected, fine
		}
		if size == 0 {
			size = rng.Intn(g.NumNodes() + 1)
		}
		nodes := rng.Perm(g.NumNodes())[:size]
		if rng.Intn(2) == 0 {
			nodes = append(nodes, int(c1), int(c2))
		}
		list := make([]graph.NodeID, 0, len(nodes))
		for _, v := range nodes {
			list = append(list, graph.NodeID(v))
		}
		slices.Sort(list)
		list = slices.Compact(list)
		sub := g.Induce(list)
		if !slices.Equal(sub.ToParent, list) {
			t.Fatalf("seed %d: Induce numbered %v, not in list order %v", seed, sub.ToParent, list)
		}
		exclude := randomFilter(rng)
		maxLen := 2 + rng.Intn(5)
		seeds := randomSeeds(rng, max(1, len(list)), 5)
		if len(list) == 0 {
			seeds = nil
		}

		m := NewMiner(g, list, exclude)
		for _, seeds := range [][]graph.NodeID{seeds, nil} {
			want, err := Enumerate(sub.Graph, seeds, maxLen, exclude)
			if err != nil {
				t.Fatal(err)
			}
			var got []Cycle
			err = m.Walk(seeds, maxLen, func(met Metrics) error {
				c := Cycle{Nodes: slices.Clone(m.Cycle().Nodes)}
				if wantMet, err := Measure(sub.Graph, c, exclude); err != nil || met != wantMet {
					t.Fatalf("seed %d: cycle %v measured %+v, want %+v (%v)", seed, c.Nodes, met, wantMet, err)
				}
				if total++; len(list) > wideView {
					beyond++
				}
				got = append(got, c)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			slices.SortFunc(got, Compare)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (%d of %d nodes, seeds %v, maxLen %d): walked %v, want %v", seed, len(list), g.NumNodes(), seeds, maxLen, got, want)
			}
			p1, in1 := slices.BinarySearch(list, c1)
			p2, in2 := slices.BinarySearch(list, c2)
			if seeds == nil && in1 && in2 {
				if nested++; !slices.ContainsFunc(got, func(c Cycle) bool {
					return slices.Equal(c.Nodes, []graph.NodeID{graph.NodeID(p1), graph.NodeID(p2)})
				}) {
					t.Fatalf("seed %d: the categories nested both ways, %d and %d, are no 2-cycle in %v", seed, p1, p2, got)
				}
			}
		}
		m.Release()
	}
	if t.Logf("%d cycles compared, %d of them in views of over wideView nodes", total, beyond); total < 10000 || beyond < 1000 {
		t.Errorf("the graphs are too sparse to test anything")
	}
	if nested == 0 {
		t.Error("no walk met the categories nested both ways")
	}
}

// TestEnumerateAcrossWordBoundaries holds the bitset rows of views wider
// than one word to the reference: random graphs of 65 to wideView
// nodes whose edges crowd around the multiples of 64, seeded there, so
// that seeds, path[1] and the closers of the last level fall on both sides
// of a word boundary. The multi-word AND of two rows and the mask that
// drops the first word's bits up to path[1] are what is under test; the
// other tests' graphs fit in one word.
func TestEnumerateAcrossWordBoundaries(t *testing.T) {
	compared, straddling := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 65 + rng.Intn(wideView-64)
		g := randomGraph(rng, n, 1)
		var near []graph.NodeID // the nodes within three of a multiple of 64
		for b := 64; b-3 < n; b += 64 {
			for v := b - 3; v < min(b+3, n); v++ {
				near = append(near, graph.NodeID(v))
			}
		}
		for e := 0; e < 4*len(near); e++ {
			_ = g.AddEdge(near[rng.Intn(len(near))], near[rng.Intn(len(near))], graph.EdgeKind(rng.Intn(4)))
		}
		var seeds []graph.NodeID
		if rng.Intn(5) != 0 {
			seeds = make([]graph.NodeID, 1+rng.Intn(6))
			for i := range seeds {
				seeds[i] = near[rng.Intn(len(near))]
			}
		}
		maxLen, exclude := 3+rng.Intn(3), randomFilter(rng)
		compared += checkMinerAgainstReference(t, seed, g, seeds, maxLen, exclude)
		cs, err := Enumerate(g, seeds, maxLen, exclude)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cs {
			if slices.ContainsFunc(c.Nodes, func(v graph.NodeID) bool { return v>>6 != c.Nodes[0]>>6 }) {
				straddling++
			}
		}
	}
	if t.Logf("%d cycles compared, %d of them across a word boundary", compared, straddling); straddling < 1000 {
		t.Errorf("only %d cycles cross a word boundary: the graphs test too little", straddling)
	}
}

// randomKeep draws a Keep: one that rejects everything, a band on the
// category ratio, a floor on the extra-edge density, or a salted hash of
// the counts a cycle's Metrics are made from.
func randomKeep(rng *rand.Rand) func(Metrics) bool {
	lo, hi, salt := rng.Float64(), rng.Float64(), rng.Uint32()
	lo, hi = min(lo, hi), max(lo, hi)
	switch rng.Intn(4) {
	case 0:
		return func(Metrics) bool { return false }
	case 1:
		return func(m Metrics) bool { return m.Length == 2 || lo <= m.CategoryRatio && m.CategoryRatio <= hi }
	case 2:
		return func(m Metrics) bool { return m.ExtraEdgeDensity >= lo }
	}
	return func(m Metrics) bool { return (uint32(m.Length*97+m.Articles*31+m.Edges)*2654435761^salt)>>31 == 0 }
}

// TestWalkKeepOnlyFilters: Keep decides what the visitor sees and nothing
// else. On random graphs, seeds, lengths and predicates, a Walk with Keep
// visits exactly the cycles the Walk without it visits that Keep accepts,
// in the same order, with equal Metrics and Cycle; its Found is the
// unfiltered walk's; and both ask Poll once per pollEvery cycles found,
// rejected ones included.
func TestWalkKeepOnlyFilters(t *testing.T) {
	type visit struct {
		met   Metrics
		nodes []graph.NodeID
	}
	walk := func(m *Miner, seeds []graph.NodeID, maxLen int) (visits []visit, polls []int) {
		m.Poll = func() error { polls = append(polls, m.Found); return nil }
		err := m.Walk(seeds, maxLen, func(met Metrics) error {
			visits = append(visits, visit{met, slices.Clone(m.Cycle().Nodes)})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return visits, polls
	}
	polled := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, density, maxLen := 1+rng.Intn(24), 1+2*rng.Float64(), 2+rng.Intn(7)
		if seed%10 == 0 { // thousands of cycles: several polls
			n, density, maxLen = 14, 4, 7
		}
		g := randomGraph(rng, n, density)
		seeds := randomSeeds(rng, n, 5)
		m := NewMiner(g, allNodes(g), randomFilter(rng))
		all, allPolls := walk(m, seeds, maxLen)
		if m.Found != len(all) {
			t.Fatalf("seed %d: a walk with no Keep found %d cycles and visited %d", seed, m.Found, len(all))
		}
		for i, f := range allPolls {
			if f != (i+1)*pollEvery {
				t.Fatalf("seed %d: poll %d came after %d cycles, want %d", seed, i+1, f, (i+1)*pollEvery)
			}
		}
		if len(allPolls) != len(all)/pollEvery {
			t.Fatalf("seed %d: %d polls over %d cycles", seed, len(allPolls), len(all))
		}
		polled += len(allPolls)

		keep := randomKeep(rng)
		m.Keep = keep
		kept, keptPolls := walk(m, seeds, maxLen)
		var want []visit
		for _, v := range all {
			if keep(v.met) {
				want = append(want, v)
			}
		}
		if !reflect.DeepEqual(kept, want) {
			t.Fatalf("seed %d: a walk with Keep visited %d cycles %v, want the %d of %d it accepts %v", seed, len(kept), kept, len(want), len(all), want)
		}
		if m.Found != len(all) || !slices.Equal(keptPolls, allPolls) {
			t.Fatalf("seed %d: with Keep, Found %d and polls %v; without, %d and %v", seed, m.Found, keptPolls, len(all), allPolls)
		}
		m.Release()
	}
	if polled == 0 {
		t.Error("no walk was long enough to poll")
	}
}

// TestWalkCountLastOnlyCounts: a Measure below maxLen changes what the
// visitor sees of the longer lengths and nothing else. On random graphs —
// small dense ones that poll often, and ones over several bitset words —
// with random seeds, lengths and Keep, a Walk that measures maxLen−1 nodes,
// and one that measures a random length in [2, maxLen−1], finds as many
// cycles as the full Walk, visits exactly the full Walk's cycles of at
// most Measure nodes in the same order, with equal Metrics and Path, and
// asks Poll Found/pollEvery times, each time just after Found passed a
// multiple of pollEvery.
func TestWalkCountLastOnlyCounts(t *testing.T) {
	type visit struct {
		met  Metrics
		path []graph.NodeID
	}
	walk := func(m *Miner, seeds []graph.NodeID, maxLen int) (visits []visit, polls []int) {
		m.Poll = func() error { polls = append(polls, m.Found); return nil }
		err := m.Walk(seeds, maxLen, func(met Metrics) error {
			visits = append(visits, visit{met, slices.Clone(m.Path())})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return visits, polls
	}
	polled, counted := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, density, maxLen := 1+rng.Intn(24), 1+2*rng.Float64(), 2+rng.Intn(7)
		switch seed % 4 {
		case 0: // thousands of cycles: many polls
			n, density, maxLen = 14+rng.Intn(4), 4, 6+rng.Intn(2)
		case 1: // rows of two to four words
			n, density, maxLen = 65+rng.Intn(180), 3+3*rng.Float64(), 3+rng.Intn(3)
		}
		g := randomGraph(rng, n, density)
		seeds := randomSeeds(rng, n, 5)
		m := NewMiner(g, allNodes(g), randomFilter(rng))
		if rng.Intn(2) == 0 {
			m.Keep = randomKeep(rng)
		}
		all, _ := walk(m, seeds, maxLen)
		found := m.Found
		for _, measure := range []int{max(maxLen-1, 2), 2 + rng.Intn(max(maxLen-2, 1))} {
			m.Measure = measure
			got, polls := walk(m, seeds, maxLen)
			var want []visit
			for _, v := range all {
				if v.met.Length <= m.Measure {
					want = append(want, v)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: with Measure %d, visited %d cycles %v, want the %d of %d of at most %d nodes %v", seed, m.Measure, len(got), got, len(want), len(all), m.Measure, want)
			}
			if m.Found != found {
				t.Fatalf("seed %d: with Measure %d, Found %d, want the full walk's %d", seed, m.Measure, m.Found, found)
			}
			if len(polls) != found/pollEvery {
				t.Fatalf("seed %d: %d polls over %d cycles, want %d", seed, len(polls), found, found/pollEvery)
			}
			for i, f := range polls {
				if at := (i + 1) * pollEvery; f < at || f >= at+64 {
					t.Fatalf("seed %d: poll %d came after %d cycles, want the word that passed %d", seed, i+1, f, at)
				}
			}
			polled += len(polls)
			counted += len(all) - len(want)
		}
		m.Release()
	}
	if polled < 100 || counted < 10000 {
		t.Errorf("%d polls and %d cycles counted: too few to test Measure", polled, counted)
	}
}

// TestWalkCountLastEdges holds the count of the cycles longer than
// Measure — at the last level, or per seed in closed form at maxLen 4 and
// 5 — to referenceEnumerate where it is easiest to get wrong: where
// path[1] is the view's last node and at the other word ends; at maxLen 6
// to 8 round a seed next to every node, so that the path's inner nodes are
// seed neighbours above path[1] and removed seeds lie above path[1]; with
// nil seeds, every node a seed, the ones before it removed; and, for the
// closed form, round a seed whose neighbours a node in another word is
// next to 64 and more of, with triangles among them, links doubled by a
// link back, and removed seeds next to them. In each case the walk that
// measures maxLen−1 nodes, and at maxLen 5 also the one that measures 3,
// visits exactly the reference's cycles of at most Measure nodes, finds
// all of them, and polls Found/pollEvery times.
func TestWalkCountLastEdges(t *testing.T) {
	countLast := func(t *testing.T, g *graph.Graph, seeds []graph.NodeID, maxLen int) (counted int) {
		t.Helper()
		want, err := referenceEnumerate(g, seeds, maxLen, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMiner(g, allNodes(g), nil)
		defer m.Release()
		measures := []int{maxLen - 1}
		if maxLen == 5 {
			measures = append(measures, 3)
		}
		for _, measure := range measures {
			var shorter []Cycle
			for _, c := range want {
				if len(c.Nodes) <= measure {
					shorter = append(shorter, c)
				}
			}
			m.Measure = measure
			polls := 0
			m.Poll = func() error { polls++; return nil }
			var got []Cycle
			err = m.Walk(seeds, maxLen, func(Metrics) error {
				got = append(got, Cycle{Nodes: slices.Clone(m.Cycle().Nodes)})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			slices.SortFunc(got, Compare)
			if !reflect.DeepEqual(got, shorter) {
				t.Fatalf("%d nodes, seeds %v, maxLen %d, Measure %d: visited %v, want %v", g.NumNodes(), seeds, maxLen, measure, got, shorter)
			}
			if m.Found != len(want) || polls != len(want)/pollEvery {
				t.Fatalf("%d nodes, seeds %v, maxLen %d, Measure %d: Found %d and %d polls, want %d and %d", g.NumNodes(), seeds, maxLen, measure, m.Found, polls, len(want), len(want)/pollEvery)
			}
			counted += len(want) - len(shorter)
		}
		return counted
	}
	// crowd adds each edge among nodes with probability p, of a random kind.
	crowd := func(rng *rand.Rand, g *graph.Graph, nodes []graph.NodeID, p float64) {
		for i, u := range nodes {
			for _, v := range nodes[:i] {
				if rng.Float64() < p {
					_ = g.AddEdge(u, v, graph.EdgeKind(rng.Intn(4)))
				}
			}
		}
	}
	article := func(n int) *graph.Graph {
		g := graph.New(n)
		for range n {
			g.AddNode(graph.Article)
		}
		return g
	}

	t.Run("row end", func(t *testing.T) {
		counted := 0
		for words := 1; words <= 3; words++ {
			n := 64 * words
			rng := rand.New(rand.NewSource(int64(words)))
			g := article(n)
			// The seed 0 is next to the last node and to the ends of every
			// word; they, and a few nodes either side, crowd together.
			near := []graph.NodeID{0, 1, 2}
			for b := 64; b <= n; b += 64 {
				near = append(near, graph.NodeID(b-3), graph.NodeID(b-2), graph.NodeID(b-1))
				if b < n {
					near = append(near, graph.NodeID(b), graph.NodeID(b+1))
				}
			}
			for b := 64; b <= n; b += 64 {
				_ = g.AddEdge(0, graph.NodeID(b-1), graph.Link)
				_ = g.AddEdge(graph.NodeID(b-1), graph.NodeID(b-2), graph.Link)
			}
			crowd(rng, g, near, 0.45)
			for _, seeds := range [][]graph.NodeID{{0}, {0, graph.NodeID(n - 1)}, {graph.NodeID(n - 2), 0}} {
				for maxLen := 4; maxLen <= 6; maxLen++ {
					counted += countLast(t, g, seeds, maxLen)
				}
			}
		}
		if t.Logf("%d cycles counted", counted); counted < 1000 {
			t.Errorf("%d cycles counted: too few", counted)
		}
	})

	t.Run("deep", func(t *testing.T) {
		counted := 0
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 10 + rng.Intn(3)
			g := article(n)
			var rest []graph.NodeID
			for v := 1; v < n; v++ {
				_ = g.AddEdge(0, graph.NodeID(v), graph.Link) // the seed is next to every node
				rest = append(rest, graph.NodeID(v))
			}
			crowd(rng, g, rest, 0.4)
			for maxLen := 6; maxLen <= 8; maxLen++ {
				counted += countLast(t, g, []graph.NodeID{0}, maxLen)
				counted += countLast(t, g, []graph.NodeID{graph.NodeID(n - 1), 0}, maxLen)
				// Removed before n-1 is, 3 and 6 lie above its path[1] 0.
				counted += countLast(t, g, []graph.NodeID{3, 6, graph.NodeID(n - 1)}, maxLen)
			}
		}
		if t.Logf("%d cycles counted", counted); counted < 10000 {
			t.Errorf("%d cycles counted: too few", counted)
		}
	})

	t.Run("nil seeds", func(t *testing.T) {
		counted := 0
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := randomGraph(rng, 20+rng.Intn(120), 2)
			counted += countLast(t, g, nil, 4+rng.Intn(3))
		}
		if t.Logf("%d cycles counted", counted); counted < 1000 {
			t.Errorf("%d cycles counted: too few", counted)
		}
	})

	t.Run("closed form", func(t *testing.T) {
		counted := 0
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			const n, hub = 150, 140
			g := article(n)
			// Seed 0's neighbours 1 to 70 span two words, and hub, in the
			// third, is next to each: so 70 of them are next to it.
			var x []graph.NodeID
			for v := graph.NodeID(1); v <= 70; v++ {
				_ = g.AddEdge(0, v, graph.Link)
				_ = g.AddEdge(v, hub, graph.Link)
				x = append(x, v)
			}
			// Triangles among them, a link back doubling every other pair.
			for i, u := range x {
				for _, v := range x[:i] {
					if rng.Float64() < 0.08 {
						_ = g.AddEdge(u, v, graph.Link)
						if rng.Intn(2) == 0 {
							_ = g.AddEdge(v, u, graph.Link)
						}
					}
				}
			}
			// The other nodes tie them together loosely, and one another.
			var rest []graph.NodeID
			for v := graph.NodeID(71); v < n; v++ {
				if v != hub {
					_ = g.AddEdge(v, x[rng.Intn(len(x))], graph.EdgeKind(rng.Intn(4)))
					_ = g.AddEdge(x[rng.Intn(len(x))], v, graph.Link)
					rest = append(rest, v)
				}
			}
			crowd(rng, g, rest, 0.03)
			// At hub, 0 is removed and next to all its neighbours; at 75,
			// 1, 2 and 71 are, next to 0's neighbours and some of them.
			for _, seeds := range [][]graph.NodeID{{0}, {hub, 0}, {1, 2, 71, 75, hub}, {3, 0, 80}, nil} {
				for maxLen := 4; maxLen <= 5; maxLen++ {
					counted += countLast(t, g, seeds, maxLen)
				}
			}
		}
		if t.Logf("%d cycles counted", counted); counted < 10000 {
			t.Errorf("%d cycles counted: too few", counted)
		}
	})
}

// TestMinerRowsMatchInduced holds the view itself, not the cycles it
// yields, to g.Induce(list): Len, every node's Kind and Neighbors (which
// internal/querygraph reads directly), the neighbour rows, and every pair's
// two-edge bit against EdgesBetween ≥ 2, uncapped. The graphs carry
// parallel edges of several kinds between one article pair, categories
// nested inside each other both ways — a pair whose two edges count once in
// a cycle's Metrics but still make it a 2-cycle — and redirects; some
// lists are wider than wideView.
func TestMinerRowsMatchInduced(t *testing.T) {
	wide, nested := 0, 0
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, size := 4+rng.Intn(150), 0
		if seed%6 == 0 { // a list just below or just above wideView
			n = wideView + 120
			size = wideView - 40 + rng.Intn(120)
		}
		g := randomGraph(rng, n, 1+3*rng.Float64())
		c1, c2 := g.AddNode(graph.Category), g.AddNode(graph.Category)
		a1, a2 := g.AddNode(graph.Article), g.AddNode(graph.Article)
		for _, e := range []graph.Edge{
			{From: c1, To: c2, Kind: graph.Inside}, {From: c2, To: c1, Kind: graph.Inside},
			{From: a1, To: a2, Kind: graph.Link}, {From: a2, To: a1, Kind: graph.Link},
			{From: a1, To: a2, Kind: graph.Redirect}, {From: a2, To: a1, Kind: graph.Belongs},
			{From: a1, To: a2, Kind: graph.Inside}, {From: a1, To: c1, Kind: graph.Belongs},
			{From: a1, To: c1, Kind: graph.Link}, {From: c2, To: a2, Kind: graph.Redirect},
		} {
			_ = g.AddEdge(e.From, e.To, e.Kind) // a repeat of a random edge is rejected, fine
		}
		if size == 0 {
			size = rng.Intn(g.NumNodes() + 1)
		}
		perm := rng.Perm(g.NumNodes())[:size]
		list := []graph.NodeID{c1, c2, a1, a2}[:rng.Intn(5)]
		for _, v := range perm {
			list = append(list, graph.NodeID(v))
		}
		slices.Sort(list)
		list = slices.Compact(list)
		exclude := randomFilter(rng)
		sub := g.Induce(list)

		m := NewMiner(g, list, exclude)
		if m.Len() != len(list) {
			t.Fatalf("seed %d: Len %d, want %d", seed, m.Len(), len(list))
		}
		if len(list) > wideView {
			wide++
		}
		for v := range len(list) {
			id := graph.NodeID(v)
			if m.Kind(id) != sub.Kind(id) {
				t.Fatalf("seed %d: node %d is a %v, want %v", seed, v, m.Kind(id), sub.Kind(id))
			}
			want := sub.Neighbors(id, exclude)
			if got := slices.Collect(m.Neighbors(id)); !slices.Equal(got, want) {
				t.Fatalf("seed %d: node %d has neighbours %v, want %v", seed, v, got, want)
			}
			var fromRow []graph.NodeID
			for u := range len(list) {
				if m.bits[v*m.words+u/64]>>(u%64)&1 != 0 {
					fromRow = append(fromRow, graph.NodeID(u))
				}
			}
			if !slices.Equal(fromRow, want) {
				t.Fatalf("seed %d: node %d's bit row holds %v, want %v", seed, v, fromRow, want)
			}
			for u := range len(list) {
				got, want := m.two[v*m.words+u/64]>>(u%64)&1 != 0, sub.EdgesBetween(id, graph.NodeID(u), exclude) >= 2
				if got != want {
					t.Fatalf("seed %d: two-edge bit of %d and %d is %v, want %v", seed, v, u, got, want)
				}
			}
		}
		p1, in1 := slices.BinarySearch(list, c1)
		p2, in2 := slices.BinarySearch(list, c2)
		if in1 && in2 {
			if nested++; !m.has(m.two, graph.NodeID(p1), graph.NodeID(p2)) {
				t.Fatalf("seed %d: the categories nested both ways, %d and %d, share no two-edge bit", seed, p1, p2)
			}
		}
		m.Release()
	}
	if wide == 0 || nested == 0 {
		t.Errorf("%d views wider than wideView and %d with the nested categories: both must come up", wide, nested)
	}
}

// TestEnumerateDeepAcrossWordBoundaries is TestEnumerateAcrossWordBoundaries
// at maxLen 6 to 8, where the level before the last — the one that enters
// only the nodes with a closer — lies two to four nodes down the path, with
// that many path nodes in blockedBits. Smaller graphs, 65 to about 300
// nodes, and sparser crowds around the multiples of 64, so that the
// reference's search from every node stays short.
func TestEnumerateDeepAcrossWordBoundaries(t *testing.T) {
	compared, straddling := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 65 + rng.Intn(240)
		g := randomGraph(rng, n, 1)
		var near []graph.NodeID // the nodes within three of a multiple of 64
		for b := 64; b-3 < n; b += 64 {
			for v := b - 3; v < min(b+3, n); v++ {
				near = append(near, graph.NodeID(v))
			}
		}
		for e := 0; e < 3*len(near); e++ {
			_ = g.AddEdge(near[rng.Intn(len(near))], near[rng.Intn(len(near))], graph.EdgeKind(rng.Intn(4)))
		}
		var seeds []graph.NodeID
		if rng.Intn(5) != 0 {
			seeds = make([]graph.NodeID, 1+rng.Intn(6))
			for i := range seeds {
				seeds[i] = near[rng.Intn(len(near))]
			}
		}
		maxLen, exclude := 6+rng.Intn(3), randomFilter(rng)
		compared += checkMinerAgainstReference(t, seed, g, seeds, maxLen, exclude)
		cs, err := Enumerate(g, seeds, maxLen, exclude)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cs {
			if slices.ContainsFunc(c.Nodes, func(v graph.NodeID) bool { return v>>6 != c.Nodes[0]>>6 }) {
				straddling++
			}
		}
	}
	if t.Logf("%d cycles compared, %d of them across a word boundary", compared, straddling); straddling < 10000 {
		t.Errorf("only %d cycles cross a word boundary: the graphs test too little", straddling)
	}
}

// leastVariant is the canonical form by its definition, sharing no code
// with Canonicalize: of the cycle's rotations and reflections, the
// lexicographically least. For distinct nodes it leads with the smallest
// and turns toward the smaller of that node's two neighbours round it.
func leastVariant(c []graph.NodeID) []graph.NodeID {
	var best []graph.NodeID
	for r := range c {
		for _, back := range []bool{false, true} {
			v := make([]graph.NodeID, len(c))
			for i := range v {
				if back {
					v[i] = c[(r-i+len(c))%len(c)]
				} else {
					v[i] = c[(r+i)%len(c)]
				}
			}
			if best == nil || slices.Compare(v, best) < 0 {
				best = v
			}
		}
	}
	return best
}

// TestCanonicalizeEveryVariant: Canonicalize gives every rotation and
// reflection of a cycle the one form, the least of them; and what Cycle
// hands a visitor is Canonicalize of what Path hands it — the form the
// expander's ranker builds from stored paths — on walks of random graphs.
func TestCanonicalizeEveryVariant(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		length := 2 + rng.Intn(MaxSupportedLength-1)
		path := make([]graph.NodeID, 0, length)
		for _, v := range rng.Perm(3 * length)[:length] { // distinct, below 24
			path = append(path, graph.NodeID(v+rng.Intn(2)*100))
		}
		want := leastVariant(path)
		for r := range length {
			for _, back := range []bool{false, true} {
				c := append(slices.Clone(path[r:]), path[:r]...)
				if back {
					slices.Reverse(c)
				}
				given := slices.Clone(c)
				if Canonicalize(c); !slices.Equal(c, want) {
					t.Fatalf("Canonicalize(%v) = %v, want %v", given, c, want)
				}
			}
		}
	}
	walked := 0
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(90)
		g := randomGraph(rng, n, 1+2*rng.Float64())
		m := NewMiner(g, allNodes(g), randomFilter(rng))
		err := m.Walk(randomSeeds(rng, n, 5), 2+rng.Intn(6), func(Metrics) error {
			c := slices.Clone(m.Path())
			if Canonicalize(c); !slices.Equal(c, m.Cycle().Nodes) || !slices.Equal(c, leastVariant(m.Path())) {
				t.Fatalf("seed %d: path %v canonicalised to %v; Cycle is %v", seed, m.Path(), c, m.Cycle().Nodes)
			}
			walked++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	}
	if walked < 1000 {
		t.Errorf("only %d cycles walked", walked)
	}
}
