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

// TestEnumerateMatchesReference requires the identical list in the
// identical order, and every cycle's table-read metrics equal to the
// scanned ones, on random graphs on both sides of maxTableNodes.
func TestEnumerateMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, density := 1+rng.Intn(24), 1+2*rng.Float64()
		if seed%100 == 99 {
			n, density = maxTableNodes+1+rng.Intn(50), 1.2 // no pair table: the scans serve
		}
		g := randomGraph(rng, n, density)
		seeds, maxLen, exclude := randomSeeds(rng, n, 5), 2+rng.Intn(5), randomFilter(rng)
		given := slices.Clone(seeds)

		want, err := referenceEnumerate(g, seeds, maxLen, exclude)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMiner(g, exclude)
		if (m.pairs == nil) != (n > maxTableNodes) {
			t.Fatalf("seed %d: %d nodes, pair table %v", seed, n, m.pairs != nil)
		}
		got, err := m.Enumerate(seeds, maxLen)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (n=%d seeds=%v maxLen=%d): %d cycles %v, want %d %v", seed, n, seeds, maxLen, len(got), got, len(want), want)
		}
		if !slices.Equal(seeds, given) {
			t.Fatalf("seed %d: Enumerate reordered its caller's seeds: %v, were %v", seed, seeds, given)
		}
		for _, c := range got {
			want := referenceMeasure(g, c, exclude)
			if got, err := m.Measure(c); err != nil || got != want {
				t.Fatalf("seed %d: Miner.Measure(%v) = %+v, %v, want %+v", seed, c.Nodes, got, err, want)
			}
			if got, err := Measure(g, c, exclude); err != nil || got != want {
				t.Fatalf("seed %d: Measure(%v) = %+v, %v, want %+v", seed, c.Nodes, got, err, want)
			}
		}
		m.Release()
		if again, _ := Enumerate(g, seeds, maxLen, exclude); !reflect.DeepEqual(again, want) {
			t.Fatalf("seed %d: a pooled Miner found %v, want %v", seed, again, want)
		}
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

// TestEnumeratePollStops: Poll is asked once per pollEvery recorded cycles,
// the first error it returns ends the walk at once and is what Enumerate
// returns, and the same Miner then enumerates as if nothing had happened.
func TestEnumeratePollStops(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 14, 4)
	m := NewMiner(g, nil)
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
	asked = 0
	m.Poll = func() error { asked++; return nil }
	if got, err := m.Enumerate(nil, 7); err != nil || !reflect.DeepEqual(got, want) || asked != len(want)/pollEvery {
		t.Fatalf("after the stopped walks: %d cycles, %v, %d polls; want %d cycles and %d polls", len(got), err, asked, len(want), len(want)/pollEvery)
	}
}
