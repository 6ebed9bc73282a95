package cycles

import (
	"reflect"
	"slices"
	"testing"

	"github.com/querygraph/querygraph/internal/graph"
)

// maxFuzzDegree caps how many distinct neighbours a node of a fuzzed graph
// may have, so that the reference's search from every node to length 8
// stays short whatever the input; parallel edges between neighbours are
// not capped. Node 0 of a graph whose header sets flag 0x20 is a hub the
// cap does not bind: the reference's search from a node enters only the
// nodes above it, so only the search from 0 enters the hub, and it costs
// the hub's degree times what a capped node's search does.
const maxFuzzDegree = 4

// decodeWalk reads one Walk's input from fuzz bytes: a header of node
// count (up to 192, three bitset words), maxLen (2 to 8), filter, seed
// set, hub and Keep salt; a bitmask of category nodes; the seeds; then
// edges as (from, to, kind) triples of all four kinds.
func decodeWalk(data []byte) (g *graph.Graph, seeds []graph.NodeID, maxLen int, exclude func(graph.EdgeKind) bool, keep func(Metrics) bool) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n, flags, salt := 1+int(next())%192, next(), next()
	maxLen = 2 + int(flags)%7
	if flags&0x08 != 0 {
		exclude = graph.ExcludeRedirects
	}
	switch lo := float64(salt%16) / 16; flags >> 6 {
	case 0:
		keep = func(m Metrics) bool { return m.Length == 2 || m.CategoryRatio >= lo }
	case 1:
		keep = func(m Metrics) bool { return m.ExtraEdgeDensity >= lo }
	case 2:
		keep = func(m Metrics) bool { return (m.Length*97+m.Articles*31+m.Edges+int(salt))%3 == 0 }
	default:
		keep = func(Metrics) bool { return false }
	}
	g = graph.New(n)
	var cats byte
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			cats = next()
		}
		if cats>>(i%8)&1 != 0 {
			g.AddNode(graph.Category)
		} else {
			g.AddNode(graph.Article)
		}
	}
	if flags&0x10 == 0 { // nil seeds otherwise: every cycle
		seeds = []graph.NodeID{}
		for k := int(next()) % 8; k > 0; k-- {
			seeds = append(seeds, graph.NodeID(int(next())%n))
		}
	}
	full := func(v graph.NodeID) bool {
		return len(g.Neighbors(v, nil)) >= maxFuzzDegree && (v != 0 || flags&0x20 == 0)
	}
	for len(data) >= 3 {
		from, to, kind := graph.NodeID(int(next())%n), graph.NodeID(int(next())%n), graph.EdgeKind(next()%4)
		if g.EdgesBetween(from, to, nil) == 0 && (full(from) || full(to)) {
			continue
		}
		_ = g.AddEdge(from, to, kind) // self-loops and repeats rejected, fine
	}
	return g, seeds, maxLen, exclude, keep
}

// FuzzMinerWalk holds Walk, with and without Keep and at every Measure —
// 0 and each length from 2 to maxLen — to referenceEnumerate and
// referenceMeasure on graphs decoded from the input: the unfiltered walk
// visits exactly the reference's cycles of at most Measure nodes (every
// one at 0), in canonical form, each measured as the reference measures
// it; the filtered one visits those of them Keep accepts; Found is the
// reference's full count every time, and Poll is asked Found/pollEvery
// times.
func FuzzMinerWalk(f *testing.F) {
	// Five nodes, node 1 a category, maxLen 5, seed 0: a square with a chord.
	f.Add([]byte{4, 3, 0, 0x02, 1, 0, 0, 1, 0, 1, 2, 1, 2, 3, 0, 3, 0, 0, 0, 2, 0})
	// 80 nodes, maxLen 8, a density Keep, seeds 62 to 64: a crowd of edges
	// across the first word boundary.
	f.Add([]byte{79, 0x45, 7, 0x81, 0, 0x40, 0, 0, 0, 0, 0x10, 0, 0,
		3, 62, 63, 64,
		62, 63, 0, 63, 64, 1, 64, 65, 2, 65, 62, 0, 62, 64, 0, 63, 65, 3,
		64, 62, 0, 1, 64, 0, 66, 63, 1, 66, 62, 0, 61, 66, 2, 61, 65, 0})
	// 70 nodes, maxLen 7, redirects excluded, every cycle, a hashed Keep.
	f.Add([]byte{69, 0x98, 200, 0xff, 0, 0, 0, 0, 0, 0, 0xf0, 0,
		63, 64, 2, 64, 63, 2, 60, 68, 1, 68, 60, 1, 63, 68, 0, 64, 60, 0,
		61, 67, 3, 67, 62, 2, 62, 61, 0, 61, 60, 0, 67, 64, 0, 62, 68, 1})
	// 192 nodes, maxLen 6, redirects excluded, a density Keep, seeds 2
	// and 129: seed 2's neighbours 63, 64, 130 and 190 lie in all three
	// words of its rows, and close cycles with 129, 191 and 1 among them.
	f.Add([]byte{191, 0x4a, 5,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x04, 0, 0, 0, 0, 0, 0, 0x80,
		2, 2, 129,
		2, 63, 0, 2, 64, 0, 2, 130, 1, 190, 2, 0, 63, 64, 0, 64, 63, 0, 63, 130, 0, 63, 191, 2,
		64, 190, 0, 64, 129, 0, 130, 190, 0, 130, 129, 0, 190, 191, 0, 191, 190, 0,
		129, 191, 0, 129, 1, 0, 191, 1, 0})
	// 150 nodes, maxLen 5, a density Keep, seeds 0 and 140, node 0 a hub:
	// its 70 neighbours lie in all three words of its rows, linked in a
	// chain, each link doubled by one back, and nine nodes above them are
	// next to four of them each.
	hub := append([]byte{149, 0x65, 9}, make([]byte, 19)...)
	hub = append(hub, 2, 0, 140)
	var spokes []byte
	for v := 1; v <= 140; v++ {
		if v <= 40 || v >= 64 && v <= 80 || v >= 128 {
			spokes = append(spokes, byte(v))
			hub = append(hub, 0, byte(v), 0)
		}
	}
	for i := 1; i < len(spokes); i++ {
		hub = append(hub, spokes[i-1], spokes[i], 0, spokes[i], spokes[i-1], 0)
	}
	for b := 141; b < 150; b++ {
		for j := 0; j < 4; j++ {
			hub = append(hub, byte(b), spokes[(b*11+j*17)%len(spokes)], 1)
		}
	}
	f.Add(hub)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, seeds, maxLen, exclude, keep := decodeWalk(data)
		want, err := referenceEnumerate(g, seeds, maxLen, exclude)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMiner(g, allNodes(g), exclude)
		defer m.Release()
		measures := []int{0}
		for l := 2; l <= maxLen; l++ {
			measures = append(measures, l)
		}
		for _, measure := range measures {
			for _, filter := range []func(Metrics) bool{nil, keep} {
				m.Keep, m.Measure = filter, measure
				polls := 0
				m.Poll = func() error { polls++; return nil }
				var got []Cycle
				err := m.Walk(seeds, maxLen, func(met Metrics) error {
					c := Cycle{Nodes: slices.Clone(m.Cycle().Nodes)}
					if wantMet := referenceMeasure(g, c, exclude); met != wantMet {
						t.Fatalf("cycle %v measured %+v, want %+v", c.Nodes, met, wantMet)
					}
					got = append(got, c)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				var kept []Cycle
				for _, c := range want {
					if measure > 0 && len(c.Nodes) > measure {
						continue
					}
					if filter == nil || filter(referenceMeasure(g, c, exclude)) {
						kept = append(kept, c)
					}
				}
				slices.SortFunc(got, Compare)
				if !reflect.DeepEqual(got, kept) {
					t.Fatalf("%d nodes, seeds %v, maxLen %d, filtered %v, Measure %d: walked %v, want %v", g.NumNodes(), seeds, maxLen, filter != nil, measure, got, kept)
				}
				if m.Found != len(want) || polls != len(want)/pollEvery {
					t.Fatalf("Measure %d: Found %d and %d polls, want the %d cycles closed and %d", measure, m.Found, polls, len(want), len(want)/pollEvery)
				}
			}
		}
	})
}

// FuzzBallMiner runs checkBallMiner on graphs decoded from the input as
// FuzzMinerWalk decodes them, its seeds the sources; shape sets the
// radius (1 to 3), the cap (up to two above the node count, so it may cut
// the sources themselves or bind nowhere) and whether an invalid source
// and a repeated one join the list.
func FuzzBallMiner(f *testing.F) {
	f.Add([]byte{4, 3, 0, 0x02, 1, 0, 0, 1, 0, 1, 2, 1, 2, 3, 0, 3, 0, 0, 0, 2, 0}, uint16(1<<2|1))
	f.Add([]byte{79, 0x45, 7, 0x81, 0, 0x40, 0, 0, 0, 0, 0x10, 0, 0,
		3, 62, 63, 64,
		62, 63, 0, 63, 64, 1, 64, 65, 2, 65, 62, 0, 62, 64, 0, 63, 65, 3,
		64, 62, 0, 1, 64, 0, 66, 63, 1, 66, 62, 0, 61, 66, 2, 61, 65, 0}, uint16(2<<2|2|0x8000))
	f.Add([]byte{79, 0x45, 7, 0x81, 0, 0x40, 0, 0, 0, 0, 0x10, 0, 0,
		3, 62, 63, 64,
		62, 63, 0, 63, 64, 1, 64, 65, 2, 65, 62, 0, 62, 64, 0, 63, 65, 3}, uint16(7<<2|2))
	f.Fuzz(func(t *testing.T, data []byte, shape uint16) {
		g, sources, maxLen, exclude, keep := decodeWalk(data)
		if shape&0x8000 != 0 {
			sources = append(sources, graph.NodeID(g.NumNodes()))
			if len(sources) > 1 {
				sources = append(sources, sources[0])
			}
		}
		radius, maxNodes := 1+int(shape&3)%3, int(shape>>2&0x1ff)%(g.NumNodes()+3)
		checkBallMiner(t, g, sources, radius, maxNodes, exclude, maxLen, keep)
	})
}
