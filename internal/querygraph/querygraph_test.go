package querygraph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/wiki"
)

// buildKB creates a snapshot shaped like the paper's example: a venice-like
// cluster plus a disconnected article.
//
//	venice, gondola, canal: linked, share category "venetia"
//	bridge: belongs to "venetia" (connected through the category only)
//	regata: redirect -> gondola
//	faraway: isolated article with its own category
func buildKB(t *testing.T) (*wiki.Snapshot, map[string]graph.NodeID) {
	t.Helper()
	b := wiki.NewBuilder(16)
	ids := map[string]graph.NodeID{}
	art := func(title string) graph.NodeID {
		t.Helper()
		id, err := b.AddArticle(title)
		if err != nil {
			t.Fatal(err)
		}
		ids[title] = id
		return id
	}
	cat := func(name string) graph.NodeID {
		t.Helper()
		id, err := b.AddCategory(name)
		if err != nil {
			t.Fatal(err)
		}
		ids[name] = id
		return id
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	venice, gondola, canal, bridge, faraway := art("venice"), art("gondola"), art("canal"), art("bridge"), art("faraway")
	venetia, remote := cat("venetia"), cat("remote")
	must(b.AddBelongs(venice, venetia))
	must(b.AddBelongs(gondola, venetia))
	must(b.AddBelongs(canal, venetia))
	must(b.AddBelongs(bridge, venetia))
	must(b.AddBelongs(faraway, remote))
	must(b.AddLink(venice, gondola))
	must(b.AddLink(gondola, venice))
	must(b.AddLink(venice, canal))
	r, err := b.AddRedirect("regata", gondola)
	must(err)
	ids["regata"] = r
	snap, err := b.Build()
	must(err)
	return snap, ids
}

func TestAssembleBasic(t *testing.T) {
	snap, ids := buildKB(t)
	qg, err := Assemble(snap, []graph.NodeID{ids["venice"]}, []graph.NodeID{ids["gondola"], ids["canal"]})
	if err != nil {
		t.Fatal(err)
	}
	// Nodes: venice, gondola, canal + category venetia.
	if qg.Size() != 4 {
		t.Errorf("Size = %d, want 4", qg.Size())
	}
	if len(qg.QueryArticles) != 1 || len(qg.Expansion) != 2 {
		t.Errorf("partition: %v / %v", qg.QueryArticles, qg.Expansion)
	}
}

func TestAssembleRedirectBringsMain(t *testing.T) {
	snap, ids := buildKB(t)
	qg, err := Assemble(snap, []graph.NodeID{ids["regata"]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// regata (redirect) + gondola (main) + venetia (category of main).
	if qg.Size() != 3 {
		t.Errorf("Size = %d, want 3", qg.Size())
	}
	if _, ok := slices.BinarySearch(qg.Nodes, ids["gondola"]); !ok {
		t.Error("main article not included")
	}
	if _, ok := slices.BinarySearch(qg.Nodes, ids["venetia"]); !ok {
		t.Error("category of main not included")
	}
}

func TestAssembleValidation(t *testing.T) {
	snap, ids := buildKB(t)
	if _, err := Assemble(snap, []graph.NodeID{9999}, nil); err == nil {
		t.Error("unknown node should fail")
	}
	if _, err := Assemble(snap, []graph.NodeID{ids["venetia"]}, nil); err == nil {
		t.Error("category as query article should fail")
	}
	if _, err := Assemble(snap, nil, []graph.NodeID{9999}); err == nil {
		t.Error("unknown expansion node should fail")
	}
}

func TestAssembleDedupesOverlap(t *testing.T) {
	snap, ids := buildKB(t)
	v := ids["venice"]
	qg, err := Assemble(snap, []graph.NodeID{v, v}, []graph.NodeID{v, ids["canal"]})
	if err != nil {
		t.Fatal(err)
	}
	if len(qg.QueryArticles) != 1 {
		t.Errorf("QueryArticles = %v", qg.QueryArticles)
	}
	// venice must not appear in the expansion set.
	for _, e := range qg.Expansion {
		if e == v {
			t.Error("query article leaked into expansion set")
		}
	}
}

func TestLargestComponentStats(t *testing.T) {
	snap, ids := buildKB(t)
	// Query: venice. Expansion: gondola, canal, bridge, faraway.
	// Component 1: venice,gondola,canal,bridge,venetia (5 nodes).
	// Component 2: faraway,remote (2 nodes).
	qg, err := Assemble(snap,
		[]graph.NodeID{ids["venice"]},
		[]graph.NodeID{ids["gondola"], ids["canal"], ids["bridge"], ids["faraway"]})
	if err != nil {
		t.Fatal(err)
	}
	if qg.Size() != 7 {
		t.Fatalf("Size = %d, want 7", qg.Size())
	}
	if qg.NumComponents() != 2 {
		t.Errorf("components = %d, want 2", qg.NumComponents())
	}
	st := qg.LargestComponentStats()
	if st.Size != 5 {
		t.Fatalf("LCC size = %d, want 5", st.Size)
	}
	if math.Abs(st.RelSize-5.0/7.0) > 1e-12 {
		t.Errorf("RelSize = %g", st.RelSize)
	}
	if st.QueryNodeFrac != 1 {
		t.Errorf("QueryNodeFrac = %g, want 1", st.QueryNodeFrac)
	}
	if math.Abs(st.ArticleFrac-4.0/5.0) > 1e-12 || math.Abs(st.CategoryFrac-1.0/5.0) > 1e-12 {
		t.Errorf("fracs = %g/%g", st.ArticleFrac, st.CategoryFrac)
	}
	// 3 of 4 expansion features in LCC, 1 query article in LCC.
	if st.ExpansionRatio != 3 {
		t.Errorf("ExpansionRatio = %g, want 3", st.ExpansionRatio)
	}
	// venice-gondola-venetia form a triangle; canal-venice-venetia too.
	if st.TPR == 0 {
		t.Error("TPR should be positive")
	}
	// bridge is at distance 2 from venice (via venetia).
	if st.MaxExpansionDistance != 2 {
		t.Errorf("MaxExpansionDistance = %d, want 2", st.MaxExpansionDistance)
	}
}

func TestStatsNoQueryArticleInComponent(t *testing.T) {
	snap, ids := buildKB(t)
	// Query article faraway sits in a 2-node component; expansion articles
	// form the larger venice component.
	qg, err := Assemble(snap,
		[]graph.NodeID{ids["faraway"]},
		[]graph.NodeID{ids["venice"], ids["gondola"], ids["canal"], ids["bridge"]})
	if err != nil {
		t.Fatal(err)
	}
	st := qg.LargestComponentStats()
	if st.Size != 5 {
		t.Fatalf("LCC size = %d, want 5", st.Size)
	}
	if st.QueryNodeFrac != 0 {
		t.Errorf("QueryNodeFrac = %g, want 0", st.QueryNodeFrac)
	}
	// The paper's convention: no query article in the component -> ratio 0.
	if st.ExpansionRatio != 0 {
		t.Errorf("ExpansionRatio = %g, want 0", st.ExpansionRatio)
	}
}

func TestEmptyQueryGraph(t *testing.T) {
	snap, _ := buildKB(t)
	qg, err := Assemble(snap, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if qg.Size() != 0 {
		t.Errorf("Size = %d, want 0", qg.Size())
	}
	st := qg.LargestComponentStats()
	if st.Size != 0 || st.RelSize != 0 {
		t.Errorf("empty stats = %+v", st)
	}
	if qg.NumComponents() != 0 {
		t.Errorf("components = %d", qg.NumComponents())
	}
}

// TestStatsMatchInduced compares LargestComponentStats and NumComponents,
// which read G(q) through a cycles.Miner, with referenceStats on the
// subgraph Induce builds, over random knowledge bases with reciprocal
// links, categories nested both ways, redirects, several components and
// ties for the largest one.
func TestStatsMatchInduced(t *testing.T) {
	triangles, split, tied := 0, 0, 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		snap, articles := randomKB(t, rng)
		pick := func(max int) []graph.NodeID {
			var ids []graph.NodeID
			for range rng.Intn(max + 1) {
				ids = append(ids, articles[rng.Intn(len(articles))])
			}
			return ids
		}
		qg, err := Assemble(snap, pick(3), pick(6))
		if err != nil {
			t.Fatal(err)
		}
		want, comps := referenceStats(qg)
		if got, n := qg.LargestComponentStats(), qg.NumComponents(); got != want || n != len(comps) {
			t.Fatalf("seed %d: stats %+v with %d components, want %+v with %d", seed, got, n, want, len(comps))
		}
		if want.TPR > 0 {
			triangles++
		}
		if len(comps) > 1 {
			split++
			if len(comps[0]) == len(comps[1]) {
				tied++
			}
		}
	}
	t.Logf("300 seeds: %d with TPR > 0, %d with several components, %d with a tie for the largest", triangles, split, tied)
	if triangles == 0 || split == 0 || tied == 0 {
		t.Fatal("the seeds miss a case the comparison is meant to cover")
	}
}

// randomKB builds a small random knowledge base and returns it with its
// articles, redirects included.
func randomKB(t *testing.T, rng *rand.Rand) (*wiki.Snapshot, []graph.NodeID) {
	t.Helper()
	b := wiki.NewBuilder(64)
	var cats, mains, articles []graph.NodeID
	for i := range 1 + rng.Intn(8) {
		c, err := b.AddCategory(fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		cats = append(cats, c)
	}
	for range rng.Intn(len(cats) + 1) {
		_ = b.AddInside(cats[rng.Intn(len(cats))], cats[rng.Intn(len(cats))]) // a loop or repeat is rejected, fine
	}
	for i := range 2 + rng.Intn(16) {
		a, err := b.AddArticle(fmt.Sprintf("a%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for range 1 + rng.Intn(2) {
			_ = b.AddBelongs(a, cats[rng.Intn(len(cats))])
		}
		mains = append(mains, a)
	}
	for range rng.Intn(2 * len(mains)) {
		from, to := mains[rng.Intn(len(mains))], mains[rng.Intn(len(mains))]
		_ = b.AddLink(from, to)
		if rng.Intn(3) == 0 {
			_ = b.AddLink(to, from)
		}
	}
	articles = append(articles, mains...)
	for i := range rng.Intn(4) {
		r, err := b.AddRedirect(fmt.Sprintf("r%d", i), mains[rng.Intn(len(mains))])
		if err != nil {
			t.Fatal(err)
		}
		articles = append(articles, r)
	}
	snap, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return snap, articles
}

// referenceStats computes LargestComponentStats and the components of G(q)
// the way they were computed before G(q) was read through a cycles.Miner:
// on the subgraph Induce builds, with components and triangles found
// through map-based searches and distances from BFSDistances.
func referenceStats(qg *QueryGraph) (ComponentStats, [][]graph.NodeID) {
	var st ComponentStats
	sub := qg.Snap.Graph().Induce(qg.Nodes)
	comps := referenceComponents(sub.Graph)
	if len(comps) == 0 {
		return st, comps
	}
	comp := comps[0]
	st.Size = len(comp)
	st.RelSize = float64(len(comp)) / float64(sub.NumNodes())
	inComp := make(map[graph.NodeID]bool, len(comp)) // sub IDs
	for _, n := range comp {
		inComp[n] = true
	}
	in := func(ids []graph.NodeID) []graph.NodeID { // sub IDs of those in comp
		var out []graph.NodeID
		for _, id := range ids {
			if sid, ok := sub.ToSub[id]; ok && inComp[sid] {
				out = append(out, sid)
			}
		}
		return out
	}
	queryIn, expIn := in(qg.QueryArticles), in(qg.Expansion)
	if len(qg.QueryArticles) > 0 {
		st.QueryNodeFrac = float64(len(queryIn)) / float64(len(qg.QueryArticles))
	}
	articles := 0
	for _, n := range comp {
		if sub.Kind(n) == graph.Article {
			articles++
		}
	}
	st.ArticleFrac = float64(articles) / float64(len(comp))
	st.CategoryFrac = float64(len(comp)-articles) / float64(len(comp))
	if len(queryIn) > 0 {
		st.ExpansionRatio = float64(len(expIn)) / float64(len(queryIn))
	}
	st.TPR = referenceTPR(sub.Graph, comp)
	if len(queryIn) > 0 {
		dist := sub.BFSDistances(queryIn, nil)
		for _, e := range expIn {
			if d, reach := dist[e]; reach && d > st.MaxExpansionDistance {
				st.MaxExpansionDistance = d
			}
		}
	}
	return st, comps
}

// referenceComponents returns the connected components of g's undirected
// view, each ascending, largest first and ties by smallest member.
func referenceComponents(g *graph.Graph) [][]graph.NodeID {
	seen := make(map[graph.NodeID]bool)
	var comps [][]graph.NodeID
	for start := range graph.NodeID(g.NumNodes()) {
		if seen[start] {
			continue
		}
		seen[start] = true
		comp, stack := []graph.NodeID{start}, []graph.NodeID{start}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range g.Neighbors(cur, nil) {
				if !seen[nb] {
					seen[nb] = true
					stack = append(stack, nb)
					comp = append(comp, nb)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	sort.SliceStable(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// referenceTPR is the fraction of nodes that are on a triangle of the
// undirected view of g restricted to them.
func referenceTPR(g *graph.Graph, nodes []graph.NodeID) float64 {
	adj := make(map[graph.NodeID]map[graph.NodeID]bool, len(nodes))
	for _, n := range nodes {
		adj[n] = make(map[graph.NodeID]bool)
	}
	for _, n := range nodes {
		for _, nb := range g.Neighbors(n, nil) {
			if adj[nb] != nil {
				adj[n][nb] = true
			}
		}
	}
	on := make(map[graph.NodeID]bool)
	for u := range adj {
		for v := range adj[u] {
			for w := range adj[v] {
				if w != u && adj[u][w] {
					on[u], on[v], on[w] = true, true, true
				}
			}
		}
	}
	return float64(len(on)) / float64(len(nodes))
}
