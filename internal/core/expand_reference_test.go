package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/cycles"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/synth"
	"github.com/querygraph/querygraph/internal/trace"
	"github.com/querygraph/querygraph/internal/wiki"
)

// referenceExpand is the expansion pipeline as it stood before the bounded
// ball and the seed-anchored miner, step for step: every distance in the
// graph, filter by radius, sort by (distance, id), cap, induce, enumerate
// every cycle of the neighborhood, drop those that miss the query articles,
// measure each by adjacency scans, filter, sort them all by rank, select.
// Its CyclesAccepted counts the accepted cycles of the lengths the
// expander measures (see measuredLengths), derived from the full ranking;
// referenceMeasured also returns the longest of those lengths.
//
// The proof chain has two links. System.expand equals referenceExpand
// (TestExpandMatchesReference), which shares with it — through
// cycles.Enumerate(sub, nil, …) — the miner's walk, but neither the view
// read straight from the graph (the reference mines the subgraph Induce
// built), nor the seeds, the Metrics kept along the path (the reference
// calls cycles.Measure), the visitor, the buckets or the early stop. And
// cycles.Enumerate equals cycles' own referenceEnumerate
// (TestEnumerateMatchesReference there), which shares no code with the
// miner. BFSDistances and the package-level Measure are each tested against
// their own former selves where they changed.
func referenceExpand(s *System, keywords string, opts ExpanderOptions) (*Expansion, error) {
	exp, _, err := referenceMeasured(s, keywords, opts)
	return exp, err
}

// referenceBall is referenceExpand's neighborhood of the query articles:
// every distance in the graph, filtered by opts.Radius, sorted by
// (distance, id), capped at opts.MaxNeighborhood.
func referenceBall(g *graph.Graph, queryArts []graph.NodeID, opts ExpanderOptions) []graph.NodeID {
	dist := g.BFSDistances(queryArts, graph.ExcludeRedirects)
	type nd struct {
		id graph.NodeID
		d  int
	}
	ball := make([]nd, 0, len(dist))
	for id, d := range dist {
		if d <= opts.Radius {
			ball = append(ball, nd{id, d})
		}
	}
	sort.Slice(ball, func(i, j int) bool {
		if ball[i].d != ball[j].d {
			return ball[i].d < ball[j].d
		}
		return ball[i].id < ball[j].id
	})
	if len(ball) > opts.MaxNeighborhood {
		ball = ball[:opts.MaxNeighborhood]
	}
	nodes := make([]graph.NodeID, len(ball))
	for i, n := range ball {
		nodes[i] = n.id
	}
	return nodes
}

func referenceMeasured(s *System, keywords string, opts ExpanderOptions) (exp *Expansion, measured int, err error) {
	queryArts := s.LinkKeywords(keywords)
	exp = &Expansion{Keywords: keywords, QueryArticles: queryArts}
	if len(queryArts) == 0 {
		return exp, 0, nil
	}

	g := s.Snapshot.Graph()
	nodes := referenceBall(g, queryArts, opts)
	sub := g.Induce(nodes)

	all, err := cycles.Enumerate(sub.Graph, nil, opts.MaxCycleLen, graph.ExcludeRedirects)
	if err != nil {
		return nil, 0, err
	}
	type mined struct {
		cycle    cycles.Cycle
		metrics  cycles.Metrics
		articles []graph.NodeID
	}
	var kept []mined
	for _, c := range all {
		seeded := false
		for _, qa := range queryArts {
			if sid, ok := sub.ToSub[qa]; ok && c.Contains(sid) {
				seeded = true
			}
		}
		if !seeded {
			continue
		}
		m, err := cycles.Measure(sub.Graph, c, graph.ExcludeRedirects)
		if err != nil {
			return nil, 0, err
		}
		exp.CyclesConsidered++
		switch {
		case m.Length == 2:
			if !opts.KeepTwoCycles {
				continue
			}
		case m.CategoryRatio < opts.MinCategoryRatio || m.CategoryRatio > opts.MaxCategoryRatio:
			continue
		case m.Length >= 4 && m.ExtraEdgeDensity < opts.MinDensity:
			continue
		}
		var arts []graph.NodeID
		for _, n := range cycles.AppendArticles(nil, sub.Graph, c) {
			arts = append(arts, sub.ToParent[n])
		}
		kept = append(kept, mined{c, m, arts})
	}

	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].metrics, kept[j].metrics
		if a.Length != b.Length {
			return a.Length < b.Length
		}
		if a.ExtraEdgeDensity != b.ExtraEdgeDensity {
			return a.ExtraEdgeDensity > b.ExtraEdgeDensity
		}
		x, y := kept[i].cycle.Nodes, kept[j].cycle.Nodes
		for i := range x {
			if x[i] != y[i] {
				return x[i] < y[i]
			}
		}
		return false
	})

	inQuery := make(map[graph.NodeID]struct{}, len(queryArts))
	for _, qa := range queryArts {
		inQuery[qa] = struct{}{}
	}
	type candidate struct {
		feature   Feature
		order     int
		frequency int
	}
	byNode := make(map[graph.NodeID]*candidate)
	var ordered []*candidate
	for _, k := range kept {
		for _, parent := range k.articles {
			if _, isQ := inQuery[parent]; isQ {
				continue
			}
			if cand, dup := byNode[parent]; dup {
				cand.frequency++
				continue
			}
			cand := &candidate{
				feature: Feature{
					Node:          parent,
					Title:         s.Snapshot.Name(parent),
					CycleLen:      k.metrics.Length,
					Density:       k.metrics.ExtraEdgeDensity,
					CategoryRatio: k.metrics.CategoryRatio,
				},
				order:     len(ordered),
				frequency: 1,
			}
			byNode[parent] = cand
			ordered = append(ordered, cand)
		}
	}
	measured = measuredLengths(opts, func(length int) (n int) { // the features cycles of up to length nodes introduce
		for _, cand := range ordered {
			if cand.feature.CycleLen <= length {
				n++
			}
		}
		return n
	})
	for _, k := range kept {
		if k.metrics.Length <= measured {
			exp.CyclesAccepted++
		}
	}
	if opts.RankByFrequency {
		sort.Slice(ordered, func(i, j int) bool {
			if ordered[i].frequency != ordered[j].frequency {
				return ordered[i].frequency > ordered[j].frequency
			}
			return ordered[i].order < ordered[j].order
		})
	}
	for _, cand := range ordered {
		if len(exp.Features) >= opts.MaxFeatures {
			break
		}
		exp.Features = append(exp.Features, cand.feature)
		if opts.IncludeRedirectAliases {
			for _, r := range s.Snapshot.RedirectsTo(cand.feature.Node) {
				if len(exp.Features) >= opts.MaxFeatures {
					break
				}
				alias := cand.feature
				alias.Node = r
				alias.Title = s.Snapshot.Name(r)
				exp.Features = append(exp.Features, alias)
			}
		}
	}
	return exp, measured, nil
}

// measuredLengths is the rule of which lengths the expander measures,
// given how many features the cycles of up to each length introduce:
// every length when the ranking reads them all — it ranks by frequency,
// or MaxCycleLen is 2, the shortest length there is; otherwise the lengths
// up to 3 at MaxCycleLen 4 and 5 and up to MaxCycleLen−1 else, and then
// each next length while the shorter ones leave room for a feature. It
// returns the longest length measured.
func measuredLengths(opts ExpanderOptions, features func(length int) int) int {
	if opts.RankByFrequency || opts.MaxCycleLen == 2 {
		return opts.MaxCycleLen
	}
	measured := opts.MaxCycleLen - 1
	if opts.MaxCycleLen == 4 || opts.MaxCycleLen == 5 {
		measured = 3
	}
	for measured < opts.MaxCycleLen && features(measured) < opts.MaxFeatures {
		measured++
	}
	return measured
}

// randomWorld generates a small world whose shape varies with the seed.
func randomWorld(t testing.TB, rng *rand.Rand) (*System, []string) {
	cfg := synth.Default()
	cfg.Seed = rng.Int63()
	cfg.Topics = 2 + rng.Intn(5)
	cfg.ArticlesPerTopic = 4 + rng.Intn(10)
	cfg.DocsPerTopic = 2 + rng.Intn(3)
	cfg.Queries = 4
	cfg.NoiseVocab = 20
	cfg.RedirectProb = rng.Float64()
	cfg.IntraLinkProb *= 0.5 + 2*rng.Float64()
	cfg.ReciprocalProb = rng.Float64()
	cfg.CrossTopicLinks = rng.Intn(6)
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromWorld(w, WithExpandCache(0))
	if err != nil {
		t.Fatal(err)
	}
	// One-entity keywords, and keywords that link several query articles,
	// so that a small MaxNeighborhood cuts the sources themselves.
	var keywords []string
	for i, q := range w.Queries {
		keywords = append(keywords, q.Keywords, q.Keywords+" "+w.Queries[(i+1)%len(w.Queries)].Keywords)
	}
	return s, append(keywords, "no such entity anywhere")
}

// randomExpanderOptions draws options across the whole validated range:
// radius 1-3, caps from one node (inside the sources) through mid-level
// to beyond the ball, every cycle length, each switch both ways.
func randomExpanderOptions(rng *rand.Rand, graphSize int) ExpanderOptions {
	opts := DefaultExpanderOptions()
	opts.Radius = 1 + rng.Intn(3)
	opts.MaxCycleLen = 2 + rng.Intn(5)
	switch rng.Intn(3) {
	case 0:
		opts.MaxNeighborhood = 1 + rng.Intn(4)
	case 1:
		opts.MaxNeighborhood = 1 + rng.Intn(graphSize)
	}
	opts.MaxFeatures = 1 + rng.Intn(12)
	opts.KeepTwoCycles = rng.Intn(2) == 0
	opts.RankByFrequency = rng.Intn(2) == 0
	opts.IncludeRedirectAliases = rng.Intn(2) == 0
	if rng.Intn(3) == 0 {
		opts.MinDensity = 0
	}
	if rng.Intn(3) == 0 {
		opts.MinCategoryRatio, opts.MaxCategoryRatio = 0, 1
	}
	return opts
}

// TestExpandMatchesReference is the byte-identical guarantee of the bounded
// ball and the seed-anchored miner: over random worlds and random options,
// the whole Expansion equals the former pipeline's.
func TestExpandMatchesReference(t *testing.T) {
	worlds, expansions, features := 200, 0, 0
	if testing.Short() {
		worlds = 40
	}
	ctx := context.Background()
	for seed := 0; seed < worlds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		s, keywords := randomWorld(t, rng)
		for _, kw := range keywords {
			opts := randomExpanderOptions(rng, s.Snapshot.Graph().NumNodes())
			want, err := referenceExpand(s, kw, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Expand(ctx, kw, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("world %d, %q, %+v:\n got %+v\nwant %+v", seed, kw, opts, got, want)
			}
			expansions++
			features += len(got.Features)
		}
	}
	if features < expansions { // the comparison must not be of empty answers
		t.Errorf("%d expansions proposed only %d features", expansions, features)
	}
}

// TestExpandBeyondThePairTable holds neighborhoods of over 1 024 nodes,
// whose miner rows span 17 words or more, to the reference from the
// expander's side: the walk's row scans, its two-edge test and its capped
// edge counts reading far from a row's first word still give the
// reference's answer. (The name is from a miner that once had a pair table
// up to 1 024 nodes.)
func TestExpandBeyondThePairTable(t *testing.T) {
	w, err := synth.Generate(synth.Default())
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromWorld(w, WithExpandCache(0))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultExpanderOptions()
	opts.Radius, opts.MaxNeighborhood, opts.MaxCycleLen = 4, 1200, 4
	g, crossed := s.Snapshot.Graph(), 0
	for _, q := range w.Queries[:12] {
		if len(referenceBall(g, s.LinkKeywords(q.Keywords), opts)) > 1024 {
			crossed++
		}
		opts.RankByFrequency = !opts.RankByFrequency
		want, err := referenceExpand(s, q.Keywords, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Expand(context.Background(), q.Keywords, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q, %+v:\n got %+v\nwant %+v", q.Keywords, opts, got, want)
		}
		if got.CyclesAccepted == 0 {
			t.Errorf("%q: no cycle accepted of %d; nothing was compared", q.Keywords, got.CyclesConsidered)
		}
	}
	if t.Logf("%d of 12 neighborhoods beyond the table", crossed); crossed == 0 {
		t.Error("no neighborhood had more than 1024 nodes: the test never left the pair table")
	}
}

// TestExpandStopsRankingEarlyOnlyWhenItMay is the lazy ranking by example.
// Around the query article Venice:
//
//	Venice → Bridge, both in category Crossings      the first triangle
//	Venice → Gondola, both in category Boats         the second triangle
//	Gondola → Oar, Pole, Rowlock, each in category Rowing with Regatta,
//	and Regatta → Venice                             three 5-cycles
//
// Five cycles, all accepted (MinDensity is 0 here: a plain 5-cycle has no
// extra edge, and chords would add cycles of their own). In cycle order the
// triangles propose Bridge, then Gondola, which fills MaxFeatures = 2
// before the 5-cycles are looked at; but Gondola is also on all three of
// those and Regatta with it, so ranked by frequency the answer is Gondola
// (4 cycles), Regatta (3). Stopping early under RankByFrequency would give
// Bridge, Gondola (1 each). In cycle order the expander needs no cycle of
// more than 3 nodes, so it counts the three 5-cycles without measuring
// them: CyclesConsidered 5, CyclesAccepted 2; ranked by frequency it
// measures every cycle, and accepts 5.
func TestExpandStopsRankingEarlyOnlyWhenItMay(t *testing.T) {
	b := wiki.NewBuilder(16)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	node := func(add func(string) (graph.NodeID, error), name string) graph.NodeID {
		t.Helper()
		id, err := add(name)
		must(err)
		return id
	}
	venice, bridge, gondola, regatta := node(b.AddArticle, "Venice"), node(b.AddArticle, "Bridge"), node(b.AddArticle, "Gondola"), node(b.AddArticle, "Regatta")
	crossings, boats, rowing := node(b.AddCategory, "Crossings"), node(b.AddCategory, "Boats"), node(b.AddCategory, "Rowing")
	must(b.AddLink(venice, bridge))
	must(b.AddBelongs(venice, crossings))
	must(b.AddBelongs(bridge, crossings))
	must(b.AddLink(venice, gondola))
	must(b.AddBelongs(venice, boats))
	must(b.AddBelongs(gondola, boats))
	for _, title := range []string{"Oar", "Pole", "Rowlock"} {
		part := node(b.AddArticle, title)
		must(b.AddLink(gondola, part))
		must(b.AddBelongs(part, rowing))
	}
	must(b.AddBelongs(regatta, rowing))
	must(b.AddLink(regatta, venice))
	snap, err := b.Build()
	must(err)
	var coll corpus.Collection
	_, err = coll.Add(corpus.Image{ID: "1", Name: "gondola in venice.jpg"})
	must(err)
	s, err := NewSystem(snap, &coll, WithExpandCache(0))
	must(err)

	opts := DefaultExpanderOptions()
	opts.MinDensity, opts.MaxFeatures = 0, 2
	for _, tc := range []struct {
		byFrequency bool
		want        []string
		accepted    int
	}{{false, []string{"Bridge", "Gondola"}, 2}, {true, []string{"Gondola", "Regatta"}, 5}} {
		opts.RankByFrequency = tc.byFrequency
		got, err := s.Expand(context.Background(), "venice", opts)
		must(err)
		if titles := got.FeatureTitles(); !reflect.DeepEqual(titles, tc.want) {
			t.Errorf("RankByFrequency=%v: features %v, want %v", tc.byFrequency, titles, tc.want)
		}
		if got.CyclesConsidered != 5 || got.CyclesAccepted != tc.accepted {
			t.Errorf("RankByFrequency=%v: %d cycles considered, %d accepted; want 5 and %d however few were ranked",
				tc.byFrequency, got.CyclesConsidered, got.CyclesAccepted, tc.accepted)
		}
		// The full ranking, selected from afterwards, says the same.
		if want, err := referenceExpand(s, "venice", opts); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("RankByFrequency=%v:\n got %+v\nwant %+v, %v", tc.byFrequency, got, want, err)
		}
	}
}

// mineDetail expands keywords on a traced request and returns the answer
// and the detail of its expand.mine span.
func mineDetail(t *testing.T, s *System, keywords string, opts ExpanderOptions) (*Expansion, string) {
	t.Helper()
	tr := trace.Begin(trace.NewID())
	exp, err := s.expand(trace.NewContext(context.Background(), tr), keywords, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range tr.Finish("expand", "").Spans {
		if sp.Phase == "expand.mine" {
			return exp, sp.Detail
		}
	}
	return exp, ""
}

// TestExpandWalksAgainOnlyWhenTheRankingNeedsIt holds the walk-again rule
// to the full ranking: over random worlds, keywords and options — cycle
// lengths 3 to 6, up to 40 features, filters on and off, both rankings —
// the Expansion equals referenceExpand's, and the longest length the mine
// span says was measured is the one the reference derives from its
// features. Every way out of the rule must occur: a first walk that
// sufficed, one followed by a walk for each longer length, and one
// followed by walks that stopped short of MaxCycleLen.
func TestExpandWalksAgainOnlyWhenTheRankingNeedsIt(t *testing.T) {
	worlds := 120
	if testing.Short() {
		worlds = 50
	}
	counted, again, short := 0, 0, 0
	for seed := 0; seed < worlds; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		s, keywords := randomWorld(t, rng)
		for _, kw := range keywords {
			opts := DefaultExpanderOptions()
			opts.MaxCycleLen = 3 + rng.Intn(4)
			opts.MaxFeatures = 1 + rng.Intn(40)
			opts.Radius = 1 + rng.Intn(3)
			opts.RankByFrequency = rng.Intn(2) == 0
			opts.KeepTwoCycles = rng.Intn(2) == 0
			opts.IncludeRedirectAliases = rng.Intn(2) == 0
			if rng.Intn(2) == 0 {
				opts.MinCategoryRatio, opts.MaxCategoryRatio, opts.MinDensity = 0, 1, 0
			}
			want, measured, err := referenceMeasured(s, kw, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, detail := mineDetail(t, s, kw, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("world %d, %q, %+v:\n got %+v\nwant %+v", seed, kw, opts, got, want)
			}
			if len(got.QueryArticles) == 0 {
				continue
			}
			if wantDetail := fmt.Sprintf("considered=%d accepted=%d measured=%d", want.CyclesConsidered, want.CyclesAccepted, measured); detail != wantDetail {
				t.Fatalf("world %d, %q, %+v: mine span %q, want %q", seed, kw, opts, detail, wantDetail)
			}
			switch {
			case opts.RankByFrequency || got.CyclesConsidered == 0:
			case measured == firstMeasured(opts):
				counted++
			case measured < opts.MaxCycleLen:
				short++
			default:
				again++
			}
		}
	}
	if t.Logf("%d first walks sufficed, %d walked again to MaxCycleLen, %d stopped short", counted, again, short); counted < 20 || again < 20 || short == 0 {
		t.Errorf("too few walks of one kind to test the rule: %d sufficed, %d walked again to MaxCycleLen, %d stopped short", counted, again, short)
	}
}

// TestExpandWalksAgainForTheLongestFeatures is the walk-again path by
// example, on qserve's wire-test world: neisisti's ten features include
// two from 4-cycles and four from 5-cycles, so its first walk, which
// measures up to 3 nodes, leaves the ranking room, and it walks again
// twice, measuring the 4- and then the 5-cycles, and proposes the same ten
// features as a walk that measures everything; with room for four
// features, its 2-cycles fill it and the 4- and 5-cycles are only counted.
func TestExpandWalksAgainForTheLongestFeatures(t *testing.T) {
	cfg := synth.Default()
	cfg.Topics, cfg.ArticlesPerTopic, cfg.DocsPerTopic, cfg.Queries, cfg.NoiseVocab = 4, 8, 10, 4, 50
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromWorld(w, WithExpandCache(0))
	if err != nil {
		t.Fatal(err)
	}
	const keywords = "neisisti"
	if w.Queries[0].Keywords != keywords {
		t.Fatalf("the world's first query is %q, want %q", w.Queries[0].Keywords, keywords)
	}
	opts := DefaultExpanderOptions()
	for _, tc := range []struct {
		maxFeatures int
		detail      string
		features    []string
	}{
		{10, "considered=1205 accepted=164 measured=5", []string{
			"stafotia vanimou/2", "culacia voubo/2", "decitou tezaglei/2", "leifidia/2", "meibu stopi/4",
			"trougou ziabre/4", "ziledou/5", "tesoulei/5", "pebru sobre/5", "gavibria/5"}},
		{4, "considered=1205 accepted=7 measured=3", []string{
			"stafotia vanimou/2", "culacia voubo/2", "decitou tezaglei/2", "leifidia/2"}},
	} {
		opts.MaxFeatures = tc.maxFeatures
		exp, detail := mineDetail(t, s, keywords, opts)
		var features []string
		for _, f := range exp.Features {
			features = append(features, fmt.Sprintf("%s/%d", f.Title, f.CycleLen))
		}
		if detail != tc.detail || !reflect.DeepEqual(features, tc.features) {
			t.Errorf("MaxFeatures %d: mine span %q and features %q, want %q and %q", tc.maxFeatures, detail, features, tc.detail, tc.features)
		}
		if want, err := referenceExpand(s, keywords, opts); err != nil || !reflect.DeepEqual(exp, want) {
			t.Errorf("MaxFeatures %d:\n got %+v\nwant %+v, %v", tc.maxFeatures, exp, want, err)
		}
	}
}

// TestMineCyclesWithoutQueryArticle is the regression test of a nil seed
// set reaching the walk, which reads nil as "every cycle": when none of
// the query articles is among the nodes, no cycle passes through one.
func TestMineCyclesWithoutQueryArticle(t *testing.T) {
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddNode(graph.Article)
	}
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}} {
		if err := g.AddEdge(e[0], e[1], graph.Link); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		queryArticles []graph.NodeID
		want          int
	}{{[]graph.NodeID{3}, 0}, {nil, 0}, {[]graph.NodeID{}, 0}, {[]graph.NodeID{3, 1}, 1}} {
		got := 0
		for _, err := range MineCycles(context.Background(), g, []graph.NodeID{0, 1, 2}, tc.queryArticles) {
			if err != nil {
				t.Fatal(err)
			}
			got++
		}
		if got != tc.want {
			t.Errorf("MineCycles(triangle, %v) yields %d cycles, want %d", tc.queryArticles, got, tc.want)
		}
	}
}

// TestExpandAllColdConcurrent runs cold expansions from many goroutines at
// once (the walk and mining scratch is pooled per call, never per System)
// and requires the answers a sequential reference run gives. It earns its
// keep under -race.
func TestExpandAllColdConcurrent(t *testing.T) {
	s, keywords := randomWorld(t, rand.New(rand.NewSource(7)))
	var batch []string
	for i := 0; i < 12; i++ {
		batch = append(batch, keywords...)
	}
	opts := DefaultExpanderOptions()
	got, err := expandAll(context.Background(), s, batch, opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, kw := range batch {
		want, err := referenceExpand(s, kw, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("batch[%d] %q:\n got %+v\nwant %+v", i, kw, got[i], want)
		}
	}
}

// TestExpandPhaseSpans: a traced cold expansion records one span per phase
// of the pipeline, in order, on the caller's trace; the induce span names
// the size of the mined subgraph and the mine span the Expansion's cycle
// counters and the longest length measured, the details that say why a
// walk took long.
func TestExpandPhaseSpans(t *testing.T) {
	s, w := testSystem(t)
	tr := trace.Begin(trace.NewID())
	ctx := trace.NewContext(context.Background(), tr)
	opts := DefaultExpanderOptions()
	exp, err := s.expand(ctx, w.Queries[0].Keywords, opts)
	if err != nil {
		t.Fatal(err)
	}
	var got, details []string
	for _, sp := range tr.Finish("expand", "").Spans {
		got = append(got, sp.Phase)
		details = append(details, sp.Detail)
	}
	want := []string{"expand.link", "expand.ball", "expand.induce", "expand.mine", "expand.rank"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spans = %v, want %v", got, want)
	}
	ball := referenceBall(s.Snapshot.Graph(), exp.QueryArticles, opts)
	_, measured, err := referenceMeasured(s, w.Queries[0].Keywords, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantDetails := []string{"", "",
		fmt.Sprintf("nodes=%d", len(ball)),
		fmt.Sprintf("considered=%d accepted=%d measured=%d", exp.CyclesConsidered, exp.CyclesAccepted, measured), ""}
	if exp.CyclesAccepted == 0 || !reflect.DeepEqual(details, wantDetails) {
		t.Errorf("span details = %q, want %q", details, wantDetails)
	}
	// Nothing to anchor on: the pipeline ends after linking, and so do the spans.
	tr = trace.Begin(trace.NewID())
	if _, err := s.expand(trace.NewContext(context.Background(), tr), "no such entity anywhere", DefaultExpanderOptions()); err != nil {
		t.Fatal(err)
	}
	if spans := tr.Finish("expand", "").Spans; len(spans) != 1 || spans[0].Phase != "expand.link" {
		t.Errorf("unlinkable keywords: spans = %+v, want expand.link alone", spans)
	}
}
