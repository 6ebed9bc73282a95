// Package querygraph_test hosts the benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (see DESIGN.md's
// per-experiment index), two ablation benchmarks, and micro-benchmarks of
// the hot paths (indexing, search, linking, cycle mining, online
// expansion). Run with:
//
//	go test -bench=. -benchmem
//
// Headline numbers are attached to each benchmark via b.ReportMetric, so
// the -bench output doubles as a compact experiment report.
package querygraph_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/querygraph/querygraph"
	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/cycles"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/groundtruth"
	"github.com/querygraph/querygraph/internal/index"
	"github.com/querygraph/querygraph/internal/rpc"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/shard"
	"github.com/querygraph/querygraph/internal/store"
	"github.com/querygraph/querygraph/internal/synth"
	"github.com/querygraph/querygraph/internal/text"
)

// bench holds the shared benchmark environment, built once per process: the
// default synthetic world (the same one cmd/qbench uses, reduced to 30
// queries to keep -bench wall time moderate), the assembled system, the
// ground truths and the full analysis.
type benchEnv struct {
	world    *synth.World
	system   *core.System
	queries  []core.Query
	gts      []*core.GroundTruth
	analysis *core.Analysis
}

var (
	envOnce sync.Once
	env     *benchEnv
)

func benchSetup(b *testing.B) *benchEnv {
	b.Helper()
	envOnce.Do(func() {
		cfg := synth.Default()
		cfg.Queries = 30
		w, err := synth.Generate(cfg)
		if err != nil {
			panic(err)
		}
		s, err := core.FromWorld(w)
		if err != nil {
			panic(err)
		}
		qs := core.QueriesFromWorld(w)
		gts, err := s.BuildAllGroundTruths(context.Background(), qs, core.GroundTruthConfig{
			Search: groundtruth.Config{Seed: 1},
		})
		if err != nil {
			panic(err)
		}
		a, err := s.Analyze(context.Background(), gts, core.AnalysisConfig{})
		if err != nil {
			panic(err)
		}
		env = &benchEnv{world: w, system: s, queries: qs, gts: gts, analysis: a}
	})
	return env
}

// BenchmarkTable2GroundTruthPrecision measures the Section 2 pipeline that
// produces Table 2: entity linking, the ADD/REMOVE/SWAP local search and
// the query-graph assembly for one query.
func BenchmarkTable2GroundTruthPrecision(b *testing.B) {
	e := benchSetup(b)
	// ResetTimer deletes user metrics, so reporting is deferred to the end.
	defer func() {
		b.ReportMetric(e.analysis.Table2[1].Median, "medianP@1")
		b.ReportMetric(e.analysis.Table2[15].Median, "medianP@15")
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := e.queries[i%len(e.queries)]
		if _, err := e.system.BuildGroundTruth(context.Background(), q, core.GroundTruthConfig{
			Search: groundtruth.Config{Seed: 1},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3QueryGraphStats measures the largest-component statistics
// of Table 3 over all assembled query graphs.
func BenchmarkTable3QueryGraphStats(b *testing.B) {
	e := benchSetup(b)
	defer func() {
		b.ReportMetric(e.analysis.Table3.CategoryFrac.Median, "medianCatFrac")
		b.ReportMetric(e.analysis.Table3.RelSize.Median, "medianRelSize")
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, gt := range e.gts {
			_ = gt.Graph.LargestComponentStats()
		}
	}
}

// BenchmarkTable4CycleLengthConfigs regenerates Table 4: per-query cycle
// mining plus one retrieval evaluation per cycle-length configuration.
func BenchmarkTable4CycleLengthConfigs(b *testing.B) {
	e := benchSetup(b)
	defer func() {
		for _, row := range e.analysis.Table4 {
			if row.Config.Label == "2 & 3 & 4 & 5" {
				b.ReportMetric(row.PrecisionAt[1], "allLengthsP@1")
				b.ReportMetric(row.PrecisionAt[15], "allLengthsP@15")
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.system.Analyze(context.Background(), e.gts, core.AnalysisConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// reportLengthMetric attaches a per-length metric map to the benchmark.
func reportLengthMetric(b *testing.B, m map[int]float64, suffix string) {
	b.Helper()
	for _, l := range []int{2, 3, 4, 5} {
		if v, ok := m[l]; ok {
			b.ReportMetric(v, "len"+string(rune('0'+l))+suffix)
		}
	}
}

// analyzeBody is the shared benchmark body for the figure benchmarks: each
// figure is one aggregation over the same per-query cycle evaluation, so
// the measured work is the Analyze pass.
func analyzeBody(b *testing.B, e *benchEnv) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := e.system.Analyze(context.Background(), e.gts, core.AnalysisConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5ContributionByLength regenerates Figure 5 (average cycle
// contribution per length).
func BenchmarkFig5ContributionByLength(b *testing.B) {
	e := benchSetup(b)
	defer reportLengthMetric(b, e.analysis.Fig5, "contrib%")
	b.ResetTimer()
	analyzeBody(b, e)
}

// BenchmarkFig6CycleCounts regenerates Figure 6 (average number of cycles
// per length).
func BenchmarkFig6CycleCounts(b *testing.B) {
	e := benchSetup(b)
	defer reportLengthMetric(b, e.analysis.Fig6, "cycles")
	b.ResetTimer()
	analyzeBody(b, e)
}

// BenchmarkFig7aCategoryRatio regenerates Figure 7a (average category ratio
// per cycle length).
func BenchmarkFig7aCategoryRatio(b *testing.B) {
	e := benchSetup(b)
	defer func() {
		reportLengthMetric(b, e.analysis.Fig7a, "catRatio")
		b.ReportMetric(e.analysis.Fig7aTrend.Slope, "trendSlope")
	}()
	b.ResetTimer()
	analyzeBody(b, e)
}

// BenchmarkFig7bExtraEdgeDensity regenerates Figure 7b (average density of
// extra edges per cycle length).
func BenchmarkFig7bExtraEdgeDensity(b *testing.B) {
	e := benchSetup(b)
	defer reportLengthMetric(b, e.analysis.Fig7b, "density")
	b.ResetTimer()
	analyzeBody(b, e)
}

// BenchmarkFig9DensityVsContribution regenerates Figure 9 (density of
// extra edges vs. contribution trend).
func BenchmarkFig9DensityVsContribution(b *testing.B) {
	e := benchSetup(b)
	defer func() {
		b.ReportMetric(e.analysis.Fig9Trend.Slope, "trendSlope")
		b.ReportMetric(e.analysis.Fig9Trend.R, "trendR")
	}()
	b.ResetTimer()
	analyzeBody(b, e)
}

// BenchmarkText3StructuralFacts regenerates the Section 3 text numbers
// (TPR of the largest components and the reciprocal-link ratio).
func BenchmarkText3StructuralFacts(b *testing.B) {
	e := benchSetup(b)
	defer func() {
		b.ReportMetric(e.analysis.Text.MeanTPR, "meanTPR")
		b.ReportMetric(e.analysis.Text.ReciprocalLinkRatio, "reciprocal")
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.world.Snapshot.ReciprocalLinkRatio()
		for _, gt := range e.gts {
			_ = gt.Graph.LargestComponentStats().TPR
		}
	}
}

// BenchmarkAblationExpanderVsNaive compares the paper-tuned cycle expander
// against the naive 1-hop link baseline (ablation A1 of DESIGN.md).
func BenchmarkAblationExpanderVsNaive(b *testing.B) {
	e := benchSetup(b)
	rows, err := e.system.CompareExpanders(context.Background(), e.queries, core.AblationConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, row := range rows {
			switch row.Label {
			case "dense cycles (paper)":
				b.ReportMetric(row.MeanO, "cyclesMeanO")
			case "naive 1-hop links":
				b.ReportMetric(row.MeanO, "naiveMeanO")
			case "baseline (no expansion)":
				b.ReportMetric(row.MeanO, "baselineMeanO")
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := e.queries[i%len(e.queries)]
		if _, err := e.system.Expand(context.Background(), q.Keywords, core.DefaultExpanderOptions()); err != nil {
			b.Fatal(err)
		}
		if _, err := e.system.ExpandNaive(context.Background(), q.Keywords, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCategoryRatioFilter isolates the ~30% category-ratio
// filter (ablation A2): the expander with and without structural filters.
func BenchmarkAblationCategoryRatioFilter(b *testing.B) {
	e := benchSetup(b)
	rows, err := e.system.CompareExpanders(context.Background(), e.queries, core.AblationConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, row := range rows {
			switch row.Label {
			case "dense cycles (paper)":
				b.ReportMetric(row.MeanO, "filteredMeanO")
			case "cycles, filters off":
				b.ReportMetric(row.MeanO, "unfilteredMeanO")
			}
		}
	}()
	noFilter := core.DefaultExpanderOptions()
	noFilter.MinCategoryRatio = 0
	noFilter.MaxCategoryRatio = 1
	noFilter.MinDensity = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := e.queries[i%len(e.queries)]
		if _, err := e.system.Expand(context.Background(), q.Keywords, noFilter); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the substrates --------------------------------

// BenchmarkIndexCollection measures analyzing + indexing the whole corpus.
func BenchmarkIndexCollection(b *testing.B) {
	e := benchSetup(b)
	an := text.NewAnalyzer(true, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = search.IndexCollection(e.world.Collection, an)
	}
}

// benchQueryNodes builds one expanded title query per benchmark query,
// mirroring what the serving layer evaluates after expansion.
func benchQueryNodes(b *testing.B, e *benchEnv) []search.Node {
	b.Helper()
	nodes := make([]search.Node, 0, len(e.queries))
	for i, q := range e.queries {
		gt := e.gts[i]
		arts := append(append([]graph.NodeID{}, gt.QueryArticles...), gt.Expansion...)
		node, ok, err := e.system.TitleQuery(q.Keywords, arts)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			nodes = append(nodes, node)
		}
	}
	if len(nodes) == 0 {
		b.Fatal("no benchmark query nodes")
	}
	return nodes
}

// BenchmarkSearch measures the single-query retrieval hot path — the
// accumulator-merge scorer with the bounded top-k heap — cycling through
// every benchmark query's expanded form.
func BenchmarkSearch(b *testing.B) {
	e := benchSetup(b)
	nodes := benchQueryNodes(b, e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.system.Engine.Search(nodes[i%len(nodes)], core.MaxRank); err != nil {
			b.Fatal(err)
		}
	}
}

// benchShardSet writes an n-shard partition of the benchmark world and
// loads its scatter-gather runtime.
func benchShardSet(b *testing.B, e *benchEnv, n int) *shard.Set {
	b.Helper()
	dir := b.TempDir()
	if _, err := shard.WriteShards(dir, e.system.Archive(e.queries), n); err != nil {
		b.Fatal(err)
	}
	set, err := shard.Load(dir + "/manifest.json")
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkPoolSearch measures single-query scatter-gather latency at 4
// shards (per-shard planning and scoring run concurrently), against
// BenchmarkSearch's single-index latency.
func BenchmarkPoolSearch(b *testing.B) {
	e := benchSetup(b)
	nodes := benchQueryNodes(b, e)
	set := benchShardSet(b, e, 4)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := set.Search(ctx, nodes[i%len(nodes)], core.MaxRank); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchCommon measures the query classes whose cost is the
// postings walk, through SearchInto on a Client and on a 2-shard Pool.
// common is an entity title plus the collection's highest-df term (one
// that occurs in every document), the class the scorer reads the common
// list of lazily; mixed is the common term twice around a title, or a
// title beside the two highest-df terms, which must keep walking every
// list and run no slower for the lazy path's existence. rows/op is the
// postings and block-table entries the scorer reads (Plan.RowsRead,
// summed over the shards) — what pruning brings down and a layout change
// leaves alone; listed/op adds up the lengths of the lists a query names.
func BenchmarkSearchCommon(b *testing.B) {
	e := benchSetup(b)
	ix := e.system.Engine.Index()
	var common, second string
	for _, term := range ix.Terms() {
		switch df := ix.DocFreq(term); {
		case df > ix.DocFreq(common):
			common, second = term, common
		case df > ix.DocFreq(second):
			second = term
		}
	}
	if ix.DocFreq(common) != ix.NumDocs() {
		b.Fatalf("highest-df term %q is in %d of %d documents", common, ix.DocFreq(common), ix.NumDocs())
	}
	var titles []string
	for _, gt := range e.gts {
		for _, a := range gt.QueryArticles {
			titles = append(titles, e.world.Snapshot.Name(a))
		}
	}
	client, err := querygraph.Build(e.world)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	dir := b.TempDir()
	if err := client.SaveShards(dir, 2); err != nil {
		b.Fatal(err)
	}
	pool, err := querygraph.OpenPool(filepath.Join(dir, "manifest.json"))
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	set, err := shard.Load(filepath.Join(dir, "manifest.json"))
	if err != nil {
		b.Fatal(err)
	}
	engines := map[string][]*search.Engine{"client": {e.system.Engine}}
	for _, sys := range set.Systems() {
		engines["pool-2"] = append(engines["pool-2"], sys.Engine)
	}
	for _, class := range []struct {
		name  string
		query func(i int, title string) string
	}{
		{"common", func(_ int, title string) string { return title + " " + common }},
		{"mixed", func(i int, title string) string {
			if i%2 == 0 {
				return common + " " + title + " " + common
			}
			return title + " " + common + " " + second
		}},
	} {
		queries := make([]string, len(titles))
		for i, title := range titles {
			queries[i] = class.query(i, title)
		}
		for _, tc := range []struct {
			name string
			be   querygraph.Backend
		}{{"client", client}, {"pool-2", pool}} {
			b.Run(class.name+"/"+tc.name, func(b *testing.B) {
				ctx, dst := context.Background(), make([]querygraph.Result, 0, core.MaxRank)
				for i := 0; b.Loop(); i++ {
					rs, err := tc.be.SearchInto(ctx, queries[i%len(queries)], core.MaxRank, dst)
					if err != nil || len(rs) != core.MaxRank {
						b.Fatalf("%d results, err %v", len(rs), err)
					}
				}
				rows, listed := scorerRows(b, engines[tc.name], queries)
				b.ReportMetric(rows, "rows/op")
				b.ReportMetric(listed, "listed/op")
			})
		}
	}
}

// scorerRows plans and scores each query on the engines of one runtime —
// its shards, under their merged statistics — and returns the mean rows
// the scorer read per query and the mean length of the lists it named.
func scorerRows(b *testing.B, engines []*search.Engine, queries []string) (rows, listed float64) {
	b.Helper()
	for _, q := range queries {
		leaves, err := engines[0].LeavesForQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		plans := make([]*search.Plan, len(engines))
		stats := &search.Stats{LeafCF: make([]int64, len(leaves))}
		for i, eng := range engines {
			plans[i] = eng.PlanLeavesInto(nil, leaves)
			stats.TotalTokens += eng.Index().TotalTokens()
			for j := range leaves {
				stats.LeafCF[j] += plans[i].LocalCF(j)
			}
		}
		for i, eng := range engines {
			if _, err := eng.SearchPlanInto(plans[i], core.MaxRank, stats, nil); err != nil {
				b.Fatal(err)
			}
			rows += float64(plans[i].RowsRead())
			for _, lf := range leaves {
				if len(lf.Terms) == 1 {
					listed += float64(eng.Index().DocFreq(lf.Terms[0]))
				}
			}
		}
	}
	return rows / float64(len(queries)), listed / float64(len(queries))
}

// BenchmarkRemoteSearch measures one search through the fan-out
// coordinator over an in-process 2-shard fleet on loopback. What separates
// the two cases is one property of the input, whether the coordinator has
// scattered this query body before: warm replays a fixed set of entity
// titles (as bench/'s serve-remote does — a 128-op lap, every body a repeat
// after the first lap), cold asks a string never asked before, which the
// shards' leaf cache has not seen either. requests/op counts what the shards
// handle per search (4 either way: a plan and a top-k request per shard;
// warm they travel together); allocs/op includes the in-process shards'
// share. The file compiles against older checkouts, so the same benchmark
// measures both sides of a change to the coordinator.
func BenchmarkRemoteSearch(b *testing.B) {
	e := benchSetup(b)
	client, err := querygraph.Build(e.world)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	dir := b.TempDir()
	if err := client.SaveShards(dir, 2); err != nil {
		b.Fatal(err)
	}
	var requests atomic.Int64
	path := serveFleet(b, dir, 2, func(rpc.Op, uint64, time.Time, time.Duration, string) { requests.Add(1) })
	remote, err := querygraph.OpenTopology(path)
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Close()

	var titles []string
	for _, gt := range e.gts {
		for _, a := range gt.QueryArticles {
			titles = append(titles, e.world.Snapshot.Name(a))
		}
	}
	ctx, dst := context.Background(), make([]querygraph.Result, 0, core.MaxRank)
	for _, q := range titles {
		if _, err := remote.SearchInto(ctx, q, core.MaxRank, dst); err != nil {
			b.Fatal(err)
		}
	}
	fresh := 0 // across b.Run's calls with growing b.N, so no cold string repeats
	for _, tc := range []struct {
		name  string
		query func(i int) string
	}{
		{"cold", func(i int) string { fresh++; return titles[i%len(titles)] + " q" + strconv.Itoa(fresh) }},
		{"warm", func(i int) string { return titles[i%len(titles)] }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			before, i := requests.Load(), 0
			for ; b.Loop(); i++ {
				if _, err := remote.SearchInto(ctx, tc.query(i), core.MaxRank, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(requests.Load()-before)/float64(i), "requests/op")
		})
	}
}

// serveFleet serves the shards client.SaveShards wrote into dir from
// in-process qshard servers on loopback, every request passing through
// hook, and writes the topology naming them; its path is returned. The
// servers stop when the benchmark ends.
func serveFleet(b *testing.B, dir string, shards int, hook func(rpc.Op, uint64, time.Time, time.Duration, string)) string {
	b.Helper()
	topo := querygraph.Topology{Version: 1}
	for i := 0; i < shards; i++ {
		srv, err := rpc.LoadServerFile(filepath.Join(dir, fmt.Sprintf("shard-%03d.qgs", i)))
		if err != nil {
			b.Fatal(err)
		}
		if hook != nil {
			srv.SetRequestHook(hook)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(context.Background(), ln)
		}()
		b.Cleanup(func() {
			_ = srv.Close()
			<-done
		})
		topo.Shards = append(topo.Shards, querygraph.TopologyShard{ID: i, Addrs: []string{ln.Addr().String()}})
	}
	blob, err := json.Marshal(topo)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, "topology.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkBatch is the batch layer's decision experiment: 64 query texts
// answered as one querygraph.Batch over Search (batch) against the same 64
// as SearchInto calls shared out among GOMAXPROCS callers (singles), on
// every runtime, over the small world the Backend conformance suite
// serves. The 64 repeat that world's 8 benchmark queries, as an evaluation
// run over a benchmark does; the -unique cases give every item a string
// never asked before, so no parse is answered by the plan cache and no
// scatter by remembered statistics.
func BenchmarkBatch(b *testing.B) {
	const items, k = 64, 15
	cfg := querygraph.DefaultWorldConfig()
	cfg.Topics, cfg.ArticlesPerTopic, cfg.DocsPerTopic, cfg.Queries, cfg.NoiseVocab = 6, 10, 14, 8, 60
	w, err := querygraph.GenerateWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	client, err := querygraph.Build(w)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	backends := map[string]querygraph.Backend{"client": client}
	for _, shards := range []int{1, 4} {
		dir := b.TempDir()
		if err := client.SaveShards(dir, shards); err != nil {
			b.Fatal(err)
		}
		pool, err := querygraph.OpenPool(filepath.Join(dir, "manifest.json"))
		if err != nil {
			b.Fatal(err)
		}
		defer pool.Close()
		backends[fmt.Sprintf("pool-%d", shards)] = pool
	}
	dir := b.TempDir()
	if err := client.SaveShards(dir, 2); err != nil {
		b.Fatal(err)
	}
	remote, err := querygraph.OpenTopology(serveFleet(b, dir, 2, nil))
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Close()
	backends["remote-2"] = remote

	var keywords []string
	for _, q := range client.Queries() {
		keywords = append(keywords, q.Keywords)
	}
	fresh := 0 // across every case and call, so no -unique string repeats
	lap := func(unique bool) []string {
		qs := make([]string, items)
		for i := range qs {
			qs[i] = keywords[i%len(keywords)]
			if unique {
				fresh++
				qs[i] += " u" + strconv.Itoa(fresh)
			}
		}
		return qs
	}
	ctx := context.Background()
	batch := func(be querygraph.Backend, qs []string) error {
		_, err := querygraph.Batch(ctx, qs, querygraph.BatchOptions{}, "query",
			func(query string) ([]querygraph.Result, error) { return be.Search(ctx, query, k) })
		return err
	}
	singles := func(be querygraph.Backend, qs []string) error {
		var next atomic.Int64
		errs := make(chan error, runtime.GOMAXPROCS(0))
		for range cap(errs) {
			go func() {
				dst := make([]querygraph.Result, 0, k)
				for i := next.Add(1) - 1; i < int64(len(qs)); i = next.Add(1) - 1 {
					if _, err := be.SearchInto(ctx, qs[i], k, dst); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		var first error
		for range cap(errs) {
			if err := <-errs; first == nil {
				first = err
			}
		}
		return first
	}
	for _, name := range []string{"client", "pool-1", "pool-4", "remote-2"} {
		be := backends[name]
		for _, mode := range []struct {
			name string
			run  func(querygraph.Backend, []string) error
		}{{"batch", batch}, {"singles", singles}} {
			for _, unique := range []bool{false, true} {
				sub := name + "/" + mode.name
				if unique {
					sub += "-unique"
				}
				b.Run(sub, func(b *testing.B) {
					for b.Loop() {
						if err := mode.run(be, lap(unique)); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.N*items)/b.Elapsed().Seconds(), "queries/s")
				})
			}
		}
	}
}

// TestIndexHeapPerPosting pins what a posting costs a loaded index on the
// default world: the heap only the decoded index keeps alive, less the heap
// of an index with the same vocabulary and documents but no postings (the
// dictionary and per-term headers, which this small world spreads over only
// 17 postings a term), divided by its postings. Flat 8-byte postings and
// one positions slab per term measure 14.6 bytes — 12.5 of records and
// offsets, the rest the tail of the last arena chunk on so small a world;
// 32-byte postings each holding its own positions slice measured 39.6.
func TestIndexHeapPerPosting(t *testing.T) {
	w, err := synth.Generate(synth.Default())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.FromWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf, nil); err != nil {
		t.Fatal(err)
	}
	w, sys = nil, nil
	arch, err := store.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	ix := arch.Index
	postings, terms := ix.NumPostings(), ix.Terms()
	before := heap()
	bare, err := index.Load(slices.Clone(ix.DocLens()), terms, make([][]index.Posting, len(terms)), make([][]uint32, len(terms)))
	if err != nil {
		t.Fatal(err)
	}
	terms = nil
	vocabulary := heap() - before
	ix, arch.Index = nil, nil
	loaded := before + vocabulary - heap()
	runtime.KeepAlive(arch)
	runtime.KeepAlive(bare)
	perPosting := float64(loaded-vocabulary) / float64(postings)
	t.Logf("%d postings: the index holds %d heap bytes (%.1f per posting), %d of them vocabulary: %.1f per posting for the postings themselves",
		postings, loaded, float64(loaded)/float64(postings), vocabulary, perPosting)
	if perPosting > 16 || perPosting < 8 {
		t.Errorf("a posting of the loaded index costs %.1f heap bytes, want within (8, 16]", perPosting)
	}
}

// BenchmarkSearchTitleQuery measures one expanded retrieval (the paper's
// real-time requirement for query expansion systems).
func BenchmarkSearchTitleQuery(b *testing.B) {
	e := benchSetup(b)
	q := e.queries[0]
	gt := e.gts[0]
	arts := append(append([]graph.NodeID{}, gt.QueryArticles...), gt.Expansion...)
	node, ok, err := e.system.TitleQuery(q.Keywords, arts)
	if err != nil || !ok {
		b.Fatal("query not buildable", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.system.Engine.Search(node, 15); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEntityLinking measures linking a document's relevant text.
func BenchmarkEntityLinking(b *testing.B) {
	e := benchSetup(b)
	doc := e.world.Collection.Docs()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.system.Linker.LinkMain(doc.Text)
	}
}

// BenchmarkCycleEnumeration measures mining cycles of length <= 5 on the
// largest candidate graph a cold expansion of the benchmark queries builds,
// the operation the paper reports as the key performance challenge (§4):
// the ball Expand takes around the linked query articles at the default
// Radius and MaxNeighborhood, a cycles.Miner NewMiner builds over its nodes
// in ascending order, and one Walk
// from its query articles with the default expander's filter as Keep. The
// ball, not an assembled query graph (a few dozen nodes and cycles), so
// that the walk outweighs the miner's per-Walk set-up. full measures and
// filters every length, as a cold expansion's frequency ranking does;
// measure3 measures the cycles of up to 3 nodes and counts the 4- and
// 5-cycles, per seed in closed form, as a cold expansion's first walk
// does; measure4 counts only the 5-cycles so; measure5of6 walks to
// MaxCycleLen 6 and counts the 6-cycles a closers word at a time at the
// last level, as the first walk does there. graphNodes is the ball's size,
// cycles/op every cycle the walk closed, accepted/op those the filter
// kept.
func BenchmarkCycleEnumeration(b *testing.B) {
	e := benchSetup(b)
	g, opts := e.system.Snapshot.Graph(), core.DefaultExpanderOptions()
	var nodes, arts []graph.NodeID
	for _, q := range e.queries {
		linked := e.system.LinkKeywords(q.Keywords)
		ball := cycles.NewBallMiner(g, linked, opts.Radius, opts.MaxNeighborhood, graph.ExcludeRedirects)
		if ball.Len() > len(nodes) {
			nodes, arts = slices.Sorted(slices.Values(ball.Nodes())), linked
		}
		ball.Release()
	}
	var seeds []graph.NodeID
	for _, qa := range arts {
		if i, ok := slices.BinarySearch(nodes, qa); ok {
			seeds = append(seeds, graph.NodeID(i))
		}
	}
	for _, bc := range []struct {
		name            string
		measure, maxLen int
	}{{"full", 0, 5}, {"measure3", 3, 5}, {"measure4", 4, 5}, {"measure5of6", 5, 6}} {
		b.Run(bc.name, func(b *testing.B) {
			found, accepted := 0, 0
			count := func(cycles.Metrics) error { accepted++; return nil }
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := cycles.NewMiner(g, nodes, graph.ExcludeRedirects)
				m.Keep, m.Measure = opts.Accepts, bc.measure
				if err := m.Walk(seeds, bc.maxLen, count); err != nil {
					b.Fatal(err)
				}
				found += m.Found
				m.Release()
			}
			b.ReportMetric(float64(len(nodes)), "graphNodes")
			b.ReportMetric(float64(found)/float64(b.N), "cycles/op")
			b.ReportMetric(float64(accepted)/float64(b.N), "accepted/op")
		})
	}
}

// BenchmarkMinerViewAtBound puts the cost of the largest view an expansion
// may ask for on record: a cycles.Miner over a sparse random graph of
// cycles.MaxViewNodes nodes (a quarter categories, two arcs of random kind
// per node), built and walked to length 5 with no seed filter, the widest
// walk there is. viewB/op is the view's bit rows, 2·n·⌈n/64⌉ words; the
// pooled Miner makes later builds allocation-free.
func BenchmarkMinerViewAtBound(b *testing.B) {
	const n = cycles.MaxViewNodes
	rng := rand.New(rand.NewSource(1))
	g := graph.New(n)
	for i := range n {
		kind := graph.Article
		if i%4 == 0 {
			kind = graph.Category
		}
		g.AddNode(kind)
	}
	for range 2 * n {
		_ = g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), graph.EdgeKind(rng.Intn(4))) // self-loops and repeats rejected, fine
	}
	nodes := make([]graph.NodeID, n)
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	found := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := cycles.NewMiner(g, nodes, graph.ExcludeRedirects)
		if err := m.Walk(nil, 5, func(cycles.Metrics) error { return nil }); err != nil {
			b.Fatal(err)
		}
		found += m.Found
		m.Release()
	}
	b.ReportMetric(float64(2*n*((n+63)/64)*8), "viewB/op")
	b.ReportMetric(float64(found)/float64(b.N), "cycles/op")
}

// BenchmarkExpandOnline measures the end-to-end online expansion latency —
// the "respond in real time" requirement of the paper's conclusions. The
// system is built with the expansion cache disabled so every iteration
// pays for the full pipeline.
func BenchmarkExpandOnline(b *testing.B) {
	e := benchSetup(b)
	s, err := core.FromWorld(e.world, core.WithExpandCache(0))
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultExpanderOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := e.queries[i%len(e.queries)]
		if _, err := s.Expand(context.Background(), q.Keywords, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpandCold is BenchmarkExpandOnline one layer up: the same cold
// pipeline behind the public Client with its expansion cache off — what
// the expand-cold-client workload of bench/ drives, less the retrieval —
// with the allocations and the cycles mined and accepted per expansion,
// the counts that say whether the neighborhood walk and the miner still do
// only the work the answer needs (and, unchanged from one commit to the
// next, that they still give the same answer).
func BenchmarkExpandCold(b *testing.B) {
	e := benchSetup(b)
	c, err := querygraph.Build(e.world, querygraph.WithExpandCache(0))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx, considered, accepted := context.Background(), 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp, err := c.Expand(ctx, e.queries[i%len(e.queries)].Keywords)
		if err != nil {
			b.Fatal(err)
		}
		considered, accepted = considered+exp.CyclesConsidered, accepted+exp.CyclesAccepted
	}
	b.ReportMetric(float64(considered)/float64(b.N), "cycles/op")
	b.ReportMetric(float64(accepted)/float64(b.N), "accepted/op")
}

// BenchmarkExpandColdFallback is BenchmarkExpandCold with room for 40
// features: the cycles shorter than the longest length never hold that
// many, so every expansion's first walk, which measures up to length 3
// and only counts the 4- and 5-cycles, is followed by one that measures
// the 4-cycles and one that measures the 5-cycles — the cost of the
// walk-again path. features/op says the longest cycles were ranked.
func BenchmarkExpandColdFallback(b *testing.B) {
	e := benchSetup(b)
	c, err := querygraph.Build(e.world, querygraph.WithExpandCache(0))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx, features := context.Background(), 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp, err := c.Expand(ctx, e.queries[i%len(e.queries)].Keywords, querygraph.WithMaxFeatures(40))
		if err != nil {
			b.Fatal(err)
		}
		features += len(exp.Features)
	}
	b.ReportMetric(float64(features)/float64(b.N), "features/op")
}

// BenchmarkSearchExpansion times the expanded retrieval behind the public
// Client, query writing included: SearchExpansion over the cold expansions
// of the benchmark queries, which writes each one's title query (one
// phrase per query article and feature), flattens, plans and scores it.
// BenchmarkSearchTitleQuery builds its query once, outside the loop.
func BenchmarkSearchExpansion(b *testing.B) {
	e := benchSetup(b)
	c, err := querygraph.Build(e.world, querygraph.WithExpandCache(0))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	exps := make([]*querygraph.Expansion, len(e.queries))
	for i, q := range e.queries {
		if exps[i], err = c.Expand(ctx, q.Keywords); err != nil {
			b.Fatal(err)
		}
	}
	results := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, _, err := c.SearchExpansion(ctx, exps[i%len(exps)], querygraph.MaxRank)
		if err != nil {
			b.Fatal(err)
		}
		results += len(rs)
	}
	b.ReportMetric(float64(results)/float64(b.N), "results/op")
}

// BenchmarkExpandStampede is the experiment behind DESIGN.md's "The
// expansion cache: single-flight measured, then deleted": N goroutines
// released at once on one key of an emptied cache — what a generation swap
// or a first burst does to a hot keyword — timed from the release to the
// last answer. runs/stampede is how many of the N ran the pipeline (the
// cache's misses): with nothing deduplicating them, as many as got onto a
// core before the first one stored its entry.
func BenchmarkExpandStampede(b *testing.B) {
	e := benchSetup(b)
	ctx, opts := context.Background(), core.DefaultExpanderOptions()
	for _, n := range []int{2, 8, 64} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			s, err := core.FromWorld(e.world)
			if err != nil {
				b.Fatal(err)
			}
			walls := make([]time.Duration, b.N)
			for i := range walls {
				s.PurgeExpandCache()
				kw := e.queries[i%len(e.queries)].Keywords
				var wg sync.WaitGroup
				release := make(chan struct{})
				for g := 0; g < n; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-release
						if _, err := s.Expand(ctx, kw, opts); err != nil {
							b.Error(err)
						}
					}()
				}
				start := time.Now()
				close(release)
				wg.Wait()
				walls[i] = time.Since(start)
			}
			var sum time.Duration
			for _, w := range walls {
				sum += w
			}
			slices.Sort(walls)
			b.ReportMetric(float64(sum.Nanoseconds())/float64(b.N), "ns/stampede")
			b.ReportMetric(float64(walls[b.N*99/100].Nanoseconds()), "p99-ns/stampede")
			b.ReportMetric(float64(s.ExpandCacheStats().Misses)/float64(b.N), "runs/stampede")
		})
	}
}

// BenchmarkWorldGeneration measures deterministic world generation.
func BenchmarkWorldGeneration(b *testing.B) {
	cfg := synth.Default()
	cfg.Topics = 10
	cfg.Queries = 10
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- snapshot startup path (internal/store) ----------------------------

// BenchmarkRebuildSystem measures cold startup without a snapshot on the
// default benchmark world: world generation plus system assembly (corpus
// indexing, linker construction). This is the cost every qbench/qgraph run
// used to pay — the baseline BenchmarkLoadSystem is compared against.
func BenchmarkRebuildSystem(b *testing.B) {
	e := benchSetup(b)
	cfg := e.world.Config
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := synth.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.FromWorld(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaveSystem measures encoding the full serving state plus query
// benchmark into the binary snapshot format.
func BenchmarkSaveSystem(b *testing.B) {
	e := benchSetup(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := e.system.Save(&buf, e.queries); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len())/(1<<20), "snapshotMiB")
}

// BenchmarkLoadSystem measures snapshot-based startup on the same default
// world as BenchmarkRebuildSystem: decode graph, titles, corpus, index and
// queries, then assemble the engine and linker. The roadmap's serving
// requirement is that this is at least 5x faster than rebuilding
// (world generation + indexing); in practice it is far more.
func BenchmarkLoadSystem(b *testing.B) {
	e := benchSetup(b)
	var buf bytes.Buffer
	if err := e.system.Save(&buf, e.queries); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, qs, err := core.LoadSystem(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if s == nil || len(qs) != len(e.queries) {
			b.Fatal("short load")
		}
	}
}
