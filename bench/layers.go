package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	querygraph "github.com/querygraph/querygraph"
	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/cycles"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/index"
	"github.com/querygraph/querygraph/internal/live"
	"github.com/querygraph/querygraph/internal/rpc"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/shard"
	"github.com/querygraph/querygraph/internal/store"
	"github.com/querygraph/querygraph/internal/trace"
)

// The traced pass: one goroutine drives each layer's public functions
// directly, a fixed number of times chosen by the scale and on inputs
// chosen by the seed, and records a span around every call. Its counts
// therefore repeat exactly; its times are per-layer costs with nothing
// else running, not shares of a loaded request.

// batchOps is how many calls one span covers where a single call takes
// well under a microsecond and a timer around each would dominate it.
const batchOps = 1024

// hitKeywords is the working set of the expansion-cache hit probe.
const hitKeywords = 8

type layerPass struct {
	e   *env
	rec *recorder
	out map[string]Metric
	// failed counts answers that differ between two layers which must
	// agree (union vs scatter, Client vs Pool vs Remote vs HTTP, the
	// replayed expansion phases vs System.Expand).
	failed int

	// State handed from one stage to the next.
	arch    *store.Archive
	sys     *core.System // expansion cache off
	queries []core.Query
	entity  []string // the probe's entity-class strings
	docs    [][]querygraph.Document
	delta   *live.Delta // full: CompactAt documents above the base
}

func (lp *layerPass) put(name string, value float64, unit string, samples int) {
	lp.out[name] = Metric{Value: value, Unit: unit, Samples: samples}
}

// unitNS maps a time unit to its length in nanoseconds.
var unitNS = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// putMean reports the mean duration of the spans named spanName, each
// covering per operations, in unit.
func (lp *layerPass) putMean(name, spanName string, per int, unit string) {
	ns, n := lp.rec.meanNS(spanName, per)
	lp.put(name, ns/unitNS[unit], unit, n)
}

// runTracedPass produces every per-layer metric.
func runTracedPass(e *env) (metrics map[string]Metric, attempted, failed int, err error) {
	lp := &layerPass{e: e, rec: newRecorder(), out: make(map[string]Metric)}
	lp.entity = e.pools.class[classEntity][:min(e.sc.Probe, len(e.pools.class[classEntity]))]
	root := lp.rec.begin("traced-pass", 0)
	for _, stage := range []struct {
		name string
		run  func(ctx context.Context, parent int) error
	}{
		{"store", lp.stageStore},
		{"search", lp.stageSearch},
		{"expand", lp.stageExpand},
		{"live", lp.stageLive},
		{"shard", lp.stageShard},
		{"rpc", lp.stageRPC},
		{"stack", lp.stageStack},
	} {
		id := lp.rec.begin("stage."+stage.name, root)
		err := stage.run(context.Background(), id)
		fmt.Fprintf(os.Stderr, "bench: traced pass: stage %s took %v\n", stage.name, lp.rec.end(id).Round(time.Millisecond))
		if err != nil {
			return nil, 0, 0, fmt.Errorf("traced pass, stage %s: %w", stage.name, err)
		}
		runtime.GC() // a finished stage's structures must not tax the next one's timings
	}
	lp.rec.end(root)
	if err := lp.rec.write(e.spansPath); err != nil {
		return nil, 0, 0, err
	}
	return lp.out, len(lp.rec.spans), lp.failed, nil
}

// --- store ---------------------------------------------------------------

func (lp *layerPass) stageStore(_ context.Context, parent int) error {
	raw, err := os.ReadFile(lp.e.fx.snapshot())
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		lp.rec.time("store.read", parent, func() { lp.arch, err = store.Read(bytes.NewReader(raw)) })
		if err != nil {
			return err
		}
	}
	lp.rec.time("store.write", parent, func() { err = store.Write(io.Discard, lp.arch) })
	if err != nil {
		return err
	}
	lp.putMean("store.read_ms", "store.read", 1, "ms")
	lp.putMean("store.write_ms", "store.write", 1, "ms")
	lp.put("store.bytes_per_doc", float64(len(raw))/float64(lp.arch.Collection.Len()), "bytes", lp.arch.Collection.Len())
	lp.sys, lp.queries, err = core.SystemFromArchive(lp.arch, core.WithExpandCache(0))
	return err
}

// --- text, search, index -------------------------------------------------

// mallocs returns the process's cumulative allocation count and bytes.
func mallocs() (uint64, uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func (lp *layerPass) stageSearch(_ context.Context, parent int) error {
	eng := lp.sys.Engine
	an, ix := eng.Analyzer(), eng.Index()
	pools := lp.e.pools

	docs := lp.sys.Collection.Docs()
	for _, d := range docs[:min(4*lp.e.sc.Probe, len(docs))] {
		lp.rec.time("text.analyze", parent, func() { an.Analyze(d.Text) })
	}
	lp.putMean("text.analyze_us_per_doc", "text.analyze", 1, "us")

	classes := []struct {
		name    string
		queries []string
	}{
		{"entity", lp.entity},
		{"expanded", pools.class[classExpanded]},
		{"common", pools.class[classCommon][:min(lp.e.sc.Probe/8, len(pools.class[classCommon]))]},
	}
	var (
		plan             = &search.Plan{}
		dst              []search.Result
		phrases          index.PhraseScratch
		postings, nresul int
	)
	for _, c := range classes {
		for _, q := range c.queries {
			var (
				leaves []search.Leaf
				err    error
			)
			lp.rec.time("search.parse", parent, func() {
				var node search.Node
				if node, err = search.ParseQuery(q, an); err == nil {
					leaves, err = search.Flatten(node)
				}
			})
			if err != nil {
				return err
			}
			if _, err := eng.LeavesForQuery(q); err != nil { // fills the plan cache
				return err
			}
			lp.rec.time("search.leaves_cached", parent, func() { leaves, err = eng.LeavesForQuery(q) })
			if err != nil {
				return err
			}
			lp.rec.time("search.plan", parent, func() { plan = eng.PlanLeavesInto(plan, leaves) })
			lp.rec.time("search.score_"+c.name, parent, func() { dst, err = eng.SearchPlanInto(plan, rankDepth, nil, dst) })
			if err != nil {
				return err
			}
			for _, lf := range leaves {
				if len(lf.Terms) > 1 {
					lp.rec.time("index.phrase", parent, func() { ix.PhrasePostingsScratch(lf.Terms, &phrases) })
				} else if c.name == "common" {
					p, _ := ix.Lookup(lf.Terms[0])
					postings += len(p)
				}
			}
			if c.name == "common" {
				nresul += len(dst)
			}
		}
	}
	lp.putMean("search.parse_us", "search.parse", 1, "us")
	lp.putMean("search.leaves_cached_us", "search.leaves_cached", 1, "us")
	lp.putMean("search.plan_us", "search.plan", 1, "us")
	for _, c := range classes {
		lp.putMean("search.score_"+c.name+"_us", "search.score_"+c.name, 1, "us")
	}
	lp.putMean("index.phrase_us", "index.phrase", 1, "us")
	// Rows examined per result returned, on the class where every document
	// is a candidate.
	lp.put("search.postings_per_result_common", float64(postings)/float64(max(nresul, 1)), "count", nresul)

	terms := ix.Terms()
	for i := 0; i < 8; i++ {
		lp.rec.time("index.lookup", parent, func() {
			for j := 0; j < batchOps; j++ {
				ix.Lookup(terms[(i*batchOps+j)%len(terms)])
			}
		})
	}
	lp.putMean("index.lookup_ns", "index.lookup", batchOps, "ns")

	// Two real rankings merged the way a 2-shard scatter merges them.
	a, err := eng.SearchText(lp.entity[0], rankDepth, nil)
	if err != nil {
		return err
	}
	b, err := eng.SearchText(lp.entity[1%len(lp.entity)], rankDepth, nil)
	if err != nil {
		return err
	}
	locals, cursors := [][]search.Result{a, b}, make([]int, 2)
	for i := 0; i < 8; i++ {
		lp.rec.time("search.merge", parent, func() {
			for j := 0; j < batchOps; j++ {
				dst = search.MergeRankedScratch(dst, locals, rankDepth, cursors)
			}
		})
	}
	lp.putMean("search.merge_us", "search.merge", batchOps, "us")

	m0, _ := mallocs()
	for _, q := range lp.entity {
		if dst, err = eng.SearchText(q, rankDepth, dst); err != nil {
			return err
		}
	}
	m1, _ := mallocs()
	lp.put("go.allocs_per_search", float64(m1-m0)/float64(len(lp.entity)), "count", len(lp.entity))

	// The price of the benchmark's own spans: the same calls, timed once
	// by one outer timer and once with a span around each.
	run := func(traced bool) time.Duration {
		start := time.Now()
		for _, q := range lp.entity {
			if traced {
				lp.rec.time("bench.traced_search", parent, func() { dst, _ = eng.SearchText(q, rankDepth, dst) })
			} else {
				dst, _ = eng.SearchText(q, rankDepth, dst)
			}
		}
		return time.Since(start)
	}
	untraced, traced := run(false), run(true)
	for i := 0; i < 4; i++ { // the fastest of five alternating passes each
		untraced, traced = min(untraced, run(false)), min(traced, run(true))
	}
	lp.put("bench.trace_overhead_pct", 100*float64(traced-untraced)/float64(untraced), "pct", len(lp.entity))
	return nil
}

// --- linking, graph, cycles, core ----------------------------------------

func (lp *layerPass) stageExpand(ctx context.Context, parent int) error {
	sys, opts := lp.sys, core.DefaultExpanderOptions()
	g := sys.Snapshot.Graph()
	first := rand.New(rand.NewSource(lp.e.o.seed)).Intn(len(lp.queries))
	var (
		cold, phases                          time.Duration
		visited, kept, considered, accepted   int
		allocs, allocBytes, pauseNS, coldRuns uint64
	)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	pauseNS = before.PauseTotalNs
	for i := 0; i < lp.e.sc.ColdProbe; i++ {
		kw := lp.queries[(first+i)%len(lp.queries)].Keywords
		var (
			exp *core.Expansion
			err error
		)
		m0, b0 := mallocs()
		cold += lp.rec.time("core.expand_cold", parent, func() { exp, err = sys.Expand(ctx, kw, opts) })
		m1, b1 := mallocs()
		if err != nil {
			return err
		}
		allocs, allocBytes, coldRuns = allocs+m1-m0, allocBytes+b1-b0, coldRuns+1

		// The same phases again, one public call each. What System.Expand
		// spends beyond them is its self time.
		replay := lp.rec.begin("expand.phases", parent)
		var arts []graph.NodeID
		phases += lp.rec.time("linking.link", replay, func() { arts = sys.LinkKeywords(kw) })
		if len(arts) == 0 {
			lp.rec.end(replay)
			continue
		}
		var dist map[graph.NodeID]int
		phases += lp.rec.time("graph.bfs", replay, func() { dist = g.BFSDistances(arts, graph.ExcludeRedirects) })
		nodes := ball(dist, opts.Radius, opts.MaxNeighborhood)
		var sub *graph.Subgraph
		phases += lp.rec.time("graph.induce", replay, func() { sub = g.Induce(nodes) })
		var seeds []graph.NodeID
		for _, a := range arts {
			if sid, ok := sub.ToSub[a]; ok {
				seeds = append(seeds, sid)
			}
		}
		var cs []cycles.Cycle
		phases += lp.rec.time("cycles.enumerate", replay, func() {
			cs, err = cycles.Enumerate(sub.Graph, seeds, opts.MaxCycleLen, graph.ExcludeRedirects)
		})
		if err != nil {
			return err
		}
		phases += lp.rec.time("cycles.measure", replay, func() {
			for _, c := range cs {
				if _, err = cycles.Measure(sub.Graph, c, graph.ExcludeRedirects); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		lp.rec.end(replay)
		lp.rec.time("core.title_query", parent, func() { exp.Query(sys) })

		visited, kept = visited+len(dist), kept+len(nodes)
		considered, accepted = considered+len(cs), accepted+exp.CyclesAccepted
		if len(cs) != exp.CyclesConsidered {
			lp.failed++
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	pauseNS = after.PauseTotalNs - pauseNS

	n := int(coldRuns)
	lp.putMean("linking.link_us", "linking.link", 1, "us")
	lp.putMean("graph.bfs_us", "graph.bfs", 1, "us")
	lp.putMean("graph.induce_us", "graph.induce", 1, "us")
	lp.putMean("cycles.enumerate_us", "cycles.enumerate", 1, "us")
	lp.putMean("cycles.measure_us", "cycles.measure", 1, "us")
	lp.putMean("core.title_query_us", "core.title_query", 1, "us")
	lp.put("core.expand_cold_us", float64(cold)/float64(n)/1e3, "us", n)
	lp.put("core.expand_self_us", float64(cold-phases)/float64(n)/1e3, "us", n)
	// The replay's own self time is the glue between bfs and induce: the
	// filter, sort and cap of the visited set that System.Expand also runs.
	lp.put("core.expand_glue_us", lp.rec.meanSelfNS("expand.phases")/1e3, "us", n)
	lp.put("graph.bfs_visited", float64(visited), "count", n)
	lp.put("graph.bfs_useful_ratio", float64(kept)/float64(max(visited, 1)), "ratio", n)
	lp.put("cycles.considered", float64(considered), "count", n)
	lp.put("cycles.accept_ratio", float64(accepted)/float64(max(considered, 1)), "ratio", n)
	lp.put("go.allocs_per_cold_expand", float64(allocs)/float64(n), "count", n)
	lp.put("go.bytes_per_cold_expand", float64(allocBytes)/float64(n), "bytes", n)
	lp.put("go.gc_pause_ms", float64(pauseNS)/1e6, "ms", n)

	// Cache hits: a second system over the same archive with the cache on.
	hot, _, err := core.SystemFromArchive(lp.arch)
	if err != nil {
		return err
	}
	kws := make([]string, 0, hitKeywords)
	for i := 0; i < hitKeywords; i++ {
		kws = append(kws, lp.queries[(first+i)%len(lp.queries)].Keywords)
		if _, err := hot.Expand(ctx, kws[i], opts); err != nil {
			return err
		}
	}
	for i := 0; i < 8; i++ {
		lp.rec.time("core.expand_hit", parent, func() {
			for j := 0; j < batchOps; j++ {
				_, err = hot.Expand(ctx, kws[j%len(kws)], opts)
			}
		})
		if err != nil {
			return err
		}
	}
	lp.putMean("core.expand_hit_ns", "core.expand_hit", batchOps, "ns")
	lp.put("core.cache_hit_rate", hot.ExpandCacheStats().HitRate(), "ratio", 8*batchOps+hitKeywords)
	return nil
}

// ball is the neighbourhood System.Expand keeps of a BFS: the nodes within
// radius, nearest first, capped.
func ball(dist map[graph.NodeID]int, radius, maxNodes int) []graph.NodeID {
	nodes := make([]graph.NodeID, 0, len(dist))
	for id, d := range dist {
		if d <= radius {
			nodes = append(nodes, id)
		}
	}
	sort.Slice(nodes, func(i, j int) bool {
		if dist[nodes[i]] != dist[nodes[j]] {
			return dist[nodes[i]] < dist[nodes[j]]
		}
		return nodes[i] < nodes[j]
	})
	return nodes[:min(len(nodes), maxNodes)]
}

// --- live ----------------------------------------------------------------

func (lp *layerPass) stageLive(_ context.Context, parent int) error {
	sc, eng := lp.e.sc, lp.sys.Engine
	an := eng.Analyzer()
	cfg := live.Config{Mu: eng.Mu(), RemoveStopwords: an.RemovesStopwords(), Stem: an.Stems()}
	base := lp.sys.Collection.Len()
	rng := rand.New(rand.NewSource(lp.e.o.seed))
	batches := sc.CompactAt / sc.IngestBatch

	// Base plus a delta at 0%, 50% and 100% of the compaction threshold.
	sources := func(name string, delta *live.Delta) error {
		srcs := []search.Source{{Engine: eng}, delta.Source()}
		total := eng.Index().TotalTokens() + delta.TotalTokens()
		var dst []search.Result
		for _, q := range lp.entity {
			leaves, err := eng.LeavesForQuery(q)
			if err != nil {
				return err
			}
			lp.rec.time(name, parent, func() { dst, err = search.SearchSourcesLeaves(srcs, total, leaves, rankDepth, dst) })
			if err != nil {
				return err
			}
		}
		lp.putMean(name+"_us", name, 1, "us")
		return nil
	}
	delta, err := live.Append(nil, cfg, base, nil)
	if err != nil {
		return err
	}
	if err := sources("search.sources_delta0", delta); err != nil {
		return err
	}
	const edge = 4 // batches averaged at each end of the fill
	for b := 0; b < batches; b++ {
		docs := ingestDocs(rng, lp.e.fx.Inputs.Topics, lp.e.o.seed, b*sc.IngestBatch, sc.IngestBatch)
		lp.docs = append(lp.docs, docs)
		name := "live.append"
		switch {
		case b < edge:
			name = "live.append_empty"
		case b >= batches-edge:
			name = "live.append_full"
		}
		lp.rec.time(name, parent, func() { delta, err = live.Append(delta, cfg, base, docs) })
		if err != nil {
			return err
		}
		if b+1 == batches/2 {
			if err := sources("search.sources_delta50", delta); err != nil {
				return err
			}
		}
	}
	if err := sources("search.sources_delta100", delta); err != nil {
		return err
	}
	lp.putMean("live.append_us_per_doc_empty", "live.append_empty", sc.IngestBatch, "us")
	lp.putMean("live.append_us_per_doc_full", "live.append_full", sc.IngestBatch, "us")
	lp.delta = delta
	return nil
}

// --- shard ---------------------------------------------------------------

func (lp *layerPass) stageShard(ctx context.Context, parent int) error {
	dir, err := os.MkdirTemp(lp.e.tmpDir, "traced-shards-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(lp.e.fx.shardDir(), dir); err != nil {
		return err
	}
	manifest := filepath.Join(dir, "manifest.json")
	var set *shard.Set
	lp.rec.time("shard.load", parent, func() { set, err = shard.Load(manifest) })
	if err != nil {
		return err
	}

	// The same queries through the per-shard scatter and the fused union.
	queries := append(append([]string(nil), lp.entity...), lp.e.pools.class[classCommon][:min(lp.e.sc.Probe/16, len(lp.e.pools.class[classCommon]))]...)
	nodes := make([]search.Node, len(queries))
	scattered := make([][]search.Result, len(queries))
	for i, q := range queries {
		if nodes[i], err = set.Parse(q); err != nil {
			return err
		}
		lp.rec.time("shard.scatter", parent, func() { scattered[i], err = set.Search(ctx, nodes[i], rankDepth) })
		if err != nil {
			return err
		}
	}
	var fused [][]search.Result
	lp.rec.time("search.union", parent, func() {
		fused, err = set.SearchAll(ctx, nodes, rankDepth, core.BatchOptions{Workers: 1})
	})
	if err != nil {
		return err
	}
	for i := range fused {
		if !sameResults(fused[i], scattered[i]) {
			lp.failed++
		}
	}
	lp.putMean("shard.scatter_us", "shard.scatter", 1, "us")
	lp.putMean("search.union_us", "search.union", len(queries), "us")

	// One compaction, phase by phase, then the same compaction through
	// the Pool: fold + write + load should account for it.
	var archives []*store.Archive
	lp.rec.time("shard.fold", parent, func() { archives, err = shard.Fold(set, lp.delta) })
	if err != nil {
		return err
	}
	lp.rec.time("shard.write", parent, func() { _, err = shard.WriteArchives(manifest, archives) })
	if err != nil {
		return err
	}
	archives = nil
	lp.rec.time("shard.load", parent, func() { set, err = shard.Load(manifest) })
	if err != nil {
		return err
	}
	set = nil
	lp.putMean("shard.load_ms", "shard.load", 1, "ms")
	lp.putMean("shard.fold_ms", "shard.fold", 1, "ms")
	lp.putMean("shard.write_ms", "shard.write", 1, "ms")

	if err := copyDir(lp.e.fx.shardDir(), dir); err != nil {
		return err
	}
	pool, err := querygraph.OpenPool(manifest)
	if err != nil {
		return err
	}
	defer pool.Close()
	for _, docs := range lp.docs {
		if _, err := pool.Ingest(ctx, docs); err != nil {
			return err
		}
	}
	lp.rec.time("pool.compact", parent, func() { _, err = pool.Compact(ctx) })
	if err != nil {
		return err
	}
	lp.putMean("pool.compact_ms", "pool.compact", 1, "ms")
	lp.docs, lp.delta = nil, nil
	return nil
}

// --- rpc -----------------------------------------------------------------

// localFleet serves the fixture's shards from in-process rpc.Servers on
// loopback and counts the requests they receive.
type localFleet struct {
	servers  []*rpc.Server
	addrs    []string
	requests atomic.Int64
	done     chan error
}

func startLocalFleet(ctx context.Context, fx *fixture) (*localFleet, error) {
	m, err := shard.ReadManifest(fx.manifest())
	if err != nil {
		return nil, err
	}
	f := &localFleet{done: make(chan error, len(m.Shards))} // one send per server
	for _, sh := range m.Shards {
		srv, err := rpc.LoadServerFile(filepath.Join(fx.shardDir(), sh.Path))
		if err != nil {
			f.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		srv.SetRequestHook(func(rpc.Op, uint64, time.Time, time.Duration, string) { f.requests.Add(1) })
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, ln.Addr().String())
		go func() { f.done <- srv.Serve(ctx, ln) }()
	}
	return f, nil
}

// close stops the servers and waits for their accept loops.
func (f *localFleet) close() {
	for _, srv := range f.servers {
		srv.Close()
	}
	for range f.servers {
		<-f.done
	}
	f.servers = nil
}

func (lp *layerPass) stageRPC(ctx context.Context, parent int) error {
	rs, err := lp.sys.Engine.SearchText(lp.entity[0], rankDepth, nil)
	if err != nil {
		return err
	}
	var enc []byte
	for i := 0; i < 8; i++ {
		lp.rec.time("rpc.encode_results", parent, func() {
			for j := 0; j < batchOps; j++ {
				enc = rpc.AppendResults(enc[:0], rs)
			}
		})
		lp.rec.time("rpc.decode_results", parent, func() {
			for j := 0; j < batchOps; j++ {
				rpc.ReadResults(rpc.NewReader(enc))
			}
		})
	}
	lp.putMean("rpc.encode_results_ns", "rpc.encode_results", batchOps, "ns")
	lp.putMean("rpc.decode_results_ns", "rpc.decode_results", batchOps, "ns")

	fleet, err := startLocalFleet(ctx, lp.e.fx)
	if err != nil {
		return err
	}
	defer fleet.close()
	conns := make([]*rpc.Conn, len(fleet.addrs))
	for i, addr := range fleet.addrs {
		if conns[i], err = rpc.Dial(addr, time.Second); err != nil {
			return err
		}
		defer conns[i].Close()
	}
	for i := 0; i < 4*lp.e.sc.Probe; i++ {
		lp.rec.time("rpc.roundtrip", parent, func() { _, err = conns[0].Do(rpc.OpHealthz, nil, time.Time{}, 0) })
		if err != nil {
			return err
		}
	}
	lp.putMean("rpc.roundtrip_us", "rpc.roundtrip", 1, "us")

	// The two scatter phases against one shard, with the collection
	// frequencies aggregated over the fleet as the coordinator does.
	tokens := uint64(fleet.servers[0].Identity().GlobalTokens)
	for _, q := range lp.entity {
		body := rpc.AppendTextQuery(nil, q)
		var cfs []uint64
		for i, conn := range conns {
			var payload []byte
			do := func() { payload, err = conn.Do(rpc.OpPlan, body, time.Time{}, 0) }
			if i == 0 {
				lp.rec.time("rpc.plan", parent, do)
			} else {
				do()
			}
			if err != nil {
				return err
			}
			r := rpc.NewReader(payload)
			if r.Byte() == 0 {
				return fmt.Errorf("shard %d: query %q is not searchable", i, q)
			}
			n := r.Int()
			if cfs == nil {
				cfs = make([]uint64, n)
			}
			for j := 0; j < n && j < len(cfs); j++ {
				cfs[j] += r.Uvarint()
			}
			if err := r.Done(); err != nil {
				return err
			}
		}
		body = rpc.AppendVarint(body, rankDepth)
		body = rpc.AppendUvarint(body, tokens)
		body = rpc.AppendUvarint(body, uint64(len(cfs)))
		for _, cf := range cfs {
			body = rpc.AppendUvarint(body, cf)
		}
		lp.rec.time("rpc.topk", parent, func() { _, err = conns[0].Do(rpc.OpTopK, body, time.Time{}, 0) })
		if err != nil {
			return err
		}
	}
	lp.putMean("rpc.plan_us", "rpc.plan", 1, "us")
	lp.putMean("rpc.topk_us", "rpc.topk", 1, "us")

	topo := querygraph.Topology{Version: 1}
	for i, addr := range fleet.addrs {
		topo.Shards = append(topo.Shards, querygraph.TopologyShard{ID: i, Addrs: []string{addr}})
	}
	path := filepath.Join(lp.e.tmpDir, "traced-topology.json")
	if err := writeJSON(path, topo); err != nil {
		return err
	}
	remote, err := querygraph.OpenTopology(path)
	if err != nil {
		return err
	}
	defer remote.Close()
	before := fleet.requests.Load()
	if err := lp.backendProbe(ctx, "remote.search", parent, remote); err != nil {
		return err
	}
	// stackProbe answers every query twice: one warming pass, one timed.
	lp.put("rpc.rounds_per_search", float64(fleet.requests.Load()-before)/float64(2*len(lp.entity)), "count", 2*len(lp.entity))
	return nil
}

// --- the runtime stack ---------------------------------------------------

// stackProbe times one runtime on the probe's entity queries, sequentially
// and after a warming pass, and checks its answers against the engine's.
// Only call is timed; answer hands over what the last call returned, so
// decoding a wire answer for the comparison stays outside the span.
func (lp *layerPass) stackProbe(name string, parent int, call func(query string) error, answer func() ([]querygraph.Result, error)) error {
	for _, q := range lp.entity {
		if err := call(q); err != nil {
			return err
		}
	}
	for _, q := range lp.entity {
		var err error
		lp.rec.time(name, parent, func() { err = call(q) })
		if err != nil {
			return err
		}
		got, err := answer()
		if err != nil {
			return err
		}
		want, err := lp.sys.Engine.SearchText(q, rankDepth, nil)
		if err != nil {
			return err
		}
		if !sameResults(got, want) {
			lp.failed++
		}
	}
	lp.putMean(name+"_us", name, 1, "us")
	return nil
}

// backendProbe is stackProbe for an in-process Backend's SearchInto.
func (lp *layerPass) backendProbe(ctx context.Context, name string, parent int, be querygraph.Backend) error {
	var dst []querygraph.Result
	return lp.stackProbe(name, parent, func(q string) (err error) {
		dst, err = be.SearchInto(ctx, q, rankDepth, dst)
		return err
	}, func() ([]querygraph.Result, error) { return dst, nil })
}

func (lp *layerPass) stageStack(ctx context.Context, parent int) error {
	e := lp.e
	client, err := querygraph.Open(e.fx.snapshot())
	if err != nil {
		return err
	}
	err = lp.backendProbe(ctx, "client.search", parent, client)
	client.Close()
	if err != nil {
		return err
	}
	pool, err := querygraph.OpenPool(e.fx.manifest())
	if err != nil {
		return err
	}
	err = lp.backendProbe(ctx, "pool.search", parent, pool)
	pool.Close()
	if err != nil {
		return err
	}

	// qserve with its shipped flags traces every request; search-http-pool's
	// lap against -trace-sample 0 prices that.
	bodies := e.lapBodies(mixSearchHTTP)
	throughput := func(probe bool, extra ...string) (float64, error) {
		srv, base, _, err := e.startQserve(e.fx.manifest(), extra...)
		if err != nil {
			return 0, err
		}
		defer srv.stop()
		hc := newHTTPClient(base)
		defer hc.close()
		if probe {
			var raw []byte
			err := lp.stackProbe("qserve.search", parent, func(q string) (err error) {
				raw, err = hc.post("/v1/search", searchBody(q))
				return err
			}, func() ([]querygraph.Result, error) { return decodeSearch(raw) })
			if err != nil {
				return 0, err
			}
		}
		op := func(i int) error {
			_, err := hc.post("/v1/search", bodies[i])
			return err
		}
		lapLoop(len(bodies), e.sc.TraceWindow/2, nil, op)
		lr := lapLoop(len(bodies), e.sc.TraceWindow, nil, op)
		lp.failed += lr.Failed
		st, err := lr.stats(len(bodies))
		return float64(len(bodies)) / st.Lap.Seconds(), err
	}
	sampled, err := throughput(true)
	if err != nil {
		return err
	}
	unsampled, err := throughput(false, "-trace-sample", "0")
	if err != nil {
		return err
	}
	lp.put("qserve.trace_overhead_pct", 100*(unsampled-sampled)/unsampled, "pct", 2)
	lp.put("qserve.http_overhead_us", lp.out["qserve.search_us"].Value-lp.out["pool.search_us"].Value, "us", len(lp.entity))

	ring := trace.NewRecorder(256)
	for i := 0; i < 8; i++ {
		lp.rec.time("trace.span", parent, func() {
			for j := 0; j < batchOps; j++ {
				t := trace.Begin(trace.NewID())
				now := time.Now()
				t.Span("parse", now, "")
				t.Span("search", now, "")
				ring.Store(t.Finish("search", ""))
			}
		})
	}
	lp.putMean("trace.span_ns", "trace.span", batchOps, "ns")
	return nil
}
