package querygraph

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/shard"
	"github.com/querygraph/querygraph/internal/store"
	"github.com/querygraph/querygraph/internal/trace"
)

// localRuntime is the one in-process serving runtime, embedded by both
// exported handles: a generation-pinned *shard.Set — N hash partitions
// for a Pool, the Set of one unsharded system for a Client — with the
// live delta riding inside the Set. Its query path is the one every
// runtime shares (queryPath, over a pinned generation's request steps);
// its writes go through write (live.go). Readers pin one immutable
// generation per request, lock-free; writers (Ingest, Compact, Reload,
// Close) serialize on mu and swap whole generations, so a request never
// observes a half-applied write, and a retired generation drains before
// it is released to the collector.
//
//qlint:serving
//qlint:observed
type localRuntime struct {
	queryPath

	// gen is the serving generation; nil once closed. The serving path
	// loads it lock-free; every store happens under mu (enforced by the
	// atomicguard analyzer).
	//
	//qlint:guarded-by mu
	gen atomic.Pointer[poolGeneration]

	// mu serializes the write path; the serving path never takes it.
	mu  sync.Mutex
	cfg clientConfig
	// manifestPath is the shard manifest the runtime was opened from and
	// republishes compacted generations through (Reload may repoint it);
	// "" means the artifact lives in memory — a Client.
	manifestPath string
	// final is the last generation an in-memory runtime served, kept at
	// Close so a Client's accessors keep answering (see view).
	final atomic.Pointer[poolGeneration]

	// Live-index lifecycle: completed-compaction count, the one-at-a-time
	// guard of the background compactor, and the wait group Close blocks
	// on so no compaction goroutine outlives the handle.
	compactions atomic.Uint64
	compacting  atomic.Bool
	bg          sync.WaitGroup
}

// poolGeneration is one immutable serving state — a base Set plus the
// delta segment above it — and its lifecycle. seq is the compaction/
// reload generation (an Ingest republishes the same seq with a longer
// delta). refs starts at 1 — the runtime's own reference, dropped when
// the generation is retired — so the count can only reach zero after
// retirement, at which point drained closes exactly once.
type poolGeneration struct {
	set *shard.Set
	seq uint64

	refs      atomic.Int64
	retired   atomic.Bool
	drained   chan struct{}
	drainOnce sync.Once
}

func newPoolGeneration(set *shard.Set, seq uint64) *poolGeneration {
	g := &poolGeneration{set: set, seq: seq, drained: make(chan struct{})}
	g.refs.Store(1)
	return g
}

func (g *poolGeneration) release() {
	if g.refs.Add(-1) == 0 && g.retired.Load() {
		g.drainOnce.Do(func() { close(g.drained) })
	}
}

// retire marks the generation as superseded and drops the runtime's own
// reference; drained closes once the last in-flight request releases.
func (g *poolGeneration) retire() {
	g.retired.Store(true)
	g.release()
}

// sys is the system expansion, linking and titles run on: shard 0, whose
// knowledge graph is replicated into every shard.
func (g *poolGeneration) sys() *core.System { return g.set.Systems()[0] }

// start publishes the first generation of a freshly constructed handle.
func (rt *localRuntime) start(set *shard.Set, cfg clientConfig, manifestPath string) {
	rt.cfg, rt.manifestPath = cfg, manifestPath
	rt.queryPath = queryPath{enter: rt.enter, obs: cfg.obs}
	rt.gen.Store(newPoolGeneration(set, 1)) //qlint:ignore atomicguard constructor: rt has not escaped, no concurrent writer exists yet
}

// swapLocked publishes next and retires the generation it supersedes.
//
//qlint:locked mu
func (rt *localRuntime) swapLocked(next *poolGeneration) {
	rt.gen.Swap(next).retire()
}

// Close retires the handle: in-flight requests drain (Close blocks until
// the last one releases), and every later query-path call returns
// ErrClosed. Close is idempotent — a second call returns nil immediately
// — and safe concurrently with the serving and write paths. Afterwards a
// Pool's accessors (NumShards, Generation, Queries, Title, Link, Stats,
// CacheStats) return zero values, while a Client's cheap in-memory
// accessors keep answering from the last state it served, minus the
// expansion cache's entries, which Close releases.
func (rt *localRuntime) Close() error {
	rt.mu.Lock()
	old := rt.gen.Load()
	if old != nil && rt.manifestPath == "" {
		rt.final.Store(old) // before the swap: view must never see neither
	}
	rt.gen.Swap(nil)
	rt.mu.Unlock()
	if old == nil {
		return nil
	}
	// An in-flight background compaction finds the nil generation under
	// mu and bails; wait it out so Close leaves no goroutine behind.
	rt.bg.Wait()
	old.retire()
	<-old.drained
	old.sys().PurgeExpandCache()
	return nil
}

// acquire pins the current generation for one request; it fails with
// ErrClosed once Close has swapped the generation out. The retry loop
// closes the swap race: after incrementing refs we re-check that the
// generation is still current — if it is, the runtime's own reference had
// not been dropped when we incremented (atomic operations are totally
// ordered), so the count can not have touched zero and the generation is
// safely pinned; if it is not (a writer swapped in a newer generation, or
// Close swapped in nil), we release and retry on whatever is current.
func (rt *localRuntime) acquire() (*poolGeneration, error) {
	for {
		g := rt.gen.Load()
		if g == nil {
			return nil, ErrClosed
		}
		g.refs.Add(1)
		if rt.gen.Load() == g {
			return g, nil
		}
		g.release()
	}
}

// pin gates every request: a dead context fails with ctx.Err() and a
// closed handle with ErrClosed before any pipeline work; otherwise the
// current generation is pinned until the caller's deferred release.
func (rt *localRuntime) pin(ctx context.Context) (*poolGeneration, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rt.acquire()
}

// enter is the local runtime's gate on the shared query path: the
// generation acquire pins is the request, whose steps (search, expand,
// searchExpansion) run on it until its release. On ErrClosed the
// request is a nil generation, which the envelope never touches.
func (rt *localRuntime) enter() (request, error) { return rt.acquire() }

// view is the generation the non-erroring accessors answer from: the
// serving one, else the one a Client kept at Close, else nil (a closed
// Pool). Generations are immutable, so accessors read without pinning.
func (rt *localRuntime) view() *poolGeneration {
	if g := rt.gen.Load(); g != nil {
		return g
	}
	return rt.final.Load()
}

// republish turns a compaction's folded archives into the next serving
// Set, the one policy the opened artifact fixes: a manifest-backed
// runtime writes the shards, republishes the manifest atomically and
// loads the generation back from the bytes just written — the read path
// Reload exercises, so a compacted snapshot that would not serve is
// rejected with the old generation still serving — while an in-memory
// runtime assembles the system straight from the one folded archive.
func (rt *localRuntime) republish(archives []*store.Archive) (*shard.Set, error) {
	if rt.manifestPath == "" {
		sys, queries, err := core.SystemFromArchive(archives[0], rt.cfg.sys...)
		if err != nil {
			return nil, err
		}
		return shard.Single(sys, queries), nil
	}
	if _, err := shard.WriteArchives(rt.manifestPath, archives); err != nil {
		return nil, err
	}
	set, err := shard.Load(rt.manifestPath, rt.cfg.sys...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	return set, nil
}

// shards is the pinned generation's shard count.
func (g *poolGeneration) shards() int { return g.set.NumShards() }

// search is one query's parse, through the memoized plan cache, and its
// ranking over every source of the pinned generation. Untraced requests —
// the pinned 0 allocs/op path — skip the clock reads; Span on a nil trace
// is a no-op.
func (g *poolGeneration) search(ctx context.Context, query string, k int, dst []Result) ([]Result, error) {
	tr := trace.FromContext(ctx)
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	leaves, err := g.set.LeavesForQuery(query)
	if err != nil {
		tr.Span("parse", t0, "invalid_query")
		return nil, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	tr.Span("parse", t0, "")
	if tr != nil {
		t0 = time.Now()
	}
	rs, err := g.set.SearchLeaves(leaves, k, dst)
	tr.Span("search", t0, ErrorClass(err))
	return rs, err
}

// expand is one expansion's work on the pinned generation, through its
// expansion cache.
func (g *poolGeneration) expand(ctx context.Context, keywords string, eopts core.ExpanderOptions) (*Expansion, CacheOutcome, error) {
	start := time.Now()
	exp, outcome, err := g.sys().ExpandOutcome(ctx, keywords, eopts)
	if tr := trace.FromContext(ctx); tr != nil {
		// The cache outcome of the expand lookup rides in the span detail.
		tr.Add("expand", start, -1, 0, false, ErrorClass(err), outcome.String())
	}
	return exp, outcome, err
}

// searchExpansion is one expansion retrieval's work on the pinned
// generation; ok=false leaves results nil.
func (g *poolGeneration) searchExpansion(ctx context.Context, exp *Expansion, k int) (results []Result, ok bool, err error) {
	node, ok, err := exp.Query(g.sys())
	switch {
	case err != nil:
		return nil, false, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	case !ok:
		return nil, false, nil
	}
	results, err = g.set.Search(ctx, node, k)
	return results, true, err
}

// Entity is one knowledge-base article a query mentions.
type Entity struct {
	ID    NodeID `json:"id"`
	Title string `json:"title"`
}

// Link computes L(q.k): the main articles the keywords mention, by
// largest-substring entity linking with redirect synonyms (nil on a
// closed Pool).
func (rt *localRuntime) Link(keywords string) []Entity {
	g := rt.view()
	if g == nil {
		return nil
	}
	sys := g.sys()
	ids := sys.LinkKeywords(keywords)
	out := make([]Entity, len(ids))
	for i, id := range ids {
		out[i] = Entity{ID: id, Title: sys.Snapshot.Name(id)}
	}
	return out
}

// Title returns the display title of a knowledge-base node ("" for an id
// the graph does not have, and on a closed Pool).
func (rt *localRuntime) Title(id NodeID) string {
	g := rt.view()
	if g == nil {
		return ""
	}
	return g.sys().Snapshot.Name(id)
}

// Queries returns the loaded query benchmark (empty when the snapshot
// carried none; nil on a closed Pool).
func (rt *localRuntime) Queries() []Query {
	g := rt.view()
	if g == nil {
		return nil
	}
	return append([]Query{}, g.set.Queries()...)
}

// Stats summarizes the serving state: knowledge-base shape, corpus size
// (the base generation, global across shards; delta documents are
// reported separately), benchmark size, the live delta segment and the
// expansion cache counters.
type Stats struct {
	Articles   int `json:"articles"`
	Redirects  int `json:"redirects"`
	Categories int `json:"categories"`
	Links      int `json:"links"`

	Documents        int `json:"documents"`
	BenchmarkQueries int `json:"benchmark_queries"`

	Delta DeltaStats `json:"delta"`

	Cache CacheStats `json:"cache"`
}

// Stats reports the serving-state summary of the current generation
// (zero on a closed Pool).
func (rt *localRuntime) Stats() Stats {
	if g := rt.view(); g != nil {
		return rt.statsOf(g)
	}
	return Stats{}
}

func (rt *localRuntime) statsOf(g *poolGeneration) Stats {
	kb, delta := g.sys().Snapshot.Stats(), g.set.Delta()
	return Stats{
		Articles:         kb.Articles,
		Redirects:        kb.Redirects,
		Categories:       kb.Categories,
		Links:            kb.Links,
		Documents:        g.set.GlobalDocs(),
		BenchmarkQueries: len(g.set.Queries()),
		Delta: DeltaStats{
			Documents:    delta.NumDocs(),
			PendingBytes: delta.Bytes(),
			Generation:   g.seq,
			Compactions:  rt.compactions.Load(),
		},
		Cache: g.sys().ExpandCacheStats(),
	}
}

// CacheStats reports the expansion cache's hit/miss counters and
// occupancy (all zero when the cache is disabled, or on a
// closed Pool). The cache lives with the generation, so a compaction or
// reload starts it cold.
func (rt *localRuntime) CacheStats() CacheStats {
	g := rt.view()
	if g == nil {
		return CacheStats{}
	}
	return g.sys().ExpandCacheStats()
}
