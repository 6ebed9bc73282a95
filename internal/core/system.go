// Package core ties the substrates into the paper's pipeline and exposes
// the public API of the reproduction:
//
//   - System: a knowledge base + document collection + search engine +
//     entity linker, built once and safe for concurrent reads;
//   - ground-truth construction (Section 2): L(q.k), L(q.D), the
//     ADD/REMOVE/SWAP search for X(q) and the query-graph assembly;
//   - Analyze: every measurement behind the paper's Tables 2–4 and
//     Figures 5, 6, 7a, 7b and 9;
//   - Expander: the paper's proposed future work — an online query
//     expansion engine that mines dense cycles with a ~30% category ratio
//     from the Wikipedia neighborhood of the query entities.
package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/eval"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/index"
	"github.com/querygraph/querygraph/internal/linking"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/synth"
	"github.com/querygraph/querygraph/internal/text"
	"github.com/querygraph/querygraph/internal/wiki"
)

// System is the assembled environment: everything the pipeline needs to
// link, search and evaluate queries against one knowledge base and corpus.
type System struct {
	Snapshot   *wiki.Snapshot
	Collection *corpus.Collection
	Engine     *search.Engine
	Linker     *linking.Linker

	analyzer *text.Analyzer
	// titleTerms holds, per graph node, its title's analysed terms once a
	// title query has named the node. It is filled on first use, not at
	// load, which analysing every title would lengthen by 15–30 %.
	// A filled entry is shared read-only by every query built from it.
	titleTerms []atomic.Pointer[[]string]
	// expandCache memoizes Expand results per (keywords, options); nil when
	// caching is disabled.
	expandCache *expandCache
	// expandCalls counts invocations of the uncached expansion pipeline —
	// the observable the cache tests assert on.
	expandCalls atomic.Uint64
}

// SystemOption configures NewSystem.
type SystemOption func(*systemConfig)

type systemConfig struct {
	expandCacheSize int
}

// DefaultExpandCacheSize is the expansion cache capacity NewSystem uses
// unless WithExpandCache overrides it.
const DefaultExpandCacheSize = 1024

// WithExpandCache overrides the expansion cache capacity (default
// DefaultExpandCacheSize). The cache is sharded 16 ways and the per-shard
// capacity rounds up, so the enforced total — what CacheStats reports as
// Capacity — is the given capacity rounded up to a multiple of 16.
// capacity <= 0 disables caching entirely.
func WithExpandCache(capacity int) SystemOption {
	return func(c *systemConfig) { c.expandCacheSize = capacity }
}

// NewSystem indexes the collection and builds the engine and linker.
func NewSystem(snap *wiki.Snapshot, coll *corpus.Collection, opts ...SystemOption) (*System, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if coll == nil {
		return nil, fmt.Errorf("core: nil collection")
	}
	an := newAnalyzer()
	return assemble(snap, coll, search.IndexCollection(coll, an), an, opts)
}

// newAnalyzer is the one analysis chain: stopword removal plus Porter
// stemming, for documents and queries alike. Engines score at search's
// default mu, INDRI's 2500; the paper fixes both (Section 2.2).
func newAnalyzer() *text.Analyzer { return text.NewAnalyzer(true, true) }

// assemble wraps an indexed collection in a System.
func assemble(snap *wiki.Snapshot, coll *corpus.Collection, ix *index.Index, an *text.Analyzer, opts []SystemOption) (*System, error) {
	cfg := systemConfig{expandCacheSize: DefaultExpandCacheSize}
	for _, opt := range opts {
		opt(&cfg)
	}
	engine, err := search.NewEngine(ix, an)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	titleTerms := make([]atomic.Pointer[[]string], snap.Graph().NumNodes())
	clear(titleTerms) // fault the table's pages in now, not one at a time under first fills
	return &System{
		Snapshot:    snap,
		Collection:  coll,
		Engine:      engine,
		Linker:      linking.New(snap),
		analyzer:    an,
		titleTerms:  titleTerms,
		expandCache: newExpandCache(cfg.expandCacheSize),
	}, nil
}

// FromWorld assembles a System directly from a generated world.
func FromWorld(w *synth.World, opts ...SystemOption) (*System, error) {
	return NewSystem(w.Snapshot, w.Collection, opts...)
}

// Query is one benchmark query in pipeline form.
type Query struct {
	ID       int
	Keywords string
	Relevant []int32
}

// QueriesFromWorld converts the generator's benchmark queries.
func QueriesFromWorld(w *synth.World) []Query {
	out := make([]Query, len(w.Queries))
	for i, q := range w.Queries {
		out[i] = Query{ID: q.ID, Keywords: q.Keywords, Relevant: q.Relevant}
	}
	return out
}

// MaxRank is the deepest rank cutoff the paper evaluates (top-15).
const MaxRank = 15

// LinkKeywords computes L(q.k): the main articles mentioned in the query
// keywords.
func (s *System) LinkKeywords(keywords string) []graph.NodeID {
	return s.Linker.LinkMain(keywords)
}

// LinkDocuments computes L(D): the union of main articles mentioned in the
// given documents' relevant text.
func (s *System) LinkDocuments(docs []int32) ([]graph.NodeID, error) {
	seen := make(map[graph.NodeID]struct{})
	for _, d := range docs {
		doc, err := s.Collection.Doc(corpus.DocID(d))
		if err != nil {
			return nil, fmt.Errorf("core: L(q.D): %w", err)
		}
		for _, id := range s.Linker.LinkMain(doc.Text) {
			seen[id] = struct{}{}
		}
	}
	out := make([]graph.NodeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// TitleQuery builds the INDRI-style query for a set of articles: one exact
// phrase per title, per the paper's Section 2.2. When no article has a
// usable title the raw keywords back the query off so that the baseline of
// an entity-less query is still defined. An article the graph does not
// have is an error: the query it names can not be written.
func (s *System) TitleQuery(keywords string, articles []graph.NodeID) (search.Node, bool, error) {
	titles := make([][]string, len(articles))
	for i, a := range articles {
		if n := s.Snapshot.Graph().NumNodes(); int(a) >= n {
			return nil, false, fmt.Errorf("core: article %d is not in this %d-node graph", a, n)
		}
		titles[i] = s.titleTermsOf(a)
	}
	node, ok := search.BuildTitleQuery(keywords, titles, s.analyzer)
	return node, ok, nil
}

// titleTermsOf returns the analysed terms of a's title, analysing it on
// the first call. Two racing first calls store equal slices.
func (s *System) titleTermsOf(a graph.NodeID) []string {
	if terms := s.titleTerms[a].Load(); terms != nil {
		return *terms
	}
	terms := s.analyzer.Analyze(s.Snapshot.Name(a))
	s.titleTerms[a].Store(&terms)
	return terms
}

// EvaluateArticles computes O(A, D): it writes the title query for the
// articles, retrieves the top-15 and averages precision over the paper's
// rank cutoffs. It also returns the ranked documents for reuse.
func (s *System) EvaluateArticles(keywords string, articles []graph.NodeID, relevant eval.Relevance) (float64, []int32, error) {
	node, ok, err := s.TitleQuery(keywords, articles)
	if err != nil || !ok {
		return 0, nil, err // !ok: nothing to search for, zero precision by definition
	}
	results, err := s.Engine.Search(node, MaxRank)
	if err != nil {
		return 0, nil, fmt.Errorf("core: evaluate: %w", err)
	}
	ranked := search.Docs(results)
	return eval.O(ranked, relevant), ranked, nil
}

// BatchOptions bounds the concurrency of a batch: the worker pool ForEach
// runs it on.
type BatchOptions struct {
	// Workers bounds the parallel fan-out over the batch; <= 0 means
	// GOMAXPROCS.
	Workers int
}

// parallelism returns the worker count for per-query fan-out; <= 0 means
// GOMAXPROCS, matching the documented BatchOptions.Workers contract.
func parallelism(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn over the indices [0, n) on a bounded worker pool — the
// calling goroutine and workers-1 more — claiming indices in increasing
// order. Once any index fails — or ctx is cancelled — no worker claims
// another, so a failing or abandoned batch ends after at most the work
// already in flight rather than grinding through the rest. Every index
// below a failing one was claimed before it and so has run: the error
// returned is the lowest failing index's, whatever order the workers
// finished in. A cancelled ctx is reported as ctx.Err() unless an index
// failed. A panic in fn is that index's error, stack included: no recover
// sits above a worker goroutine, so letting it escape would end the
// process.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errAt  = n
		err    error
	)
	work := func() {
		for !failed.Load() && ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if e := guard(fn, i); e != nil {
				mu.Lock()
				if i < errAt {
					errAt, err = i, e
				}
				mu.Unlock()
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(parallelism(workers), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if err != nil {
		return err
	}
	return ctx.Err()
}

// guard is fn(i) with a panic turned into the returned error.
func guard(fn func(i int) error, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: batch item %d panicked: %v\n%s", i, p, debug.Stack())
		}
	}()
	return fn(i)
}
