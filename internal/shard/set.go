package shard

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/live"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/store"
)

// Set is one loaded generation of a serving snapshot: every shard wrapped
// in its own serving System, plus the cross-shard identity needed for
// scatter-gather, plus — on the view WithDelta returns — the live delta
// segment searched above it. An unsharded snapshot is the Set of one
// (Single). A Set is immutable and safe for concurrent use; hot reload,
// ingest and compaction (querygraph's local runtime) swap whole Sets.
//
// Division of labor: retrieval scatters to every source and merges
// (search.SearchSourcesLeaves, the one multi-source scorer); expansion
// runs once on shard 0's replicated graph (the expansion cache therefore
// lives on shard 0's System).
type Set struct {
	systems []*core.System
	queries []core.Query
	// docMaps[s] maps shard s's dense local doc ids to global ids; the
	// whole table is nil on an unsharded Set, whose ids already are global.
	docMaps      [][]int32
	globalDocs   int
	globalTokens int64

	// delta is the live segment above the base (nil = empty). sources and
	// tokens are what every search runs over: one source per shard plus
	// the delta's, and the merged collection length.
	delta   *live.Delta
	sources []search.Source
	tokens  int64
	// helpers is how many goroutines a lone search adds to its caller's
	// (see fanOut).
	helpers int
}

// fanOut is the number of goroutines a single request over shards shards
// and, if live, a delta segment adds to its own on procs Ps: one for each
// further source, but no more than the Ps it can expect to find idle. Its
// own is taken; above a delta so is one more, by the writer that republishes
// the segment batch after batch and the collector that runs behind it. On
// two cores that leaves none: next to a 2 000 docs/s writer a reader found
// the second core free for fewer than half of its searches, and scoring
// inline it completed about as many a second at a cost per search that no
// longer depended on which half it fell in (DESIGN.md, "When the fan-out
// is concurrent"). One shard is always scored inline.
func fanOut(shards int, live bool, procs int) int {
	if shards < 2 {
		return 0
	}
	sources, idle := shards, procs-1
	if live {
		sources, idle = sources+1, idle-1
	}
	return max(0, min(sources-1, idle))
}

// Single wraps one unsharded system as the Set of one: a lone identity
// source, which the scorer short-circuits to the engine's own search.
func Single(sys *core.System, queries []core.Query) *Set {
	s := &Set{
		systems:      []*core.System{sys},
		queries:      queries,
		globalDocs:   sys.Collection.Len(),
		globalTokens: sys.Engine.Index().TotalTokens(),
	}
	return s.WithDelta(nil)
}

// WithDelta returns the view of this generation with d as its live delta
// segment (nil or empty = none); the base is shared, not copied. d must
// have been appended above this Set's GlobalDocs.
func (s *Set) WithDelta(d *live.Delta) *Set {
	v := *s
	v.delta, v.tokens = d, s.globalTokens+d.TotalTokens()
	v.sources = make([]search.Source, len(s.systems), len(s.systems)+1)
	for i, sys := range s.systems {
		v.sources[i].Engine = sys.Engine
		if s.docMaps != nil {
			v.sources[i].DocMap = s.docMaps[i]
		}
	}
	if d.NumDocs() > 0 {
		v.sources = append(v.sources, d.Source())
	}
	v.helpers = fanOut(len(s.systems), d.NumDocs() > 0, runtime.GOMAXPROCS(0))
	return &v
}

// Load opens every shard named by the manifest (concurrently — decode
// dominates startup) and cross-validates the generation: complete slot
// assignment, agreeing shard counts, global statistics and engine
// configuration, and a doc-id map that tiles the global space exactly.
// opts apply to every shard's System; the expansion cache is kept on
// shard 0 only, where Expand runs.
func Load(manifestPath string, opts ...core.SystemOption) (*Set, error) {
	m, err := ReadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	n := m.ShardCount
	archives := make([]*store.Archive, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for _, e := range m.Shards {
		wg.Add(1)
		go func(e ManifestShard) {
			defer wg.Done()
			archives[e.ID], errs[e.ID] = readArchiveFile(shardPath(manifestPath, e))
		}(e)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}

	set := &Set{
		systems: make([]*core.System, n),
		docMaps: make([][]int32, n),
	}
	ref := archives[0]
	if ref.Shard == nil {
		return nil, fmt.Errorf("shard 0: snapshot carries no partition identity; regenerate with qgen -shards")
	}
	set.globalDocs, set.globalTokens = ref.Shard.GlobalDocs, ref.Shard.GlobalTokens
	if set.globalDocs != m.GlobalDocs {
		return nil, fmt.Errorf("shard 0: snapshot spans %d global documents, manifest says %d",
			set.globalDocs, m.GlobalDocs)
	}
	seen := make([]bool, set.globalDocs)
	covered := 0
	for s, a := range archives {
		sh := a.Shard
		switch {
		case sh == nil:
			return nil, fmt.Errorf("shard %d: snapshot carries no partition identity", s)
		case sh.ShardID != s:
			return nil, fmt.Errorf("shard %d: file identifies as shard %d", s, sh.ShardID)
		case sh.ShardCount != n:
			return nil, fmt.Errorf("shard %d: file belongs to a %d-shard partition, manifest has %d",
				s, sh.ShardCount, n)
		case sh.GlobalDocs != set.globalDocs || sh.GlobalTokens != set.globalTokens:
			return nil, fmt.Errorf("shard %d: global statistics (%d docs, %d tokens) disagree with shard 0 (%d, %d); mixed generations?",
				s, sh.GlobalDocs, sh.GlobalTokens, set.globalDocs, set.globalTokens)
		}
		for _, g := range sh.DocGlobal {
			if seen[g] {
				return nil, fmt.Errorf("shard %d: global document %d owned by two shards", s, g)
			}
			seen[g] = true
		}
		covered += len(sh.DocGlobal)
		set.docMaps[s] = sh.DocGlobal

		shardOpts := opts
		if s != 0 {
			// Expansion runs on shard 0 only; don't size caches the other
			// shards will never consult.
			shardOpts = append(append([]core.SystemOption{}, opts...), core.WithExpandCache(0))
		}
		sys, queries, err := core.SystemFromArchive(a, shardOpts...)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		set.systems[s] = sys
		if s == 0 {
			set.queries = queries
		}
	}
	if covered != set.globalDocs {
		return nil, fmt.Errorf("shards cover %d of %d global documents", covered, set.globalDocs)
	}
	return set.WithDelta(nil), nil
}

func readArchiveFile(path string) (*store.Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return store.Read(f)
}

// NumShards returns the shard count of the loaded generation.
func (s *Set) NumShards() int { return len(s.systems) }

// Systems returns the per-shard serving systems (index = shard id), for
// stats reporting. Treat as read-only.
func (s *Set) Systems() []*core.System { return s.systems }

// Queries returns the replicated benchmark. Treat as read-only.
func (s *Set) Queries() []core.Query { return s.queries }

// GlobalDocs returns the base collection's document count across all
// shards (delta documents sit above it and are not included).
func (s *Set) GlobalDocs() int { return s.globalDocs }

// Parse parses query text with the replicated analyzer configuration.
func (s *Set) Parse(query string) (search.Node, error) {
	return s.systems[0].Engine.Parse(query)
}

// Delta returns the live segment this view searches above the base (nil
// = none).
func (s *Set) Delta() *live.Delta { return s.delta }

// LeavesForQuery parses and flattens query text through shard 0's
// memoized plan cache (the analyzer configuration is replicated, so any
// shard's cache would do). The leaves are shared: read-only.
func (s *Set) LeavesForQuery(query string) ([]search.Leaf, error) {
	return s.systems[0].Engine.LeavesForQuery(query)
}

// SearchLeaves ranks one request's flattened leaves over every source
// into dst: exactly the single-system ranking, because every source
// scores under the merged statistics. Several shards are shared with
// fanOut's helpers — a lone request has the idle cores to itself.
func (s *Set) SearchLeaves(leaves []search.Leaf, k int, dst []search.Result) ([]search.Result, error) {
	return search.SearchSourcesLeavesParallel(s.sources, s.tokens, leaves, k, dst, s.helpers)
}

// Search is SearchLeaves for one parsed query.
func (s *Set) Search(ctx context.Context, node search.Node, k int) ([]search.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	leaves, err := search.Flatten(node)
	if err != nil {
		return nil, err
	}
	return s.SearchLeaves(leaves, k, nil)
}

// SearchAll evaluates a batch of parsed queries on a bounded worker pool
// (input order preserved, fail-fast, cancel-aware), each worker visiting
// its query's sources sequentially. No serving path calls it — the
// runtimes' batches run Search per item — and its last user is the
// benchmark harness's search.union_us layer (bench/layers.go:516); it
// leaves with that metric.
func (s *Set) SearchAll(ctx context.Context, nodes []search.Node, k int, opts core.BatchOptions) ([][]search.Result, error) {
	out := make([][]search.Result, len(nodes))
	err := core.ForEach(ctx, len(nodes), opts.Workers, func(i int) error {
		leaves, err := search.Flatten(nodes[i])
		if err == nil {
			out[i], err = search.SearchSourcesLeaves(s.sources, s.tokens, leaves, k, nil)
		}
		if err != nil {
			return fmt.Errorf("shard: search %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
