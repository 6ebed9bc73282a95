package search

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Source is one index of a logically concatenated collection: its engine
// plus the local→global doc-id translation. A hash partition is N sources
// with doc maps, the live delta segment (internal/live) is one more with
// an offset, and an unsharded snapshot is the lone identity source.
type Source struct {
	// Engine scores this source's slice of the collection.
	Engine *Engine
	// DocMap translates this source's dense local ids to global ids
	// (shard-style partitions). Nil means the identity shifted by Offset.
	DocMap []int32
	// Offset is added to local ids when DocMap is nil — the delta
	// segment's case, where local doc j is global baseDocs+j.
	Offset int32
}

// scatter is the pooled state of one multi-source search: the request,
// one plan and one local ranking per source, the summed leaf frequencies
// and the merge cursors. Pooling it (and everything it grows) is what
// makes a sequential search with a recycled dst allocate nothing.
type scatter struct {
	sources []Source
	leaves  []Leaf
	k       int
	stats   Stats
	plans   []*Plan
	locals  [][]Result
	errs    []error
	cursors []int
	next    atomic.Int32 // the next source no worker has claimed
	wg      sync.WaitGroup
	// panicked is the first panic of the phase under way.
	panicked atomic.Pointer[error]
}

var scatterPool = sync.Pool{New: func() any { return new(scatter) }}

// SearchSourcesLeaves evaluates flattened query leaves across the sources
// as if their documents lived in one index: plan the leaves against every
// source, sum each leaf's collection frequency (exact integer addition,
// so order cannot perturb it), score every source under the same merged
// statistics, translate doc ids, and merge by (score desc, global doc
// asc). Because a document's Dirichlet score depends only on its own term
// frequencies and length plus the merged collection statistics, the
// ranking is bit-identical to a cold rebuild holding the same documents.
//
// totalTokens is the merged collection length (the sum of the sources'
// TotalTokens). The ranking is written into dst (nil allocates; neither
// leaves nor dst is retained). k <= 0 ranks every candidate; a query with
// no matching documents returns an empty, non-nil slice. A lone identity
// source that is the whole collection is Engine.SearchLeaves itself.
//
// The sources are visited one after another on the calling goroutine —
// the form for a batch worker, whose siblings already occupy the cores.
func SearchSourcesLeaves(sources []Source, totalTokens int64, leaves []Leaf, k int, dst []Result) ([]Result, error) {
	return searchSources(sources, totalTokens, leaves, k, dst, 0)
}

// SearchSourcesLeavesParallel is SearchSourcesLeaves with the plan and
// score phases shared between the caller's goroutine and helpers more —
// the form for a single request over several partitions. helpers is the
// caller's estimate of the cores it will find idle (0 = inline); whoever
// is free takes the next source, so a helper that is late to a busy core
// costs nothing but its own start. Same ranking, bit for bit.
func SearchSourcesLeavesParallel(sources []Source, totalTokens int64, leaves []Leaf, k int, dst []Result, helpers int) ([]Result, error) {
	return searchSources(sources, totalTokens, leaves, k, dst, min(helpers, len(sources)-1))
}

func searchSources(sources []Source, totalTokens int64, leaves []Leaf, k int, dst []Result, helpers int) ([]Result, error) {
	n := len(sources)
	if n == 0 {
		return nil, fmt.Errorf("search: no sources")
	}
	if s := sources[0]; n == 1 && s.DocMap == nil && s.Offset == 0 && totalTokens == s.Engine.ix.TotalTokens() {
		return s.Engine.SearchLeaves(leaves, k, dst)
	}
	sc := scatterPool.Get().(*scatter)
	defer sc.release()
	sc.sources, sc.leaves, sc.k = sources, leaves, k
	for len(sc.plans) < n {
		sc.plans = append(sc.plans, &Plan{})
		sc.locals = append(sc.locals, []Result{})
		sc.errs = append(sc.errs, nil)
		sc.cursors = append(sc.cursors, 0)
	}

	sc.each(helpers, (*scatter).plan)
	leafCF := append(sc.stats.LeafCF[:0], make([]int64, len(leaves))...)
	for _, p := range sc.plans[:n] {
		for j, cf := range p.localCF {
			leafCF[j] += cf
		}
	}
	sc.stats = Stats{TotalTokens: totalTokens, LeafCF: leafCF}
	sc.each(helpers, (*scatter).score)
	for _, err := range sc.errs[:n] {
		if err != nil {
			return nil, err
		}
	}
	return MergeRankedScratch(dst, sc.locals[:n], k, sc.cursors), nil
}

// each runs one phase over every source: inline, or with helpers
// goroutines beside the calling one, each taking the next unclaimed source
// until none is left. A panic in a phase — on a helper or on the caller —
// is recovered where it happens, every participant finishes, and the
// first panic is raised again on the caller, where the request's own
// recover layers (qserve, core.ForEach) contain it. Until then no helper
// can still be writing into the scatter when it is released.
func (sc *scatter) each(helpers int, phase func(*scatter, int)) {
	if helpers <= 0 {
		for i := range sc.sources {
			phase(sc, i)
		}
		return
	}
	sc.next.Store(0)
	sc.wg.Add(helpers)
	for h := 0; h < helpers; h++ {
		go func() { // this one closure is all a helper allocates
			defer sc.wg.Done()
			sc.drain(phase)
		}()
	}
	sc.drain(phase)
	sc.wg.Wait()
	if err := sc.panicked.Swap(nil); err != nil {
		panic(*err)
	}
}

// drain runs phase on sources claimed one at a time until all are taken,
// recording its first panic, if any, for each to raise.
func (sc *scatter) drain(phase func(*scatter, int)) {
	defer func() {
		if p := recover(); p != nil {
			err := fmt.Errorf("search: scatter phase panicked: %v\n%s", p, debug.Stack())
			sc.panicked.CompareAndSwap(nil, &err)
		}
	}()
	for i := int(sc.next.Add(1)) - 1; i < len(sc.sources); i = int(sc.next.Add(1)) - 1 {
		phase(sc, i)
	}
}

func (sc *scatter) plan(i int) {
	sc.plans[i] = sc.sources[i].Engine.PlanLeavesInto(sc.plans[i], sc.leaves)
}

// score ranks source i under the merged statistics into its pooled local
// ranking and translates the doc ids into the global space.
func (sc *scatter) score(i int) {
	src := sc.sources[i]
	rs, err := src.Engine.SearchPlanInto(sc.plans[i], sc.k, &sc.stats, sc.locals[i])
	sc.errs[i] = err
	if err != nil {
		return
	}
	if dm := src.DocMap; dm != nil {
		for j := range rs {
			rs[j].Doc = dm[rs[j].Doc]
		}
	} else if off := src.Offset; off != 0 {
		for j := range rs {
			rs[j].Doc += off
		}
	}
	sc.locals[i] = rs
}

// release returns the scratch to the pool without pinning the caller's
// leaves, sources or any index's postings behind it.
func (sc *scatter) release() {
	for _, p := range sc.plans[:len(sc.sources)] {
		p.release()
	}
	sc.sources, sc.leaves = nil, nil
	scatterPool.Put(sc)
}

// MergeRankedScratch merges per-source rankings — each ordered by (score
// desc, global doc asc), the engine's determinism contract — into the
// global top k. (score, doc) is a total order, so the merged prefix is
// exactly the single-index ranking; k <= 0 keeps every candidate. Storage
// is the caller's: the ranking is appended into dst (nil allocates fresh,
// and the result is always non-nil), and cursors is scratch of at least
// len(locals), so a scatter merge allocates nothing.
func MergeRankedScratch(dst []Result, locals [][]Result, k int, cursors []int) []Result {
	total := 0
	for i, rs := range locals {
		total += len(rs)
		cursors[i] = 0
	}
	if k <= 0 || k > total {
		k = total
	}
	merged := dst
	if merged == nil {
		merged = make([]Result, 0, k)
	} else {
		merged = merged[:0]
	}
	for len(merged) < k {
		best := -1
		for s, rs := range locals {
			c := cursors[s]
			if c >= len(rs) {
				continue
			}
			if best < 0 {
				best = s
				continue
			}
			b := locals[best][cursors[best]]
			if rs[c].Score > b.Score || (rs[c].Score == b.Score && rs[c].Doc < b.Doc) {
				best = s
			}
		}
		merged = append(merged, locals[best][cursors[best]])
		cursors[best]++
	}
	return merged
}
