package search

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/index"
	"github.com/querygraph/querygraph/internal/text"
)

// DefaultMu is the Dirichlet smoothing parameter, INDRI's default.
const DefaultMu = 2500

// unseenFloor stands in for the collection frequency of a term or phrase
// never seen in the collection, so that its background probability is small
// but non-zero (INDRI applies the same kind of floor for out-of-vocabulary
// terms).
const unseenFloor = 0.5

// Result is one ranked document.
type Result struct {
	Doc   int32   `json:"doc"`
	Score float64 `json:"score"`
}

// Engine scores queries against an index with Dirichlet-smoothed query
// likelihood. It is safe for concurrent use once constructed.
type Engine struct {
	ix *index.Index
	an *text.Analyzer
	mu float64

	// scratch pools the dense per-search accumulators so concurrent
	// searches don't contend and repeated searches don't reallocate.
	scratch sync.Pool

	// planPool recycles Plan values for SearchLeaves, and leaves caches
	// parsed+flattened query text, so the text search path allocates
	// nothing at steady state.
	planPool sync.Pool
	leaves   leafCache
}

// Option configures an Engine.
type Option func(*Engine)

// WithMu overrides the Dirichlet smoothing parameter.
func WithMu(mu float64) Option {
	return func(e *Engine) { e.mu = mu }
}

// NewEngine wraps an index and the analyzer that produced its terms.
func NewEngine(ix *index.Index, an *text.Analyzer, opts ...Option) (*Engine, error) {
	if ix == nil {
		return nil, fmt.Errorf("search: nil index")
	}
	e := &Engine{ix: ix, an: an, mu: DefaultMu}
	for _, opt := range opts {
		opt(e)
	}
	if e.mu <= 0 {
		return nil, fmt.Errorf("search: mu must be positive, got %g", e.mu)
	}
	return e, nil
}

// Analyzer returns the engine's analysis chain (shared with the linker and
// the indexer).
func (e *Engine) Analyzer() *text.Analyzer { return e.an }

// Index returns the underlying index.
func (e *Engine) Index() *index.Index { return e.ix }

// Mu returns the engine's Dirichlet smoothing parameter.
func (e *Engine) Mu() float64 { return e.mu }

// IndexCollection analyzes and indexes every document of the collection in
// dense-ID order, so corpus.DocID and index doc IDs coincide. It returns the
// populated index.
func IndexCollection(c *corpus.Collection, an *text.Analyzer) *index.Index {
	ix := index.New()
	for _, doc := range c.Docs() {
		ix.AddDocument(an.Analyze(doc.Text))
	}
	return ix
}

// Parse parses a query string with the engine's analyzer.
func (e *Engine) Parse(query string) (Node, error) { return ParseQuery(query, e.an) }

// Leaf is one scoring leaf of a flattened query: a term (len(Terms) == 1)
// or an exact phrase (len(Terms) > 1) with its effective weight.
type Leaf struct {
	Terms  []string
	Weight float64
}

// Flatten converts the AST into weighted scoring leaves, in the
// deterministic left-to-right order the scorer folds them. Distributed
// callers flatten once, plan the leaves against every partition
// (PlanLeavesInto) and aggregate per-leaf collection statistics before
// scoring (SearchPlanInto).
func Flatten(n Node) ([]Leaf, error) { return flatten(n, 1, make([]Leaf, 0, countLeaves(n))) }

// countLeaves counts the scoring leaves flatten makes of n, so that the
// leaf slice is allocated once at its size.
func countLeaves(n Node) int {
	var children []Node
	switch t := n.(type) {
	case Term, Phrase:
		return 1
	case Combine:
		children = t.Children
	case Weight:
		children = t.Children
	}
	count := 0
	for _, ch := range children {
		count += countLeaves(ch)
	}
	return count
}

// flatten converts the AST into weighted leaves. #combine is an unweighted
// sum of child log scores, so it passes weight w through to every child;
// #weight normalizes its weights to sum 1 and distributes w * (wi / Σw).
func flatten(n Node, w float64, out []Leaf) ([]Leaf, error) {
	switch t := n.(type) {
	case Term:
		return append(out, Leaf{Terms: []string{t.Text}, Weight: w}), nil
	case Phrase:
		if len(t.Terms) == 0 {
			return nil, fmt.Errorf("search: empty phrase node")
		}
		return append(out, Leaf{Terms: t.Terms, Weight: w}), nil
	case Combine:
		if len(t.Children) == 0 {
			return nil, fmt.Errorf("search: empty combine node")
		}
		var err error
		for _, ch := range t.Children {
			out, err = flatten(ch, w, out)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	case Weight:
		if len(t.Children) == 0 {
			return nil, fmt.Errorf("search: empty weight node")
		}
		if len(t.Children) != len(t.Weights) {
			return nil, fmt.Errorf("search: weight node has %d children but %d weights",
				len(t.Children), len(t.Weights))
		}
		var sum float64
		for _, wi := range t.Weights {
			if wi < 0 {
				return nil, fmt.Errorf("search: negative weight %g", wi)
			}
			sum += wi
		}
		if sum == 0 {
			return nil, fmt.Errorf("search: weight node with zero total weight")
		}
		var err error
		for i, ch := range t.Children {
			out, err = flatten(ch, w*t.Weights[i]/sum, out)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	case nil:
		return nil, fmt.Errorf("search: nil query node")
	default:
		return nil, fmt.Errorf("search: unknown node type %T", n)
	}
}

// scorerScratch holds the dense per-search working state. Accumulators are
// keyed directly by the index's dense int32 doc IDs; epoch marking makes
// reuse across searches O(candidates) instead of O(NumDocs) clearing.
type scorerScratch struct {
	acc    []float64 // acc[doc]: tf-dependent score mass of this search
	epoch  []uint32  // epoch[doc] == cur marks doc as a candidate
	cur    uint32
	docs   []int32     // candidate docs in first-touch order
	heap   []Result    // top-k heap storage, reused across searches
	leaves []leafDelta // per plan leaf, this search's background model
	// norm[dl] memoizes log(dl + µ), which depends on nothing but the
	// engine, so it survives from search to search; 0 means not computed
	// yet (and is recomputed every time where it is the true value).
	norm [normTableSize]float64
}

// normOf returns log(dl + µ), from the table where it can.
func (sc *scorerScratch) normOf(dl int64, mu float64) float64 {
	if dl < normTableSize && sc.norm[dl] != 0 {
		return sc.norm[dl]
	}
	return sc.fillNorm(dl, mu)
}

// fillNorm is normOf's slow path, out of line so that normOf inlines into
// the scoring loops.
func (sc *scorerScratch) fillNorm(dl int64, mu float64) float64 {
	norm := math.Log(float64(dl) + mu)
	if dl < normTableSize {
		sc.norm[dl] = norm
	}
	return norm
}

// leafDelta is one leaf's tf-dependent score mass under this search's
// statistics, d(tf) = w·(log(tf + µ·pc) − log µ·pc), kept in a table of the
// frequencies met so far. d is ≥ 0 and nondecreasing in tf.
type leafDelta struct {
	w, muPc, logMuPc float64
	filled           uint32 // bit tf set: deltas[tf] holds d(tf)
	deltas           [tfTableSize]float64
}

// at returns d(tf); fill is its slow path, out of line so that at inlines
// into the postings walk.
func (ld *leafDelta) at(tf uint32) float64 {
	if tf < tfTableSize && ld.filled&(1<<tf) != 0 {
		return ld.deltas[tf]
	}
	return ld.fill(tf)
}

func (ld *leafDelta) fill(tf uint32) float64 {
	// The conversion keeps a fusing compiler from folding the product into
	// an accumulation the caller makes of it, so d(tf) is one float64
	// wherever it is used.
	d := float64(ld.w * (math.Log(float64(tf)+ld.muPc) - ld.logMuPc))
	if tf < tfTableSize {
		ld.filled |= 1 << tf
		ld.deltas[tf] = d
	}
	return d
}

// scoreSums are a search's two sums over every leaf, in leaf order: the
// tf = 0 score mass Σ w·log µ·pc and the weight Σ w.
type scoreSums struct{ zero, weight float64 }

// of is the score of a document with tf-dependent mass acc and length
// normalization norm. Every score and every bound on one is this
// expression, so they round alike; it is nondecreasing in acc and
// nonincreasing in norm.
func (s scoreSums) of(acc, norm float64) float64 { return s.zero + acc - s.weight*norm }

// Sizes of the scorer's two logarithm tables. Term frequencies are almost
// always 1–3 and a collection's documents take a few hundred distinct
// lengths; whatever falls outside is computed directly.
const (
	tfTableSize   = 32 // one bit each in a uint32 of filled entries
	normTableSize = 1024
)

func (e *Engine) getScratch() *scorerScratch {
	sc, _ := e.scratch.Get().(*scorerScratch)
	if sc == nil {
		sc = &scorerScratch{}
	}
	if n := e.ix.NumDocs(); len(sc.acc) < n {
		sc.acc = make([]float64, n)
		sc.epoch = make([]uint32, n)
		sc.cur = 0
	}
	sc.cur++
	if sc.cur == 0 { // epoch counter wrapped: stale marks would alias
		clear(sc.epoch)
		sc.cur = 1
	}
	sc.docs = sc.docs[:0]
	return sc
}

// Plan is one query prepared against this engine's index: the flattened
// leaves with their postings and local collection frequencies fetched, but
// not yet scored. Separating statistics gathering from scoring is the hook
// the sharded runtime (internal/shard) builds on: it plans the same leaves
// against every partition, sums each leaf's collection frequency across
// the partitions — exact integer addition, so order cannot perturb the
// result — and then scores every partition with the same global Stats,
// which makes partitioned scoring bit-identical to the single-index
// scorer.
type Plan struct {
	leaves   []Leaf
	postings [][]index.Posting
	// blocks[i] is the block table of a single-term leaf's list (nil for a
	// phrase and for a list of at most index.BlockSize postings).
	blocks  [][]index.Block
	localCF []int64
	// phraseScratch is reused across the plan's phrase leaves (and across
	// re-plans of a pooled Plan); the produced postings do not alias it.
	phraseScratch index.PhraseScratch
	// rows counts what the last SearchPlanInto of the plan read.
	rows int
}

// NumLeaves returns the number of scoring leaves in the plan.
func (p *Plan) NumLeaves() int { return len(p.leaves) }

// RowsRead returns how many postings and block-table entries the last
// SearchPlanInto of this plan read: the scorer's work in rows, which
// pruning brings down and a layout change leaves alone.
func (p *Plan) RowsRead() int { return p.rows }

// LocalCF returns this index's collection frequency of leaf i (for a
// phrase leaf, the occurrence count of the exact phrase in this index).
func (p *Plan) LocalCF(i int) int64 { return p.localCF[i] }

// PlanLeavesInto fetches the postings and local collection frequency of
// every leaf against this engine's index, reusing dst's storage (dst may
// be nil) — the allocation-free re-planning path a scatter caller takes
// when it plans the same leaves against many partition indexes per query.
// A term or phrase absent from the index plans as empty postings with
// zero frequency.
func (e *Engine) PlanLeavesInto(dst *Plan, leaves []Leaf) *Plan {
	p := dst
	if p == nil {
		p = &Plan{}
	}
	p.leaves = leaves
	if cap(p.postings) < len(leaves) {
		p.postings = make([][]index.Posting, len(leaves))
		p.blocks = make([][]index.Block, len(leaves))
		p.localCF = make([]int64, len(leaves))
	}
	p.postings = p.postings[:len(leaves)]
	p.blocks = p.blocks[:len(leaves)]
	p.localCF = p.localCF[:len(leaves)]
	for i, lf := range leaves {
		if len(lf.Terms) == 1 {
			p.postings[i], p.blocks[i], p.localCF[i] = e.ix.LookupBlocks(lf.Terms[0])
		} else {
			p.postings[i] = e.ix.PhrasePostingsScratch(lf.Terms, &p.phraseScratch)
			p.blocks[i] = nil
			p.localCF[i] = index.PostingsCollectionFreq(p.postings[i])
		}
	}
	return p
}

// release drops the plan's references into the index and to the caller's
// leaves, so a pooled plan pins neither.
func (p *Plan) release() {
	p.leaves = nil
	clear(p.postings)
	clear(p.blocks)
}

// Stats is the collection-statistics view the Dirichlet scorer smooths
// with. A nil *Stats means "this index is the whole collection": the
// engine's own token count and the plan's local frequencies.
type Stats struct {
	// TotalTokens is the collection length |C| the background model
	// divides by.
	TotalTokens int64
	// LeafCF is the collection frequency per scoring leaf, aligned with
	// the flattened leaf order; nil keeps the plan's local frequencies.
	LeafCF []int64
}

// Search evaluates the query and returns the top k documents by descending
// score, ties broken by ascending document ID for determinism. Only
// documents matching at least one leaf are candidates; k <= 0 returns all
// candidates ranked. A query with no matching documents returns an empty
// (non-nil) slice.
func (e *Engine) Search(q Node, k int) ([]Result, error) {
	leaves, err := Flatten(q)
	if err != nil {
		return nil, err
	}
	return e.SearchLeaves(leaves, k, nil)
}

// LeavesForQuery parses and flattens raw query text into scoring leaves,
// memoized in the engine's bounded LRU so repeated query strings skip the
// parse entirely (the steady-state serving case). The returned leaves are
// shared and must be treated as read-only; errors are never cached.
func (e *Engine) LeavesForQuery(query string) ([]Leaf, error) {
	if leaves, ok := e.leaves.get(query); ok {
		return leaves, nil
	}
	node, err := ParseQuery(query, e.an)
	if err != nil {
		return nil, err
	}
	leaves, err := Flatten(node)
	if err != nil {
		return nil, err
	}
	e.leaves.put(query, leaves)
	return leaves, nil
}

// SearchText evaluates raw query text under the Search contract, reusing
// dst's storage for the returned ranking (dst may be nil). With a warm
// leaves cache and a caller-pooled dst this path allocates nothing.
func (e *Engine) SearchText(query string, k int, dst []Result) ([]Result, error) {
	leaves, err := e.LeavesForQuery(query)
	if err != nil {
		return nil, err
	}
	return e.SearchLeaves(leaves, k, dst)
}

// SearchLeaves evaluates pre-flattened scoring leaves under the Search
// contract, reusing dst's storage for the returned ranking (dst may be
// nil). The plan is drawn from a pool, so repeated searches do not
// reallocate postings tables.
func (e *Engine) SearchLeaves(leaves []Leaf, k int, dst []Result) ([]Result, error) {
	p, _ := e.planPool.Get().(*Plan)
	p = e.PlanLeavesInto(p, leaves)
	rs, err := e.SearchPlanInto(p, k, nil, dst)
	p.leaves = nil // do not pin caller (or cached) leaves across pool reuse
	e.planPool.Put(p)
	return rs, err
}

// SearchPlanInto scores a planned query under the given collection
// statistics (nil = this index's own) and returns the top k under the
// Search contract, reusing dst's storage for the ranking (dst may be nil,
// in which case a fresh slice is allocated). The top-k heap itself lives
// in the engine's pooled scratch, so a caller that recycles dst completes
// the whole scoring pass without allocating. It records on p the rows it
// read (RowsRead), so one plan is scored by one goroutine at a time.
//
// The scorer is a doc-ordered accumulator merge: each leaf's postings are
// walked once, folding that leaf's contribution into a dense per-document
// accumulator. A document's Dirichlet query-likelihood score decomposes as
//
//	score(d) = Σ_l w_l·log(tf_l(d) + µ·pc_l) − (Σ_l w_l)·log(|d| + µ)
//
// so the merge accumulates the tf-dependent part only where tf > 0
// (scoreSums carries the tf = 0 baseline) and applies the length
// normalization once per candidate. Both logarithms range over a handful
// of inputs, so each is computed once per distinct input and read from a
// table afterwards —
// the same float64 a direct computation yields, hence the same scores.
// Ranking uses a bounded top-k heap instead of sorting every candidate.
// When the rest of the query provably outranks its longest term, that
// term's list is read lazily instead (searchLazy): the same ranking and
// the same scores from a fraction of the rows.
func (e *Engine) SearchPlanInto(p *Plan, k int, stats *Stats, dst []Result) ([]Result, error) {
	p.rows = 0
	totalTokens := e.ix.TotalTokens()
	leafCF := p.localCF
	if stats != nil {
		totalTokens = stats.TotalTokens
		if stats.LeafCF != nil {
			if len(stats.LeafCF) != len(p.leaves) {
				return nil, fmt.Errorf("search: stats carry %d leaf frequencies for %d plan leaves",
					len(stats.LeafCF), len(p.leaves))
			}
			leafCF = stats.LeafCF
		}
	}
	if e.ix.NumDocs() == 0 || totalTokens == 0 {
		return emptyResults(dst), nil
	}
	total := float64(totalTokens)

	sc := e.getScratch()
	defer e.scratch.Put(sc)
	var sums scoreSums
	sc.leaves = sc.leaves[:0]
	for i, lf := range p.leaves {
		muPc := e.mu * math.Max(float64(leafCF[i]), unseenFloor) / total
		logMuPc := math.Log(muPc)
		sums.zero += lf.Weight * logMuPc
		sums.weight += lf.Weight
		sc.leaves = append(sc.leaves, leafDelta{w: lf.Weight, muPc: muPc, logMuPc: logMuPc})
	}

	top := topK{k: k, h: sc.heap[:0]}
	if lazy := p.lazyLeaf(k); lazy < 0 || !e.searchLazy(p, sc, lazy, sums, &top) {
		e.searchAll(p, sc, sums, &top)
	}
	out := top.ranked()
	sc.heap = out[:0] // the drained heap's storage stays pooled
	if dst == nil {
		res := make([]Result, len(out))
		copy(res, out)
		return res, nil
	}
	return append(dst[:0], out...), nil
}

// searchAll walks every leaf's postings into the accumulators and ranks
// every document they reach. A top with k <= 0 ranks them all.
func (e *Engine) searchAll(p *Plan, sc *scorerScratch, sums scoreSums, top *topK) {
	acc, epoch, cur := sc.acc, sc.epoch, sc.cur
	for i, postings := range p.postings {
		ld := sc.leaves[i] // a local table: the loop below is the hot one
		for _, post := range postings {
			delta := ld.at(post.TF)
			if doc := post.Doc; epoch[doc] == cur {
				acc[doc] += delta
			} else {
				epoch[doc] = cur
				acc[doc] = delta
				sc.docs = append(sc.docs, doc)
			}
		}
		p.rows += len(postings)
	}
	if top.k <= 0 {
		top.k = len(sc.docs)
	}
	docLens := e.ix.DocLens()
	for _, doc := range sc.docs {
		if r := (Result{Doc: doc, Score: sums.of(acc[doc], sc.normOf(docLens[doc], e.mu))}); top.beats(r) {
			top.keep(r)
		}
	}
}

// lazyLeaf picks the leaf searchLazy may read lazily: the longest
// single-term list with a block table, when reading it at the other
// leaves' documents — twice their postings, a binary search for a block
// and then for a posting per document, and one pass over the block table
// — reads fewer rows than walking it does. It returns -1 when there is
// none, or when k <= 0 asks for every document anyway.
func (p *Plan) lazyLeaf(k int) int {
	lazy := -1
	for i, bl := range p.blocks {
		if bl != nil && (lazy < 0 || len(p.postings[i]) > len(p.postings[lazy])) {
			lazy = i
		}
	}
	if k <= 0 || lazy < 0 {
		return -1
	}
	rest := 0
	for i, postings := range p.postings {
		if i != lazy {
			rest += len(postings)
		}
	}
	blocks := len(p.blocks[lazy])
	seek := bits.Len(uint(blocks)) + bits.Len(index.BlockSize-1)
	if blocks+rest*(1+seek) >= len(p.postings[lazy]) {
		return -1
	}
	return lazy
}

// searchLazy ranks the plan's top k reading leaf lazy only where it can
// matter. Every other leaf is essential, and the documents they match are
// the candidates C. A document matching the lazy leaf alone scores at most
// hi = of(d_lazy(the list's largest TF), log(its shortest document + µ)),
// both read off its block table, and a candidate at least lo = of(the
// least d_l(1) of the essential leaves with postings, log(the index's
// longest document + µ)), because every d is ≥ 0 and nondecreasing in tf,
// a float sum of nonnegative terms is at least each of them, and of is
// monotone. So when hi < lo every candidate strictly outranks every
// lazy-only document, and:
//
//   - C is marked first, then every leaf is folded in leaf order — the
//     essential ones walk their postings, the lazy one is sought by block at
//     C's sorted documents — so a candidate's accumulator adds the same
//     values in the same order as searchAll's, and its score is ==;
//   - if |C| < k the heap is finished from the lazy list in doc order,
//     skipping the documents of C (already ranked) and every block whose
//     best possible score is ≤ the heap's worst once it is full. "≤" is
//     exact: a full heap holding fewer than k candidates has a lazy-only
//     document as its worst entry, admitted earlier in doc order, so a
//     later document that ties it loses on doc id.
//
// It returns false, having ranked nothing, when hi < lo does not hold.
func (e *Engine) searchLazy(p *Plan, sc *scorerScratch, lazy int, sums scoreSums, top *topK) bool {
	posts, blocks := p.postings[lazy], p.blocks[lazy]
	lz := &sc.leaves[lazy]
	var maxTF uint32
	minDL := int64(math.MaxInt64)
	for _, b := range blocks {
		maxTF, minDL = max(maxTF, b.MaxTF), min(minDL, b.MinDL)
	}
	p.rows += len(blocks)
	least := math.Inf(1) // no essential postings: nothing to outrank
	for i := range p.leaves {
		if i != lazy && len(p.postings[i]) > 0 {
			least = min(least, sc.leaves[i].at(1))
		}
	}
	if !(sums.of(lz.at(maxTF), sc.normOf(minDL, e.mu)) < sums.of(least, sc.normOf(e.ix.MaxDocLen(), e.mu))) {
		return false
	}

	acc, epoch, cur := sc.acc, sc.epoch, sc.cur
	for i, postings := range p.postings {
		if i == lazy {
			continue
		}
		for _, post := range postings {
			if doc := post.Doc; epoch[doc] != cur {
				epoch[doc] = cur
				acc[doc] = 0
				sc.docs = append(sc.docs, doc)
			}
		}
		p.rows += len(postings)
	}
	slices.Sort(sc.docs)
	for i, postings := range p.postings {
		if i == lazy {
			p.rows += seekFold(acc, sc.docs, posts, blocks, lz)
			continue
		}
		ld := &sc.leaves[i]
		for _, post := range postings {
			acc[post.Doc] += ld.at(post.TF)
		}
		p.rows += len(postings)
	}

	docLens := e.ix.DocLens()
	for _, doc := range sc.docs {
		if r := (Result{Doc: doc, Score: sums.of(acc[doc], sc.normOf(docLens[doc], e.mu))}); top.beats(r) {
			top.keep(r)
		}
	}
	if len(top.h) == top.k {
		return true
	}
	for b, blk := range blocks {
		p.rows++
		if len(top.h) == top.k && sums.of(lz.at(blk.MaxTF), sc.normOf(blk.MinDL, e.mu)) <= top.h[0].Score {
			continue
		}
		block := posts[b*index.BlockSize : min((b+1)*index.BlockSize, len(posts))]
		for _, post := range block {
			if doc := post.Doc; epoch[doc] != cur {
				if r := (Result{Doc: doc, Score: sums.of(lz.at(post.TF), sc.normOf(docLens[doc], e.mu))}); top.beats(r) {
					top.keep(r)
				}
			}
		}
		p.rows += len(block)
	}
	return true
}

// seekFold adds the lazy leaf's delta to the accumulator of every document
// of docs (ascending) that its list holds, and returns the rows it read.
// Each document is found from where the previous one was: in the same
// block when its last doc is not below this one, else by a binary search
// over the blocks after it, then by a branch-free binary search over the
// rest of the block.
func seekFold(acc []float64, docs []int32, posts []index.Posting, blocks []index.Block, ld *leafDelta) int {
	rows, b, at := 0, 0, 0 // at: the first posting of block b not below the previous doc
	for _, doc := range docs {
		rows++
		if blocks[b].LastDoc < doc {
			lo, hi := b+1, len(blocks)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				rows++
				if blocks[mid].LastDoc < doc {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if b = lo; b == len(blocks) {
				break
			}
			at = b * index.BlockSize
		}
		// The block's last doc is not below doc, so the search ends inside it.
		rest := posts[at:min((b+1)*index.BlockSize, len(posts))]
		i := 0
		for n := len(rest); n > 1; {
			half := n >> 1
			if rest[i+half-1].Doc < doc {
				i += half
			}
			n -= half
		}
		rows += bits.Len(uint(len(rest)-1)) + 1
		if at += i; posts[at].Doc == doc {
			acc[doc] += ld.at(posts[at].TF)
		}
	}
	return rows
}

// emptyResults is the no-candidates ranking under the Search contract: an
// empty, non-nil slice, reusing dst's storage when the caller supplied one.
func emptyResults(dst []Result) []Result {
	if dst != nil {
		return dst[:0]
	}
	return []Result{}
}

// Docs extracts the document IDs of results in rank order.
func Docs(rs []Result) []int32 {
	out := make([]int32, len(rs))
	for i, r := range rs {
		out[i] = r.Doc
	}
	return out
}
