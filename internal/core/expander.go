package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/querygraph/querygraph/internal/cycles"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/trace"
)

// ExpanderOptions tune the online cycle-based expansion engine. The
// defaults encode the paper's findings: cycles up to length 5, preferring
// dense cycles whose category ratio sits around 30%.
type ExpanderOptions struct {
	// MaxCycleLen caps cycle enumeration (default 5).
	MaxCycleLen int
	// Radius is the BFS neighborhood radius around the query entities that
	// bounds the candidate graph (default 2; the paper observes expansion
	// features up to distance 3, which a radius-2 ball around *all* query
	// articles covers in practice).
	Radius int
	// MaxNeighborhood caps the candidate graph's node count to keep
	// enumeration real-time (default 400, about twice the paper's average
	// query-graph size; at most cycles.MaxViewNodes).
	MaxNeighborhood int
	// MinCategoryRatio / MaxCategoryRatio bound the category ratio of
	// accepted cycles of length >= 3 (defaults 0.2 and 0.5: "around the
	// 30%"). Category-free cycles such as the paper's sheep–quarantine–
	// anthrax triangle are rejected by the lower bound.
	MinCategoryRatio, MaxCategoryRatio float64
	// MinDensity is the minimum density of extra edges for cycles of
	// length >= 4 (default 0.25; length-3 cycles have little room for
	// extra edges, so the category-ratio filter does the work there). 0
	// disables the filter.
	MinDensity float64
	// MaxFeatures caps the returned expansion features (default 10).
	MaxFeatures int
	// KeepTwoCycles keeps reciprocal-link pairs regardless of filters
	// (default true; the paper finds them scarce but highest-contributing).
	KeepTwoCycles bool
	// RankByFrequency ranks candidate features by the number of accepted
	// cycles that contain them (ties broken by the cycle-order rank)
	// instead of purely by cycle order. This implements the correlation
	// the paper's Section 4 leaves as future work: "how the frequency of a
	// given article in the cycles and the goodness of its title as
	// expansion feature are correlated".
	RankByFrequency bool
	// IncludeRedirectAliases additionally emits the redirect titles of
	// each selected feature as secondary features (sharing the feature's
	// provenance). The paper's Section 4 proposes studying redirects as
	// expansion features, noting they can never be found through cycles
	// themselves because a redirect cannot close a cycle.
	IncludeRedirectAliases bool
}

// DefaultExpanderOptions returns the paper-tuned defaults — the only
// source of defaults there is: the zero value of ExpanderOptions is not a
// usable configuration, and Expand rejects it.
func DefaultExpanderOptions() ExpanderOptions {
	return ExpanderOptions{
		MaxCycleLen:      5,
		Radius:           2,
		MaxNeighborhood:  400,
		MinCategoryRatio: 0.2,
		MaxCategoryRatio: 0.5,
		MinDensity:       0.25,
		MaxFeatures:      10,
		KeepTwoCycles:    true,
	}
}

// Validate rejects values no expansion can run under. Nothing is
// substituted: every field means what it says, zero included. The float
// bounds are written so that NaN fails them: a NaN bound would pass every
// cycle, and as a cache key it would never be found again.
func (o ExpanderOptions) Validate() error {
	switch {
	case o.MaxCycleLen < 2 || o.MaxCycleLen > cycles.MaxSupportedLength:
		return fmt.Errorf("core: max cycle length %d outside [2, %d]", o.MaxCycleLen, cycles.MaxSupportedLength)
	case o.Radius < 1 || o.MaxNeighborhood < 1 || o.MaxFeatures < 1:
		return fmt.Errorf("core: radius %d, max neighborhood %d and max features %d must all be >= 1",
			o.Radius, o.MaxNeighborhood, o.MaxFeatures)
	case o.MaxNeighborhood > cycles.MaxViewNodes:
		return fmt.Errorf("core: max neighborhood %d above %d", o.MaxNeighborhood, cycles.MaxViewNodes)
	case !(o.MinCategoryRatio >= 0 && o.MaxCategoryRatio <= 1 && o.MinCategoryRatio <= o.MaxCategoryRatio):
		return fmt.Errorf("core: invalid category ratio band [%g, %g]", o.MinCategoryRatio, o.MaxCategoryRatio)
	case !(o.MinDensity >= 0 && o.MinDensity <= 1):
		return fmt.Errorf("core: min density %g outside [0, 1]", o.MinDensity)
	}
	return nil
}

// Accepts reports whether a mined cycle passes the structural filters:
// a 2-cycle when KeepTwoCycles is set; a longer one when its category
// ratio is inside the band and, from length 4 on, its extra-edge density
// reaches MinDensity. It is the expander's cycles.Miner Keep.
func (o ExpanderOptions) Accepts(m cycles.Metrics) bool {
	switch {
	case m.Length == 2:
		return o.KeepTwoCycles
	case m.CategoryRatio < o.MinCategoryRatio || m.CategoryRatio > o.MaxCategoryRatio:
		return false
	case m.Length >= 4 && m.ExtraEdgeDensity < o.MinDensity:
		return false
	}
	return true
}

// Feature is one proposed expansion feature with its provenance.
type Feature struct {
	Node  graph.NodeID `json:"-"`
	Title string       `json:"title"`
	// CycleLen, Density and CategoryRatio describe the best (densest)
	// accepted cycle that introduced the feature.
	CycleLen      int     `json:"cycle_len"`
	Density       float64 `json:"density"`
	CategoryRatio float64 `json:"category_ratio"`
}

// Expansion is the result of expanding one query.
type Expansion struct {
	Keywords      string
	QueryArticles []graph.NodeID
	Features      []Feature
	// CyclesConsidered counts every cycle of up to MaxCycleLen nodes
	// through a query article. CyclesAccepted counts those of them that
	// passed the structural filters among the lengths measured. The
	// lengths up to 3 are always measured at MaxCycleLen 4 and 5, and those
	// below MaxCycleLen at the others; a longer one only when the shorter
	// cycles leave the ranking, which reads the lengths shortest first,
	// room for a feature. Under RankByFrequency every length is measured.
	CyclesConsidered, CyclesAccepted int
}

// FeatureTitles lists the feature titles in rank order.
func (e *Expansion) FeatureTitles() []string {
	out := make([]string, len(e.Features))
	for i, f := range e.Features {
		out[i] = f.Title
	}
	return out
}

// Query builds the expanded search query: exact phrases for the query
// entities and every feature, or ok=false when nothing is expandable. An
// expansion that names an article s's graph does not have is an error.
func (e *Expansion) Query(s *System) (search.Node, bool, error) {
	arts := append([]graph.NodeID{}, e.QueryArticles...)
	for _, f := range e.Features {
		arts = append(arts, f.Node)
	}
	return s.TitleQuery(e.Keywords, arts)
}

// MinedCycle is one cycle of a query's subgraph with the Section 3
// measurements taken on it — the unit both the offline analysis and the
// online expander reason about.
type MinedCycle struct {
	// Cycle holds the cycle's nodes as ids of the parent graph.
	Cycle   cycles.Cycle
	Metrics cycles.Metrics
	// Articles are the cycle's article nodes, ascending: the expansion
	// features it proposes.
	Articles []graph.NodeID
}

// positions returns where the query articles stand in nodes, an
// ascending list of graph ids, as seeds of a miner built on that list —
// never nil, which the miner reads as "every cycle": with no query article
// in the list there is no cycle through one.
func positions(nodes, queryArticles []graph.NodeID) []graph.NodeID {
	seeds := make([]graph.NodeID, 0, len(queryArticles))
	for _, qa := range queryArticles {
		if i, ok := slices.BinarySearch(nodes, qa); ok {
			seeds = append(seeds, graph.NodeID(i))
		}
	}
	return seeds
}

// expired is ctx.Err, except that a ctx whose deadline the clock has
// passed is expired already, before the runtime's timer fires and ctx.Err
// says so: a walk that would end between the two must not answer as if in
// time. A ctx without a deadline costs no clock read.
func expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if deadline, ok := ctx.Deadline(); ok && !time.Now().Before(deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// errStopped ends a walk whose consumer stopped listening.
var errStopped = errors.New("core: cycle walk stopped")

// MineCycles yields the cycles of the subgraph of g that nodes (ascending
// ids of g) induce, up to analysisMaxLen edges, that pass through one of
// the query articles (those outside nodes are ignored), each measured and
// the caller's to keep, in walk order: deterministic, but a caller that
// wants a stated order sorts. Redirect edges never take part: a redirect
// cannot close a cycle. A failure — ctx.Err() when ctx ends mid-walk — is
// yielded once, as the last pair.
func MineCycles(ctx context.Context, g *graph.Graph, nodes, queryArticles []graph.NodeID) iter.Seq2[MinedCycle, error] {
	return func(yield func(MinedCycle, error) bool) {
		miner := cycles.NewMiner(g, nodes, graph.ExcludeRedirects)
		defer miner.Release()
		miner.Poll = func() error { return expired(ctx) }
		err := miner.Walk(positions(nodes, queryArticles), analysisMaxLen, func(m cycles.Metrics) error {
			c := miner.Cycle()
			n := len(c.Nodes)
			buf := make([]graph.NodeID, n, 2*n) // the nodes, then the articles
			for j, v := range c.Nodes {
				buf[j] = nodes[v]
			}
			buf = cycles.AppendArticles(buf, g, cycles.Cycle{Nodes: buf[:n]})
			if !yield(MinedCycle{Cycle: cycles.Cycle{Nodes: buf[:n:n]}, Metrics: m, Articles: buf[n:]}, nil) {
				return errStopped
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStopped) {
			yield(MinedCycle{}, err)
		}
	}
}

// accepted holds the cycles of one expansion that passed the filters:
// their nodes back to back, and one record per cycle under its length. The
// walk stores each cycle's miner path as it closes; the ranker turns the
// cycles of a length it reads into graph ids and then canonical form (by
// graph id: the miner's ids are walk order) just before it sorts them.
// seen is a bitset over the miner's nodes for leavesRoom. Pooled: an
// expansion accepts hundreds.
type accepted struct {
	nodes []graph.NodeID
	byLen [cycles.MaxSupportedLength + 1][]acceptedCycle
	seen  []uint64
}

// leavesRoom reports whether the ranking, which takes features from the
// accepted cycles shortest first, would read cycles longer than the
// lengths measured so far: the cycles accepted among those lengths hold
// fewer than maxFeatures distinct articles that are not query articles,
// which are the miner's first seeds view ids.
func (acc *accepted) leavesRoom(miner *cycles.Miner, seeds, maxFeatures int) bool {
	words := (miner.Len() + 63) / 64
	acc.seen = slices.Grow(acc.seen[:0], words)[:words]
	clear(acc.seen)
	distinct := 0
	for length, byLen := range acc.byLen {
		for _, a := range byLen {
			for _, v := range acc.nodes[a.start : a.start+length] {
				w, bit := v>>6, uint64(1)<<(v&63)
				if acc.seen[w]&bit != 0 || miner.Kind(v) != graph.Article || int(v) < seeds {
					continue
				}
				acc.seen[w] |= bit
				if distinct++; distinct >= maxFeatures {
					return false
				}
			}
		}
	}
	return true
}

// firstMeasured is the longest length the first walk of an expansion under
// opts measures: every length under frequency rank, which reads them all;
// otherwise the longest length without a count that spares the walk its
// search — 3 at MaxCycleLen 4 and 5, whose 4- and 5-cycles the walk counts
// per seed in closed form, and MaxCycleLen−1 at the others, whose longest
// cycles it counts a closers word at a time at the last level.
func firstMeasured(opts ExpanderOptions) int {
	switch {
	case opts.RankByFrequency || opts.MaxCycleLen == 2:
		return opts.MaxCycleLen
	case opts.MaxCycleLen == 4 || opts.MaxCycleLen == 5:
		return 3
	}
	return opts.MaxCycleLen - 1
}

// acceptedCycle is one accepted cycle: where its nodes start, and the two
// measurements a feature it introduces reports.
type acceptedCycle struct {
	start          int
	density, ratio float64
}

var acceptedPool = sync.Pool{New: func() any { return new(accepted) }}

// Expand runs the online pipeline of the paper's conclusions: entity-link
// the keywords, induce the Wikipedia neighborhood of the entities, mine
// cycles containing an entity, keep the structurally promising cycles
// (dense, category ratio around 30%), and rank the articles they introduce.
//
// Results are memoized per (keywords, options) in the system's sharded LRU
// cache (see WithExpandCache), so repeated keywords hit memory; concurrent
// cold misses on the same key may each run the pipeline and store equal
// entries. The returned Expansion may be shared with the cache and other
// callers and must be treated as read-only.
//
// A ctx that is already done returns ctx.Err() without touching the
// pipeline or the cache; a ctx that ends during the caller's own pipeline
// run stops that run — between phases, and every few hundred cycles inside
// the enumeration and the rank — and returns ctx.Err() with nothing cached.
func (s *System) Expand(ctx context.Context, keywords string, opts ExpanderOptions) (*Expansion, error) {
	exp, _, err := s.ExpandOutcome(ctx, keywords, opts)
	return exp, err
}

// ExpandOutcome is Expand plus the per-request cache outcome (hit, miss, or
// bypass when caching is disabled) — the form the instrumented public
// facade calls so observers can label each request.
func (s *System) ExpandOutcome(ctx context.Context, keywords string, opts ExpanderOptions) (*Expansion, CacheOutcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, CacheBypass, err
	}
	if err := opts.Validate(); err != nil {
		return nil, CacheBypass, err
	}
	key := expandKey{keywords: keywords, opts: opts}
	return s.expandCache.getOrDo(key, func() (*Expansion, error) {
		return s.expand(ctx, keywords, opts)
	})
}

// expand is the uncached expansion pipeline behind Expand; opts have
// already been validated. A traced request gets one span per phase, and a
// ctx that ends stops the run at the next phase boundary, miner poll or
// rank poll.
func (s *System) expand(ctx context.Context, keywords string, opts ExpanderOptions) (*Expansion, error) {
	s.expandCalls.Add(1)
	// Untraced requests skip the clock reads; see poolGeneration.parse.
	tr := trace.FromContext(ctx)
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	// phase ends one phase: its span is recorded, with the detail given,
	// and a ctx that has ended meanwhile ends the run. A detail is
	// formatted only for a traced request.
	phase := func(name, detail string) error {
		if tr != nil {
			tr.Add(name, t0, -1, 0, false, "", detail)
			t0 = time.Now()
		}
		return expired(ctx)
	}

	queryArts := s.LinkKeywords(keywords)
	if err := phase("expand.link", ""); err != nil {
		return nil, err
	}
	exp := &Expansion{Keywords: keywords, QueryArticles: queryArts}
	if len(queryArts) == 0 {
		return exp, nil // nothing to anchor on; expansion is a no-op
	}

	// The candidate graph: the nearest MaxNeighborhood nodes of the
	// radius-bounded ball around the query articles, walked into the
	// miner's node list, and then the view of the subgraph it induces, read
	// straight from g. View ids are walk order: the query articles in the
	// ball lead, and they are the walk's seeds.
	g := s.Snapshot.Graph()
	miner := cycles.NewBallMiner(g, queryArts, opts.Radius, opts.MaxNeighborhood, graph.ExcludeRedirects)
	defer miner.Release()
	if err := phase("expand.ball", ""); err != nil {
		return nil, err
	}
	miner.Induce()
	nodes, seeds := miner.Nodes(), miner.Sources()
	var detail string
	if tr != nil {
		detail = "nodes=" + strconv.Itoa(len(nodes))
	}
	if err := phase("expand.induce", detail); err != nil {
		return nil, err
	}

	// Mine: the walk filters each cycle through a query article as it
	// closes it, on the Metrics it kept along its path, and hands over only
	// the accepted ones, which are kept by length. The ranking reads the
	// lengths shortest first and, unless it counts frequencies, a length
	// only when the shorter ones leave room for a feature; so the first
	// walk measures the lengths up to firstMeasured and counts the longer
	// ones without listing them, and each later walk, while the cycles kept
	// leave that room, measures and keeps the next length alone.
	acc := acceptedPool.Get().(*accepted)
	defer acceptedPool.Put(acc)
	acc.nodes = acc.nodes[:0]
	for i := range acc.byLen {
		acc.byLen[i] = acc.byLen[i][:0]
	}
	visit := func(m cycles.Metrics) error {
		exp.CyclesAccepted++
		acc.byLen[m.Length] = append(acc.byLen[m.Length], acceptedCycle{len(acc.nodes), m.ExtraEdgeDensity, m.CategoryRatio})
		acc.nodes = append(acc.nodes, miner.Path()...)
		return nil
	}
	measured := firstMeasured(opts)
	miner.Poll = func() error { return expired(ctx) }
	miner.Keep, miner.Measure = opts.Accepts, measured
	err := miner.Walk(seeds, opts.MaxCycleLen, visit)
	exp.CyclesConsidered = miner.Found
	miner.Measure = 0
	for err == nil && measured < opts.MaxCycleLen && acc.leavesRoom(miner, len(seeds), opts.MaxFeatures) {
		length := measured + 1
		miner.Keep = func(m cycles.Metrics) bool { return m.Length == length && opts.Accepts(m) }
		err, measured = miner.Walk(seeds, length, visit), length
	}
	if err != nil {
		return nil, fmt.Errorf("core: expand: %w", err)
	}
	if tr != nil {
		detail = "considered=" + strconv.Itoa(exp.CyclesConsidered) + " accepted=" + strconv.Itoa(exp.CyclesAccepted) +
			" measured=" + strconv.Itoa(measured)
	}
	if err := phase("expand.mine", detail); err != nil {
		return nil, err
	}

	// Rank: shorter cycles first (they define the user need best), then
	// denser cycles. Candidate features are collected in that order with
	// the number of accepted cycles that contain each; a feature belongs to
	// the first cycle that holds it, so a length is canonicalised and sorted
	// only when the shorter ones left room for a candidate, or every cycle
	// must be counted. The rank asks ctx before each length and once per
	// 256 cycles it reads, as the miner does.
	//
	// ordered is sized once for the most it can hold: every ball node under
	// frequency rank, and otherwise MaxFeatures and the rest of the cycle
	// that reached it.
	size := len(nodes)
	if !opts.RankByFrequency && opts.MaxFeatures < size {
		size = min(size, opts.MaxFeatures+opts.MaxCycleLen)
	}
	ordered := make([]Feature, 0, size)     // by first appearance in cycle rank order
	frequency := make(map[graph.NodeID]int) // per feature, the accepted cycles among those ranked that hold it
	var arts [cycles.MaxSupportedLength]graph.NodeID
	wanted := func() bool { return opts.RankByFrequency || len(ordered) < opts.MaxFeatures }
	for length := 2; length <= opts.MaxCycleLen && wanted(); length++ {
		if err := expired(ctx); err != nil {
			return nil, err
		}
		nodesOf := func(a acceptedCycle) []graph.NodeID { return acc.nodes[a.start : a.start+length] }
		for _, a := range acc.byLen[length] {
			c := nodesOf(a)
			for i, v := range c {
				c[i] = nodes[v]
			}
			cycles.Canonicalize(c)
		}
		slices.SortFunc(acc.byLen[length], func(a, b acceptedCycle) int {
			if c := cmp.Compare(b.density, a.density); c != 0 {
				return c
			}
			return slices.Compare(nodesOf(a), nodesOf(b))
		})
		for i := 0; i < len(acc.byLen[length]) && wanted(); i++ {
			if i%256 == 255 {
				if err := expired(ctx); err != nil {
					return nil, err
				}
			}
			k := acc.byLen[length][i]
			for _, n := range cycles.AppendArticles(arts[:0], g, cycles.Cycle{Nodes: nodesOf(k)}) {
				if slices.Contains(queryArts, n) {
					continue // asked for, not proposed
				}
				if frequency[n]++; frequency[n] > 1 {
					continue // proposed already
				}
				ordered = append(ordered, Feature{
					Node:          n,
					Title:         s.Snapshot.Name(n),
					CycleLen:      length,
					Density:       k.density,
					CategoryRatio: k.ratio,
				})
			}
		}
	}
	if opts.RankByFrequency {
		// Stable: ties keep the cycle-order rank.
		slices.SortStableFunc(ordered, func(a, b Feature) int { return cmp.Compare(frequency[b.Node], frequency[a.Node]) })
	}
	if len(ordered) > 0 { // sized for the ranked features: redirect aliases may grow it
		exp.Features = make([]Feature, 0, min(opts.MaxFeatures, len(ordered)))
	}
	for _, f := range ordered {
		if len(exp.Features) >= opts.MaxFeatures {
			break
		}
		exp.Features = append(exp.Features, f)
		if opts.IncludeRedirectAliases {
			for _, r := range s.Snapshot.RedirectsTo(f.Node) {
				if len(exp.Features) >= opts.MaxFeatures {
					break
				}
				alias := f
				alias.Node = r
				alias.Title = s.Snapshot.Name(r)
				exp.Features = append(exp.Features, alias)
			}
		}
	}
	if err := phase("expand.rank", ""); err != nil {
		return nil, err
	}
	return exp, nil
}

// ExpandNaive is the ablation baseline in the style of the individual-link
// approaches the paper contrasts with ([1, 2, 3] in its related work): the
// features are simply the articles directly linked from or to the query
// entities, ranked by how many query entities they touch, without any
// structural analysis. A done ctx returns ctx.Err() before any work.
func (s *System) ExpandNaive(ctx context.Context, keywords string, maxFeatures int) (*Expansion, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if maxFeatures <= 0 {
		maxFeatures = 10
	}
	queryArts := s.LinkKeywords(keywords)
	exp := &Expansion{Keywords: keywords, QueryArticles: queryArts}
	g := s.Snapshot.Graph()
	inQuery := make(map[graph.NodeID]struct{}, len(queryArts))
	for _, qa := range queryArts {
		inQuery[qa] = struct{}{}
	}
	votes := make(map[graph.NodeID]int)
	onlyLinks := func(k graph.EdgeKind) bool { return k != graph.Link }
	for _, qa := range queryArts {
		for _, nb := range g.Neighbors(qa, onlyLinks) {
			if _, isQ := inQuery[nb]; !isQ {
				votes[nb]++
			}
		}
	}
	type cand struct {
		id graph.NodeID
		v  int
	}
	ranked := make([]cand, 0, len(votes))
	for id, v := range votes {
		ranked = append(ranked, cand{id, v})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].v != ranked[j].v {
			return ranked[i].v > ranked[j].v
		}
		return ranked[i].id < ranked[j].id
	})
	for _, c := range ranked {
		exp.Features = append(exp.Features, Feature{
			Node:  c.id,
			Title: s.Snapshot.Name(c.id),
		})
		if len(exp.Features) >= maxFeatures {
			break
		}
	}
	return exp, nil
}
