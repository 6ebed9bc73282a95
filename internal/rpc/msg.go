package rpc

import (
	"slices"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/search"
)

// This file holds the message bodies both endpoints speak: the shard
// identity handshake, the plan/top-k query union, expansion payloads, the
// replicated benchmark and the stats summary. Encoders and decoders live
// side by side so a field added to one cannot be forgotten in the other.
//
// Nil-ness of slices is preserved with a presence byte wherever the
// public conformance contract compares decoded structs with
// reflect.DeepEqual (an Expansion's QueryArticles and Features, a
// benchmark query's Relevant): a nil slice must come back nil, an empty
// one empty.

// Identity is the shard's partition identity. The coordinator handshakes
// every shard with OpHealthz and refuses topologies whose shards disagree
// — the network analogue of shard.Load's cross-validation.
type Identity struct {
	ShardID      int
	ShardCount   int
	GlobalDocs   int
	GlobalTokens int64
	LocalDocs    int
	NumQueries   int
}

// AppendIdentity encodes an OpHealthz response body.
func AppendIdentity(b []byte, id Identity) []byte {
	b = AppendUvarint(b, uint64(id.ShardID))
	b = AppendUvarint(b, uint64(id.ShardCount))
	b = AppendUvarint(b, uint64(id.GlobalDocs))
	b = AppendUvarint(b, uint64(id.GlobalTokens))
	b = AppendUvarint(b, uint64(id.LocalDocs))
	return AppendUvarint(b, uint64(id.NumQueries))
}

// ReadIdentity decodes an OpHealthz response body.
func ReadIdentity(r *Reader) Identity {
	return Identity{
		ShardID:      r.Int(),
		ShardCount:   r.Int(),
		GlobalDocs:   r.Int(),
		GlobalTokens: int64(r.Uvarint()),
		LocalDocs:    r.Int(),
		NumQueries:   r.Int(),
	}
}

// --- query union -------------------------------------------------------

// AppendTextQuery encodes the plan/top-k query union's raw-text arm.
func AppendTextQuery(b []byte, query string) []byte {
	b = append(b, QueryText)
	return AppendString(b, query)
}

// AppendExpansionQuery encodes the union's expansion arm: the keywords
// plus the combined article list (query articles, then feature nodes) —
// everything a shard needs to rebuild the expanded title query on its
// replicated graph.
func AppendExpansionQuery(b []byte, exp *core.Expansion) []byte {
	b = append(b, QueryExpansion)
	b = AppendString(b, exp.Keywords)
	b = AppendUvarint(b, uint64(len(exp.QueryArticles)+len(exp.Features)))
	for _, a := range exp.QueryArticles {
		b = AppendUvarint(b, uint64(a))
	}
	for _, f := range exp.Features {
		b = AppendUvarint(b, uint64(f.Node))
	}
	return b
}

// ReadQueryLeaves decodes the query union against a serving system and
// derives the scoring leaves. ok=false means the query is valid but has
// nothing to search for (an empty expansion). A parse failure returns a
// RemoteError of class invalid_query; a malformed body, class internal.
func ReadQueryLeaves(r *Reader, sys *core.System) (leaves []search.Leaf, ok bool, rerr *RemoteError) {
	switch kind := r.Byte(); kind {
	case QueryText:
		text := r.String()
		if rerr := malformed(r.Err()); rerr != nil {
			return nil, false, rerr
		}
		leaves, err := sys.Engine.LeavesForQuery(text)
		if err != nil {
			return nil, false, &RemoteError{Class: ClassInvalidQuery, Msg: err.Error()}
		}
		return leaves, true, nil
	case QueryExpansion:
		keywords := r.String()
		n := r.Count(1)
		arts := make([]graph.NodeID, 0, n)
		for i := 0; i < n; i++ {
			arts = append(arts, graph.NodeID(r.Uvarint()))
		}
		if rerr := malformed(r.Err()); rerr != nil {
			return nil, false, rerr
		}
		exp := &core.Expansion{Keywords: keywords, QueryArticles: arts}
		node, searchable, err := exp.Query(sys)
		if err != nil {
			return nil, false, &RemoteError{Class: ClassInvalidQuery, Msg: err.Error()}
		}
		if !searchable {
			return nil, false, nil
		}
		leaves, err := search.Flatten(node)
		if err != nil {
			return nil, false, &RemoteError{Class: ClassInternal, Msg: err.Error()}
		}
		return leaves, true, nil
	default:
		return nil, false, &RemoteError{Class: ClassInternal, Msg: "unknown query kind"}
	}
}

// ReadQueryBytes consumes the query union r is positioned at without
// deriving anything from it and returns its bytes — what a connection's
// plan memo is keyed by.
func ReadQueryBytes(r *Reader) []byte {
	union := r.Rest()
	switch kind := r.Byte(); kind {
	case QueryText:
		r.Bytes(r.Len())
	case QueryExpansion:
		r.Bytes(r.Len())
		for n := r.Count(1); n > 0; n-- {
			r.Uvarint()
		}
	default:
		r.Failf("unknown query kind %d", kind)
	}
	return union[:len(union)-len(r.Rest())]
}

// --- scatter phases ----------------------------------------------------

// AppendPlanReply encodes an OpPlan response body: [searchable byte]
// [uvarint numLeaves][uvarint local cf]... — a nil plan is searchable 0,
// an empty expansion with nothing to search for.
func AppendPlanReply(b []byte, plan *search.Plan) []byte {
	if plan == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = AppendUvarint(b, uint64(plan.NumLeaves()))
	for i := 0; i < plan.NumLeaves(); i++ {
		b = AppendUvarint(b, uint64(plan.LocalCF(i)))
	}
	return b
}

// ReadPlanReply decodes AppendPlanReply, the frequencies into dst's
// storage.
func ReadPlanReply(r *Reader, dst []int64) (localCF []int64, searchable bool) {
	if r.Byte() == 0 {
		return dst[:0], false
	}
	return readCFs(r, dst), true
}

// AppendTopKRequest encodes an OpTopK request body: the query union's
// bytes, zigzag k, uvarint global tokens, then the global per-leaf
// collection frequencies as [uvarint numLeaves][uvarint cf]...
func AppendTopKRequest(b, query []byte, k int, totalTokens int64, leafCF []int64) []byte {
	b = append(b, query...)
	b = AppendVarint(b, int64(k))
	b = AppendUvarint(b, uint64(totalTokens))
	b = AppendUvarint(b, uint64(len(leafCF)))
	for _, cf := range leafCF {
		b = AppendUvarint(b, uint64(cf))
	}
	return b
}

// ReadTopKRequest decodes what follows the query union in an OpTopK
// request body.
func ReadTopKRequest(r *Reader) (k int, totalTokens int64, leafCF []int64) {
	return int(r.Varint()), int64(r.Uvarint()), readCFs(r, nil)
}

func readCFs(r *Reader, dst []int64) []int64 {
	n := r.Count(1)
	dst = slices.Grow(dst[:0], n)
	for i := 0; i < n; i++ {
		dst = append(dst, int64(r.Uvarint()))
	}
	return dst
}

// AppendTopKReply encodes an OpTopK response body: [searchable byte]
// [results], the results only when searchable.
func AppendTopKReply(b []byte, rs []search.Result, searchable bool) []byte {
	if !searchable {
		return append(b, 0)
	}
	return AppendResults(append(b, 1), rs)
}

// ReadTopKReply decodes AppendTopKReply.
func ReadTopKReply(r *Reader) (rs []search.Result, searchable bool) {
	if r.Byte() == 0 {
		return nil, false
	}
	return ReadResults(r), true
}

// --- expander options --------------------------------------------------

// AppendExpanderOptions encodes the full option set, so the shard expands
// under exactly the coordinator's normalized options (cache keys on both
// ends agree).
func AppendExpanderOptions(b []byte, o core.ExpanderOptions) []byte {
	b = AppendVarint(b, int64(o.MaxCycleLen))
	b = AppendVarint(b, int64(o.Radius))
	b = AppendVarint(b, int64(o.MaxNeighborhood))
	b = AppendVarint(b, int64(o.MaxFeatures))
	b = AppendF64(b, o.MinCategoryRatio)
	b = AppendF64(b, o.MaxCategoryRatio)
	b = AppendF64(b, o.MinDensity)
	// Bit 1 is reserved: it once marked the band as explicitly set, every
	// coordinator has always set it, and writing it keeps the bytes fixed.
	flags := byte(1)
	if o.KeepTwoCycles {
		flags |= 2
	}
	if o.RankByFrequency {
		flags |= 4
	}
	if o.IncludeRedirectAliases {
		flags |= 8
	}
	return append(b, flags)
}

// ReadExpanderOptions decodes AppendExpanderOptions.
func ReadExpanderOptions(r *Reader) core.ExpanderOptions {
	o := core.ExpanderOptions{
		MaxCycleLen:      int(r.Varint()),
		Radius:           int(r.Varint()),
		MaxNeighborhood:  int(r.Varint()),
		MaxFeatures:      int(r.Varint()),
		MinCategoryRatio: r.F64(),
		MaxCategoryRatio: r.F64(),
		MinDensity:       r.F64(),
	}
	flags := r.Byte()
	o.KeepTwoCycles = flags&2 != 0
	o.RankByFrequency = flags&4 != 0
	o.IncludeRedirectAliases = flags&8 != 0
	return o
}

// --- expansions --------------------------------------------------------

// AppendExpansion encodes an expansion result (OpExpand response body,
// after the cache-outcome byte).
func AppendExpansion(b []byte, exp *core.Expansion) []byte {
	b = AppendString(b, exp.Keywords)
	b = appendNodeList(b, exp.QueryArticles)
	if exp.Features == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = AppendUvarint(b, uint64(len(exp.Features)))
		for _, f := range exp.Features {
			b = AppendUvarint(b, uint64(f.Node))
			b = AppendString(b, f.Title)
			b = AppendUvarint(b, uint64(f.CycleLen))
			b = AppendF64(b, f.Density)
			b = AppendF64(b, f.CategoryRatio)
		}
	}
	b = AppendUvarint(b, uint64(exp.CyclesConsidered))
	return AppendUvarint(b, uint64(exp.CyclesAccepted))
}

// ReadExpansion decodes AppendExpansion.
func ReadExpansion(r *Reader) *core.Expansion {
	exp := &core.Expansion{Keywords: r.String()}
	exp.QueryArticles = readNodeList(r)
	if r.Byte() == 1 {
		n := r.Count(1)
		exp.Features = make([]core.Feature, 0, n)
		for i := 0; i < n; i++ {
			exp.Features = append(exp.Features, core.Feature{
				Node:          graph.NodeID(r.Uvarint()),
				Title:         r.String(),
				CycleLen:      r.Int(),
				Density:       r.F64(),
				CategoryRatio: r.F64(),
			})
		}
	}
	exp.CyclesConsidered = r.Int()
	exp.CyclesAccepted = r.Int()
	return exp
}

func appendNodeList(b []byte, ids []graph.NodeID) []byte {
	if ids == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = AppendUvarint(b, uint64(id))
	}
	return b
}

func readNodeList(r *Reader) []graph.NodeID {
	if r.Byte() == 0 {
		return nil
	}
	n := r.Count(1)
	ids := make([]graph.NodeID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, graph.NodeID(r.Uvarint()))
	}
	return ids
}

// --- benchmark queries -------------------------------------------------

// AppendQueries encodes the replicated benchmark (OpQueries response).
func AppendQueries(b []byte, qs []core.Query) []byte {
	b = AppendUvarint(b, uint64(len(qs)))
	for _, q := range qs {
		b = AppendVarint(b, int64(q.ID))
		b = AppendString(b, q.Keywords)
		if q.Relevant == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = AppendUvarint(b, uint64(len(q.Relevant)))
		for _, d := range q.Relevant {
			b = AppendUvarint(b, uint64(d))
		}
	}
	return b
}

// ReadQueries decodes AppendQueries.
func ReadQueries(r *Reader) []core.Query {
	n := r.Count(1)
	qs := make([]core.Query, 0, n)
	for i := 0; i < n; i++ {
		q := core.Query{ID: int(r.Varint()), Keywords: r.String()}
		if r.Byte() == 1 {
			m := r.Count(1)
			q.Relevant = make([]int32, 0, m)
			for j := 0; j < m; j++ {
				q.Relevant = append(q.Relevant, int32(r.Uvarint()))
			}
		}
		qs = append(qs, q)
	}
	return qs
}

// --- stats -------------------------------------------------------------

// Stats is an OpStats response body: the replicated knowledge-base shape,
// the global document count, the benchmark size and the answering shard's
// expansion-cache counters.
type Stats struct {
	Articles, Redirects, Categories, Links int
	Documents, BenchmarkQueries            int
	Cache                                  core.CacheStats
}

// AppendStats encodes an OpStats response body. The uvarint between the
// cache's Misses and Entries is reserved: version-2 peers once sent a
// counter there that no longer exists, and the slot stays, written as 0
// and skipped on read, so that old and new builds decode each other's
// reply without a protocol version of its own.
func AppendStats(b []byte, st Stats) []byte {
	b = AppendUvarint(b, uint64(st.Articles))
	b = AppendUvarint(b, uint64(st.Redirects))
	b = AppendUvarint(b, uint64(st.Categories))
	b = AppendUvarint(b, uint64(st.Links))
	b = AppendUvarint(b, uint64(st.Documents))
	b = AppendUvarint(b, uint64(st.BenchmarkQueries))
	b = AppendUvarint(b, st.Cache.Hits)
	b = AppendUvarint(b, st.Cache.Misses)
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, uint64(st.Cache.Entries))
	return AppendUvarint(b, uint64(st.Cache.Capacity))
}

// ReadStats decodes AppendStats.
func ReadStats(r *Reader) Stats {
	st := Stats{
		Articles:         r.Int(),
		Redirects:        r.Int(),
		Categories:       r.Int(),
		Links:            r.Int(),
		Documents:        r.Int(),
		BenchmarkQueries: r.Int(),
		Cache:            core.CacheStats{Hits: r.Uvarint(), Misses: r.Uvarint()},
	}
	r.Uvarint() // the reserved slot
	st.Cache.Entries, st.Cache.Capacity = r.Int(), r.Int()
	return st
}

// --- results -----------------------------------------------------------

// AppendResults encodes a ranking in the global doc-id space (OpTopK
// response body, after the searchable byte).
func AppendResults(b []byte, rs []search.Result) []byte {
	b = AppendUvarint(b, uint64(len(rs)))
	for _, r := range rs {
		b = AppendUvarint(b, uint64(r.Doc))
		b = AppendF64(b, r.Score)
	}
	return b
}

// ReadResults decodes AppendResults. The ranking decodes non-nil even
// when empty — the public Search contract returns an empty, non-nil
// slice on no match.
func ReadResults(r *Reader) []search.Result {
	n := r.Count(9) // a one-byte doc uvarint and an 8-byte score at least
	rs := make([]search.Result, 0, n)
	for i := 0; i < n; i++ {
		rs = append(rs, search.Result{Doc: int32(r.Uvarint()), Score: r.F64()})
	}
	return rs
}
