package search

import (
	"strings"
	"sync/atomic"

	"github.com/querygraph/querygraph/internal/lru"
)

// The leaf cache memoizes LeavesForQuery: parsing and flattening raw query
// text is the only per-request work of the text search path that cannot
// reuse pooled storage, so serving traffic — which repeats query strings —
// would otherwise pay an AST's worth of garbage on every request. The
// cache is the same sharded LRU the expansion cache sits on (internal/lru),
// so a hit costs a hash, one shard lock and two pointer swaps: no
// allocation.
//
// Entries are immutable once inserted: leaves are deep-copied on insert
// (slice, terms and strings), so a cached entry never aliases caller
// memory — in particular the reusable request buffers cmd/qserve parses
// query text out of.

// leafCacheCapacity bounds the total number of cached query strings
// across all shards; beyond it the least recently used entry of the
// insert's shard is evicted.
const leafCacheCapacity = 4096

// leafCacheMaxKey bounds the cached query length: pathological
// multi-kilobyte queries flow through uncached rather than evicting the
// working set.
const leafCacheMaxKey = 1024

// leafCache is allocated on its first put: the engines that never parse —
// a live delta's, rebuilt on every ingest, and every shard's but the one
// a Set parses with — never pay for its shards. The zero value is ready.
type leafCache struct {
	c atomic.Pointer[lru.Cache[string, []Leaf]]
}

// get returns the cached leaves for query, refreshing its recency.
func (lc *leafCache) get(query string) ([]Leaf, bool) {
	c := lc.c.Load()
	if c == nil || len(query) > leafCacheMaxKey {
		return nil, false
	}
	return c.Get(query, query)
}

// put inserts a deep copy of leaves under a cloned key (a concurrent
// duplicate insert replaces the entry with an equal one).
func (lc *leafCache) put(query string, leaves []Leaf) {
	if len(query) > leafCacheMaxKey {
		return
	}
	c := lc.c.Load()
	if c == nil {
		lc.c.CompareAndSwap(nil, lru.New[string, []Leaf](leafCacheCapacity))
		c = lc.c.Load()
	}
	key := strings.Clone(query)
	c.Put(key, key, cloneLeaves(leaves))
}

// cloneLeaves deep-copies leaves so the cache shares no memory with the
// query they were flattened from.
func cloneLeaves(leaves []Leaf) []Leaf {
	out := make([]Leaf, len(leaves))
	for i, lf := range leaves {
		terms := make([]string, len(lf.Terms))
		for j, t := range lf.Terms {
			terms[j] = strings.Clone(t)
		}
		out[i] = Leaf{Terms: terms, Weight: lf.Weight}
	}
	return out
}
