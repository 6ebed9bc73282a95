package core

import (
	"sync/atomic"

	"github.com/querygraph/querygraph/internal/lru"
)

// expandKey identifies one cached expansion: the raw keywords plus the
// exact options used. ExpanderOptions is all scalar fields, so the struct
// is comparable and usable as a map key directly.
type expandKey struct {
	keywords string
	opts     ExpanderOptions
}

// expandCache is a sharded LRU over Expand results. Entries are shared
// pointers — callers must treat cached Expansions as read-only.
type expandCache struct {
	// lru is sharded by the keywords: the options rarely vary within one
	// workload, so the keywords carry the entropy.
	lru    *lru.Cache[expandKey, *Expansion]
	hits   atomic.Uint64
	misses atomic.Uint64
}

// newExpandCache sizes a cache for roughly capacity entries (the enforced
// total, what CacheStats reports as Capacity, rounds up to a multiple of
// the shard count). capacity <= 0 disables caching (returns nil, and the
// nil methods below make that a cheap no-op).
func newExpandCache(capacity int) *expandCache {
	if capacity <= 0 {
		return nil
	}
	return &expandCache{lru: lru.New[expandKey, *Expansion](capacity)}
}

// CacheOutcome classifies how one Expand lookup was served by the cache —
// the per-request form of the aggregate CacheStats counters, surfaced so
// instrumentation can label individual requests. The values travel as one
// byte in the shard protocol's expand reply.
type CacheOutcome uint8

const (
	// CacheBypass: caching is disabled; the pipeline ran directly.
	CacheBypass CacheOutcome = iota
	// CacheHit: the lookup was served from a cached entry.
	CacheHit
	// CacheMiss: the lookup ran the pipeline (whose result was cached on
	// success).
	CacheMiss
)

// String returns the outcome's instrumentation label.
func (o CacheOutcome) String() string {
	switch o {
	case CacheHit:
		return "hit"
	case CacheMiss:
		return "miss"
	default:
		return "bypass"
	}
}

// getOrDo is the lookup behind Expand: a cached entry is returned as is
// (hit); otherwise the caller runs fn and, when it succeeds, caches the
// result (miss). Errors are never cached: the next lookup after a failure
// runs fn again. A nil cache degrades to calling fn directly.
//
// fn runs outside every lock, and nothing records that it is running:
// concurrent misses on one key each run fn and store equal entries, the
// last one staying. A cold pipeline run is short enough that the runs of
// a burst are about one per core, however many callers it has (measured
// in DESIGN.md, "The expansion cache").
func (c *expandCache) getOrDo(k expandKey, fn func() (*Expansion, error)) (*Expansion, CacheOutcome, error) {
	if c == nil {
		exp, err := fn()
		return exp, CacheBypass, err
	}
	if exp, ok := c.lru.Get(k.keywords, k); ok {
		c.hits.Add(1)
		return exp, CacheHit, nil
	}
	c.misses.Add(1)
	exp, err := fn()
	if err == nil {
		c.lru.Put(k.keywords, k, exp)
	}
	return exp, CacheMiss, err
}

// purge drops every cached entry (counters keep their lifetime totals). A
// pipeline run that is under way may store one fresh entry afterwards,
// which is harmless.
func (c *expandCache) purge() {
	if c != nil {
		c.lru.Clear()
	}
}

// CacheStats reports the expansion cache's counters since construction.
type CacheStats struct {
	// Hits counts lookups served from a cached entry; Misses counts
	// lookups that ran the pipeline.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`

	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// HitRate is the fraction of lookups served from a cached entry (0 when
// the cache has never been consulted).
func (cs CacheStats) HitRate() float64 {
	total := cs.Hits + cs.Misses
	if total == 0 {
		return 0
	}
	return float64(cs.Hits) / float64(total)
}

func (c *expandCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Entries:  c.lru.Len(),
		Capacity: c.lru.Cap(),
	}
}

// ExpandCacheStats reports the expansion cache's hit/miss counters and
// occupancy (all zero when the cache is disabled).
func (s *System) ExpandCacheStats() CacheStats {
	return s.expandCache.stats()
}

// PurgeExpandCache drops every cached expansion, releasing the entries to
// the collector; the counters keep their lifetime totals. The serving
// lifecycle calls this from Close so a retired client does not pin the
// cache's memory.
func (s *System) PurgeExpandCache() {
	s.expandCache.purge()
}
