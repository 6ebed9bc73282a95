package core

import (
	"context"
	"errors"
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

// expandCache is a sharded LRU over Expand results with single-flight
// deduplication of concurrent cold misses. Entries are shared pointers —
// callers must treat cached Expansions as read-only.
type expandCache struct {
	// lru is sharded by the keywords: the options rarely vary within one
	// workload, so the keywords carry the entropy.
	lru *lru.Cache[expandKey, *Expansion]
	// flight[i] tracks, under shard i's lock, the keys whose pipeline run
	// is in progress, so concurrent cold misses on the same key wait for
	// the leader instead of running the pipeline again (single-flight).
	flight  [lru.Shards]map[expandKey]*flightCall
	hits    atomic.Uint64
	misses  atomic.Uint64
	deduped atomic.Uint64
}

// flightCall is one in-progress pipeline run; followers block on done and
// then read exp/err, which the leader sets before closing the channel.
type flightCall struct {
	done chan struct{}
	exp  *Expansion
	err  error
}

// errExpandAborted is what followers observe when the leader's pipeline
// call panicked instead of returning: the flight entry is torn down in a
// defer, so waiters unblock with a real error rather than a nil result.
var errExpandAborted = errors.New("core: expansion aborted: in-flight pipeline panicked")

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
// instrumentation can label individual requests.
type CacheOutcome uint8

const (
	// CacheBypass: caching is disabled; the pipeline ran directly.
	CacheBypass CacheOutcome = iota
	// CacheHit: the lookup was served from a cached entry.
	CacheHit
	// CacheMiss: the lookup led a fresh pipeline run (whose result was
	// cached on success).
	CacheMiss
	// CacheDeduped: the lookup joined another caller's in-flight run of
	// the same key (single-flight) instead of running the pipeline again.
	CacheDeduped
)

// String returns the outcome's instrumentation label.
func (o CacheOutcome) String() string {
	switch o {
	case CacheHit:
		return "hit"
	case CacheMiss:
		return "miss"
	case CacheDeduped:
		return "deduped"
	default:
		return "bypass"
	}
}

// getOrDo is the single-flight lookup behind Expand: a cached entry is
// returned immediately (hit); otherwise the first caller per key becomes
// the leader, runs fn and caches its result, while concurrent callers of
// the same key block until the leader finishes and share its result and
// error (deduped). A nil cache degrades to calling fn directly — with
// caching disabled there is nowhere to publish in-flight state.
//
// fn runs outside the shard lock, so slow pipelines only serialize callers
// of the same key, never the shard. Errors are returned to every waiter
// but never cached: the next lookup after a failure leads a fresh run.
//
// ctx bounds only the wait: a follower whose context dies abandons the
// flight and returns ctx.Err(), while the leader always runs fn to
// completion and publishes the result, so a slow pipeline started for an
// impatient caller still warms the cache for everyone after it.
func (c *expandCache) getOrDo(ctx context.Context, k expandKey, fn func() (*Expansion, error)) (*Expansion, CacheOutcome, error) {
	if c == nil {
		exp, err := fn()
		return exp, CacheBypass, err
	}
	i := lru.Index(k.keywords)
	s := &c.lru[i]
	s.Lock()
	if exp, ok := s.Get(k); ok {
		s.Unlock()
		c.hits.Add(1)
		return exp, CacheHit, nil
	}
	if fl, ok := c.flight[i][k]; ok {
		s.Unlock()
		c.deduped.Add(1)
		select {
		case <-fl.done:
			return fl.exp, CacheDeduped, fl.err
		case <-ctx.Done():
			return nil, CacheDeduped, ctx.Err()
		}
	}
	fl := &flightCall{done: make(chan struct{})}
	if c.flight[i] == nil {
		c.flight[i] = make(map[expandKey]*flightCall)
	}
	c.flight[i][k] = fl
	s.Unlock()
	c.misses.Add(1)

	completed := false
	defer func() {
		if !completed { // fn panicked: fail the waiters, then re-panic
			fl.exp, fl.err = nil, errExpandAborted
		}
		s.Lock()
		delete(c.flight[i], k)
		if fl.err == nil {
			s.Put(k, fl.exp)
		}
		s.Unlock()
		close(fl.done)
	}()
	fl.exp, fl.err = fn()
	completed = true
	return fl.exp, CacheMiss, fl.err
}

// purge drops every cached entry (counters keep their lifetime totals).
// In-flight single-flight runs are untouched: their leaders may publish
// one fresh entry each after the purge, which is harmless.
func (c *expandCache) purge() {
	if c == nil {
		return
	}
	for i := range c.lru {
		s := &c.lru[i]
		s.Lock()
		s.Clear()
		s.Unlock()
	}
}

// CacheStats reports the expansion cache's counters since construction.
type CacheStats struct {
	// Hits counts lookups served from a cached entry; Misses counts
	// lookups that led a pipeline run; Deduped counts lookups that joined
	// another caller's in-flight run of the same key (single-flight)
	// instead of running the pipeline again.
	Hits    uint64
	Misses  uint64
	Deduped uint64

	Entries  int
	Capacity int
}

// HitRate is the fraction of lookups that did not run the pipeline —
// cache hits plus single-flight followers — over all lookups (0 when the
// cache has never been consulted).
func (cs CacheStats) HitRate() float64 {
	total := cs.Hits + cs.Misses + cs.Deduped
	if total == 0 {
		return 0
	}
	return float64(cs.Hits+cs.Deduped) / float64(total)
}

func (c *expandCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	cs := CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Deduped:  c.deduped.Load(),
		Capacity: c.lru.Cap(),
	}
	for i := range c.lru {
		s := &c.lru[i]
		s.Lock()
		cs.Entries += s.Len()
		s.Unlock()
	}
	return cs
}
