// Package lru is the sharded least-recently-used map under both of the
// serving path's memoization layers — the expansion cache (internal/core)
// and the query-plan cache (internal/search). Sharding keeps a cache off
// its callers' critical path: concurrent requests lock distinct shards
// instead of one global mutex, and a hit costs a hash, one shard lock and
// two pointer swaps — no allocation.
//
// The package is only the map, its recency order and its locks: every
// method is safe for concurrent use. What a caller stores is its own
// business — search deep-copies on insert, core shares read-only pointers.
package lru

import "sync"

// numShards is the shard count: a power of two, so the shard pick is a mask.
const numShards = 16

// Cache is numShards independently locked LRU maps. Build one with New.
type Cache[K comparable, V any] [numShards]shard[K, V]

type shard[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	items map[K]*entry[K, V]
	// Intrusive doubly-linked list in recency order: head is the most
	// recently used entry, tail the eviction victim.
	head, tail *entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New sizes a cache for capacity entries spread over the shards. The
// per-shard capacity rounds up (and is at least one), so the enforced
// total (Cap) is capacity rounded up to a multiple of the shard count.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := new(Cache[K, V])
	per := max((capacity+numShards-1)/numShards, 1)
	for i := range c {
		c[i].cap, c[i].items = per, make(map[K]*entry[K, V], per)
	}
	return c
}

// Cap is the total number of entries the cache holds before evicting.
func (c *Cache[K, V]) Cap() int { return numShards * c[0].cap }

// lock returns the shard for a key, locked, picked by the FNV-1a hash of
// shardKey: the string the caller says carries the key's entropy (for a
// string key, the key). A key must always travel with the same shardKey.
func (c *Cache[K, V]) lock(shardKey string) *shard[K, V] {
	h := uint32(2166136261)
	for i := 0; i < len(shardKey); i++ {
		h ^= uint32(shardKey[i])
		h *= 16777619
	}
	s := &c[h&(numShards-1)]
	s.mu.Lock()
	return s
}

// Get returns the value under k, marking it most recently used.
func (c *Cache[K, V]) Get(shardKey string, k K) (v V, ok bool) {
	s := c.lock(shardKey)
	defer s.mu.Unlock()
	e, ok := s.items[k]
	if !ok {
		return v, false
	}
	s.touch(e)
	return e.val, true
}

// Put inserts or replaces the value under k as the most recently used
// entry, evicting the least recently used one when the shard is full.
func (c *Cache[K, V]) Put(shardKey string, k K, v V) {
	s := c.lock(shardKey)
	defer s.mu.Unlock()
	if e, ok := s.items[k]; ok {
		e.val = v
		s.touch(e)
		return
	}
	if len(s.items) >= s.cap {
		victim := s.tail
		s.unlink(victim)
		delete(s.items, victim.key)
	}
	e := &entry[K, V]{key: k, val: v}
	s.items[k] = e
	s.pushFront(e)
}

// Len is the cache's entry count.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c {
		s := &c[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Clear drops every entry.
func (c *Cache[K, V]) Clear() {
	for i := range c {
		s := &c[i]
		s.mu.Lock()
		clear(s.items)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
}

// touch makes e the most recently used entry.
func (s *shard[K, V]) touch(e *entry[K, V]) {
	if s.head != e {
		s.unlink(e)
		s.pushFront(e)
	}
}

func (s *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
