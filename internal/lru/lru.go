// Package lru is the sharded least-recently-used map under both of the
// serving path's memoization layers — the expansion cache (internal/core)
// and the query-plan cache (internal/search). Sharding keeps a cache off
// its callers' critical path: concurrent requests lock distinct shards
// instead of one global mutex, and a hit costs a hash, one shard lock and
// two pointer swaps — no allocation.
//
// The package is deliberately only the map and its recency order. Callers
// pick the shard (Index), hold its lock around Get and Put, and keep
// whatever else must change under the same lock — core's single-flight
// table, search's deep copy on insert — on their side.
package lru

import "sync"

// Shards is the shard count: a power of two, so the shard pick is a mask.
const Shards = 16

// Cache is Shards independently locked LRU maps. Build one with New.
type Cache[K comparable, V any] [Shards]Shard[K, V]

// Shard is one lock's worth of a Cache: lock it, then Get, Put, Len and
// Clear freely.
type Shard[K comparable, V any] struct {
	sync.Mutex
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
// total (Cap) is capacity rounded up to a multiple of Shards.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := new(Cache[K, V])
	per := max((capacity+Shards-1)/Shards, 1)
	for i := range c {
		c[i].cap, c[i].items = per, make(map[K]*entry[K, V], per)
	}
	return c
}

// Cap is the total number of entries the cache holds before evicting.
func (c *Cache[K, V]) Cap() int { return Shards * c[0].cap }

// Index picks the shard for a key by the FNV-1a hash of s, the string the
// caller says carries the key's entropy (for a string key, the key).
func Index(s string) int {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return int(h & (Shards - 1))
}

// Get returns the value under k, marking it most recently used.
func (s *Shard[K, V]) Get(k K) (v V, ok bool) {
	e, ok := s.items[k]
	if !ok {
		return v, false
	}
	if s.head != e {
		s.unlink(e)
		s.pushFront(e)
	}
	return e.val, true
}

// Put inserts or replaces the value under k as the most recently used
// entry, evicting the least recently used one when the shard is full.
func (s *Shard[K, V]) Put(k K, v V) {
	if e, ok := s.items[k]; ok {
		e.val = v
		s.Get(k)
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

// Len is the shard's entry count.
func (s *Shard[K, V]) Len() int { return len(s.items) }

// Clear drops every entry.
func (s *Shard[K, V]) Clear() {
	clear(s.items)
	s.head, s.tail = nil, nil
}

func (s *Shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *Shard[K, V]) unlink(e *entry[K, V]) {
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
