package lru

import (
	"fmt"
	"sync"
	"testing"
)

// shardOf is the shard lock picks for key.
func shardOf(c *Cache[string, int], key string) *shard[string, int] {
	s := c.lock(key)
	s.mu.Unlock()
	return s
}

// sameShard returns n distinct keys that all hash to one shard, so the
// eviction order of a single recency list is observable.
func sameShard(c *Cache[string, int], n int) []string {
	keys := []string{"anchor"}
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("key-%d", i); shardOf(c, k) == shardOf(c, "anchor") {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2 * numShards) // two entries per shard
	if c.Cap() != 2*numShards {
		t.Fatalf("Cap = %d, want %d", c.Cap(), 2*numShards)
	}
	ks := sameShard(c, 3)
	c.Put(ks[0], ks[0], 0)
	c.Put(ks[1], ks[1], 1)
	if _, ok := c.Get(ks[0], ks[0]); !ok { // refresh 0: 1 becomes the victim
		t.Fatal("fresh entry missing")
	}
	c.Put(ks[2], ks[2], 2)
	if _, ok := c.Get(ks[1], ks[1]); ok {
		t.Error("least recently used entry survived eviction")
	}
	for _, i := range []int{0, 2} {
		if v, ok := c.Get(ks[i], ks[i]); !ok || v != i {
			t.Errorf("Get(%q) = %d, %v; want %d", ks[i], v, ok, i)
		}
	}
	// Replacing a value refreshes it in place, without evicting.
	c.Put(ks[0], ks[0], 10)
	if v, _ := c.Get(ks[0], ks[0]); v != 10 || c.Len() != 2 {
		t.Errorf("after re-Put: value %d, %d entries; want 10 and 2", v, c.Len())
	}
	c.Clear()
	c.Put(ks[1], ks[1], 1) // a cleared cache is empty, and usable
	if _, ok := c.Get(ks[0], ks[0]); ok || c.Len() != 1 {
		t.Errorf("after Clear and one Put: %d entries", c.Len())
	}
}

func TestCapacityRoundsUpToOnePerShard(t *testing.T) {
	for _, capacity := range []int{0, 1, numShards} {
		c := New[string, int](capacity)
		if c.Cap() != numShards {
			t.Errorf("New(%d).Cap() = %d, want %d", capacity, c.Cap(), numShards)
		}
	}
	c := New[string, int](1)
	ks := sameShard(c, 2)
	c.Put(ks[0], ks[0], 0)
	c.Put(ks[1], ks[1], 1)
	if _, ok := c.Get(ks[0], ks[0]); ok || c.Len() != 1 {
		t.Error("a one-entry shard kept the evicted entry")
	}
}

// TestShardKeyPicksTheShard: the shard follows shardKey, not k, so keys a
// caller files under one shardKey share one recency list.
func TestShardKeyPicksTheShard(t *testing.T) {
	c := New[int, int](1) // one entry per shard
	c.Put("same", 1, 1)
	c.Put("same", 2, 2)
	if _, ok := c.Get("same", 1); ok || c.Len() != 1 {
		t.Errorf("two keys under one shardKey did not share a shard: %d entries", c.Len())
	}
}

// TestConcurrentGetPutClear hammers every method from many goroutines:
// under -race this is the proof that the cache owns its locking. A value
// always equals its key, entries never exceed Cap, and the cache is usable
// afterwards.
func TestConcurrentGetPutClear(t *testing.T) {
	c := New[string, int](2 * numShards)
	const workers, rounds, keys = 8, 2000, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := (w*31 + i) % keys
				k := fmt.Sprintf("key-%d", n)
				switch {
				case w == 0 && i%500 == 499:
					c.Clear()
				case i%3 == 0:
					c.Put(k, k, n)
				default:
					if v, ok := c.Get(k, k); ok && v != n {
						t.Errorf("Get(%q) = %d, want %d", k, v, n)
					}
				}
				if l := c.Len(); l > c.Cap() {
					t.Errorf("%d entries exceed capacity %d", l, c.Cap())
				}
			}
		}(w)
	}
	wg.Wait()
	c.Clear()
	c.Put("k", "k", 7)
	if v, ok := c.Get("k", "k"); !ok || v != 7 || c.Len() != 1 {
		t.Errorf("after the hammer: Get = %d, %v with %d entries", v, ok, c.Len())
	}
}
