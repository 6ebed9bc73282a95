package lru

import (
	"fmt"
	"testing"
)

// sameShard returns n distinct keys that all hash to one shard, so the
// eviction order of a single recency list is observable.
func sameShard(n int) []string {
	keys := []string{"anchor"}
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("key-%d", i); Index(k) == Index("anchor") {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2 * Shards) // two entries per shard
	if c.Cap() != 2*Shards {
		t.Fatalf("Cap = %d, want %d", c.Cap(), 2*Shards)
	}
	ks := sameShard(3)
	s := &c[Index(ks[0])]
	s.Put(ks[0], 0)
	s.Put(ks[1], 1)
	if _, ok := s.Get(ks[0]); !ok { // refresh 0: 1 becomes the victim
		t.Fatal("fresh entry missing")
	}
	s.Put(ks[2], 2)
	if _, ok := s.Get(ks[1]); ok {
		t.Error("least recently used entry survived eviction")
	}
	for _, i := range []int{0, 2} {
		if v, ok := s.Get(ks[i]); !ok || v != i {
			t.Errorf("Get(%q) = %d, %v; want %d", ks[i], v, ok, i)
		}
	}
	// Replacing a value refreshes it in place, without evicting.
	s.Put(ks[0], 10)
	if v, _ := s.Get(ks[0]); v != 10 || s.Len() != 2 {
		t.Errorf("after re-Put: value %d, %d entries; want 10 and 2", v, s.Len())
	}
	s.Clear()
	s.Put(ks[1], 1) // a cleared shard is empty, and usable
	if _, ok := s.Get(ks[0]); ok || s.Len() != 1 {
		t.Errorf("after Clear and one Put: %d entries", s.Len())
	}
}

func TestCapacityRoundsUpToOnePerShard(t *testing.T) {
	for _, capacity := range []int{0, 1, Shards} {
		c := New[string, int](capacity)
		if c.Cap() != Shards {
			t.Errorf("New(%d).Cap() = %d, want %d", capacity, c.Cap(), Shards)
		}
	}
	c := New[string, int](1)
	ks := sameShard(2)
	s := &c[Index(ks[0])]
	s.Put(ks[0], 0)
	s.Put(ks[1], 1)
	if _, ok := s.Get(ks[0]); ok || s.Len() != 1 {
		t.Error("a one-entry shard kept the evicted entry")
	}
}
