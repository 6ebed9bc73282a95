package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/querygraph/querygraph/internal/lru"
)

// get and put are the tests' white-box handle on the cache's LRU: what
// getOrDo does to a shard, minus the single-flight and the counters.
func (c *expandCache) get(k expandKey) (*Expansion, bool) {
	s := &c.lru[lru.Index(k.keywords)]
	s.Lock()
	defer s.Unlock()
	return s.Get(k)
}

func (c *expandCache) put(k expandKey, exp *Expansion) {
	s := &c.lru[lru.Index(k.keywords)]
	s.Lock()
	defer s.Unlock()
	s.Put(k, exp)
}

// sameShardKeys generates n distinct keys that all hash to the same cache
// shard, so eviction-order tests exercise one deterministic LRU list.
func sameShardKeys(t *testing.T, c *expandCache, n int) []expandKey {
	t.Helper()
	target := lru.Index("anchor")
	out := []expandKey{{keywords: "anchor"}}
	for i := 0; len(out) < n; i++ {
		k := expandKey{keywords: fmt.Sprintf("key-%d", i)}
		if lru.Index(k.keywords) == target {
			out = append(out, k)
		}
		if i > 1<<16 {
			t.Fatal("could not find enough same-shard keys")
		}
	}
	return out
}

// TestCacheCapacityOneEviction: with per-shard capacity 1, inserting a
// second key into the same shard must evict the first, and only the first.
func TestCacheCapacityOneEviction(t *testing.T) {
	c := newExpandCache(1) // rounds up to per-shard cap 1
	ks := sameShardKeys(t, c, 2)
	e1, e2 := &Expansion{Keywords: "1"}, &Expansion{Keywords: "2"}

	c.put(ks[0], e1)
	if got, ok := c.get(ks[0]); !ok || got != e1 {
		t.Fatal("first entry not retrievable")
	}
	c.put(ks[1], e2)
	if _, ok := c.get(ks[0]); ok {
		t.Error("capacity-1 shard kept the evicted entry")
	}
	if got, ok := c.get(ks[1]); !ok || got != e2 {
		t.Error("newest entry evicted instead of oldest")
	}
	if st := c.stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// TestCacheEvictionIsLRUNotFIFO: a get refreshes recency, so the eviction
// victim is the least recently *used* entry, not the oldest inserted.
func TestCacheEvictionIsLRUNotFIFO(t *testing.T) {
	c := newExpandCache(2 * lru.Shards) // per-shard cap 2
	ks := sameShardKeys(t, c, 3)
	a, b, d := &Expansion{Keywords: "a"}, &Expansion{Keywords: "b"}, &Expansion{Keywords: "c"}

	c.put(ks[0], a)
	c.put(ks[1], b)
	if _, ok := c.get(ks[0]); !ok { // refresh a: b becomes the LRU
		t.Fatal("warm entry missing")
	}
	c.put(ks[2], d) // evicts b, not a
	if _, ok := c.get(ks[1]); ok {
		t.Error("LRU entry b survived eviction")
	}
	if _, ok := c.get(ks[0]); !ok {
		t.Error("recently used entry a was evicted (FIFO, not LRU)")
	}
	if _, ok := c.get(ks[2]); !ok {
		t.Error("new entry c missing")
	}
}

// TestExpandCacheDisabledRunsPipelineEveryTime: WithExpandCache(0) must
// bypass memoization and single-flight entirely — every Expand pays for
// the pipeline and the stats stay zero.
func TestExpandCacheDisabledRunsPipelineEveryTime(t *testing.T) {
	_, w := testSystem(t)
	s, err := FromWorld(w, WithExpandCache(0))
	if err != nil {
		t.Fatal(err)
	}
	kw := w.Queries[0].Keywords
	for i := 0; i < 3; i++ {
		if _, err := s.Expand(context.Background(), kw, DefaultExpanderOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.expandCalls.Load(); got != 3 {
		t.Errorf("pipeline ran %d times, want 3 (cache disabled)", got)
	}
	if st := s.ExpandCacheStats(); st != (CacheStats{}) {
		t.Errorf("disabled cache reported stats %+v", st)
	}
}

// TestExpandOptionsKeyDiscrimination: the cache key is (keywords, options)
// — same keywords under different ExpanderOptions must be separate
// pipeline runs and separate entries, while repeats of either hit.
func TestExpandOptionsKeyDiscrimination(t *testing.T) {
	_, w := testSystem(t)
	s, err := FromWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	kw := w.Queries[0].Keywords
	o1 := DefaultExpanderOptions()
	o2 := DefaultExpanderOptions()
	o2.MaxFeatures = 3

	e1, err := s.Expand(context.Background(), kw, o1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Expand(context.Background(), kw, o2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.expandCalls.Load(); got != 2 {
		t.Fatalf("pipeline ran %d times, want 2 (distinct options)", got)
	}
	// Both variants are now cached: repeats must not run the pipeline.
	r1, err := s.Expand(context.Background(), kw, o1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Expand(context.Background(), kw, o2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.expandCalls.Load(); got != 2 {
		t.Errorf("pipeline ran %d times after warm repeats, want 2", got)
	}
	if r1 != e1 || r2 != e2 {
		t.Error("cached pointers not shared per options variant")
	}
	if st := s.ExpandCacheStats(); st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits / 2 misses", st)
	}
}

// TestSingleFlightDedupesConcurrentMisses is the deterministic
// single-flight regression test: the leader's pipeline call blocks until
// every follower has joined the in-flight entry, so all concurrency
// interleavings collapse to exactly one invocation.
func TestSingleFlightDedupesConcurrentMisses(t *testing.T) {
	c := newExpandCache(64)
	k := expandKey{keywords: "hot query"}
	const followers = 7
	want := &Expansion{Keywords: "hot query"}
	var calls atomic.Int32

	fn := func() (*Expansion, error) {
		calls.Add(1)
		deadline := time.Now().Add(5 * time.Second)
		for c.deduped.Load() < followers {
			if time.Now().After(deadline) {
				return nil, errors.New("followers never joined the flight")
			}
			time.Sleep(time.Millisecond)
		}
		return want, nil
	}

	var wg sync.WaitGroup
	errs := make([]error, followers+1)
	exps := make([]*Expansion, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			exps[i], _, errs[i] = c.getOrDo(context.Background(), k, fn)
		}(i)
	}
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if exps[i] != want {
			t.Fatalf("caller %d got %+v, want the leader's result", i, exps[i])
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("pipeline ran %d times for %d concurrent cold misses, want 1", got, followers+1)
	}
	st := c.stats()
	if st.Misses != 1 || st.Deduped != followers {
		t.Errorf("stats = %+v, want 1 miss and %d deduped", st, followers)
	}
	if _, ok := c.get(k); !ok {
		t.Error("leader's result was not cached")
	}
}

// TestSingleFlightErrorsSharedNotCached: a failing leader propagates its
// error to every waiter, and nothing is cached — the next lookup leads a
// fresh pipeline run.
func TestSingleFlightErrorsSharedNotCached(t *testing.T) {
	c := newExpandCache(64)
	k := expandKey{keywords: "failing"}
	boom := errors.New("pipeline exploded")
	var calls atomic.Int32

	const followers = 3
	fn := func() (*Expansion, error) {
		calls.Add(1)
		deadline := time.Now().Add(5 * time.Second)
		for c.deduped.Load() < followers {
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		return nil, boom
	}
	var wg sync.WaitGroup
	errs := make([]error, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.getOrDo(context.Background(), k, fn)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d got %v, want the leader's error", i, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("pipeline ran %d times, want 1", calls.Load())
	}
	if _, ok := c.get(k); ok {
		t.Fatal("error result was cached")
	}
	// Errors are not cached: the next lookup runs the pipeline again.
	if _, _, err := c.getOrDo(context.Background(), k, func() (*Expansion, error) { calls.Add(1); return &Expansion{}, nil }); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Errorf("retry after error did not lead a fresh run (%d calls)", calls.Load())
	}
}

// TestExpandAllSingleFlightAcrossWorkers is the end-to-end regression for
// the DESIGN.md limitation this PR removes: a cold batch containing the
// same keywords N times must run the expansion pipeline once per unique
// key, under any interleaving of the worker pool.
func TestExpandAllSingleFlightAcrossWorkers(t *testing.T) {
	_, w := testSystem(t)
	s, err := FromWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	const copies = 32
	unique := []string{w.Queries[0].Keywords, w.Queries[1].Keywords}
	var batch []string
	for i := 0; i < copies; i++ {
		batch = append(batch, unique[i%len(unique)])
	}
	exps, err := s.ExpandAll(context.Background(), batch, DefaultExpanderOptions(), BatchOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != len(batch) {
		t.Fatalf("got %d expansions for %d queries", len(exps), len(batch))
	}
	if got := s.expandCalls.Load(); got != uint64(len(unique)) {
		t.Errorf("pipeline ran %d times for %d unique keys (single-flight broken)", got, len(unique))
	}
	st := s.ExpandCacheStats()
	if lookups := st.Hits + st.Misses + st.Deduped; lookups != uint64(len(batch)) {
		t.Errorf("lookup accounting: %d, want %d (%+v)", lookups, len(batch), st)
	}
}

// TestCacheStatsConcurrent hammers one cache from many goroutines and
// checks the counters add up exactly — run under -race this also proves
// the locking discipline of the sharded LRU plus flight table.
func TestCacheStatsConcurrent(t *testing.T) {
	c := newExpandCache(8 * lru.Shards)
	const (
		workers = 8
		rounds  = 500
		keys    = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := expandKey{keywords: fmt.Sprintf("key-%d", (w+i)%keys)}
				if _, _, err := c.getOrDo(context.Background(), k, func() (*Expansion, error) {
					return &Expansion{Keywords: k.keywords}, nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.stats()
	if total := st.Hits + st.Misses + st.Deduped; total != workers*rounds {
		t.Errorf("lookups = %d, want %d (%+v)", total, workers*rounds, st)
	}
	if st.Misses < keys {
		t.Errorf("misses = %d, want >= %d distinct keys", st.Misses, keys)
	}
	if st.Entries > st.Capacity {
		t.Errorf("entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
	if rate := st.HitRate(); rate <= 0 || rate >= 1 {
		t.Errorf("hit rate %g out of (0, 1)", rate)
	}
}
