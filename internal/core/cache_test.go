package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// get and put are the tests' white-box handle on the cache's LRU: what
// getOrDo does to it, minus the counters.
func (c *expandCache) get(k expandKey) (*Expansion, bool) { return c.lru.Get(k.keywords, k) }

func (c *expandCache) put(k expandKey, exp *Expansion) { c.lru.Put(k.keywords, k, exp) }

// lruShards is the LRU's shard count, read off the smallest cache there
// is: its capacity rounds up to one entry per shard.
var lruShards = newExpandCache(1).stats().Capacity

// sameShardKeys generates n distinct keys that all hash to the same cache
// shard, so eviction-order tests exercise one deterministic LRU list. The
// LRU keeps its shard pick to itself, so the keys are found by what it
// does: with one entry per shard, only a same-shard key evicts the anchor.
func sameShardKeys(t *testing.T, n int) []expandKey {
	t.Helper()
	probe, anchor := newExpandCache(1), expandKey{keywords: "anchor"}
	out := []expandKey{anchor}
	for i := 0; len(out) < n; i++ {
		k := expandKey{keywords: fmt.Sprintf("key-%d", i)}
		probe.put(anchor, nil)
		probe.put(k, nil)
		if _, ok := probe.get(anchor); !ok {
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
	ks := sameShardKeys(t, 2)
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
	c := newExpandCache(2 * lruShards) // per-shard cap 2
	ks := sameShardKeys(t, 3)
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
// bypass memoization entirely — every Expand pays for the pipeline and the
// stats stay zero.
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

// TestConcurrentMissesAgree is what replaces single-flight: nothing
// deduplicates concurrent cold misses, so 64 callers of one cold key (then
// of 8) may run the pipeline anywhere between once per key and once per
// caller — and every one of them must still get the sequential answer, be
// counted exactly once, and leave one entry per key. Run under -race.
func TestConcurrentMissesAgree(t *testing.T) {
	_, w := testSystem(t)
	opts := DefaultExpanderOptions()
	ref, err := FromWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, keys := range []int{1, 8} {
		want := make([]*Expansion, keys)
		for i := range want {
			if want[i], err = ref.Expand(context.Background(), w.Queries[i].Keywords, opts); err != nil {
				t.Fatal(err)
			}
		}
		s, err := FromWorld(w)
		if err != nil {
			t.Fatal(err)
		}
		const callers = 64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				got, err := s.Expand(context.Background(), w.Queries[i].Keywords, opts)
				if err != nil {
					t.Error(err)
				} else if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("caller of key %d got %+v, want the sequential %+v", i, got, want[i])
				}
			}(c % keys)
		}
		close(start)
		wg.Wait()
		st, runs := s.ExpandCacheStats(), s.expandCalls.Load()
		if st.Hits+st.Misses != callers || st.Misses != runs {
			t.Errorf("%d keys: %+v with %d pipeline runs, want hits+misses = %d and misses = runs", keys, st, runs, callers)
		}
		if st.Entries != keys || runs < uint64(keys) || runs > callers {
			t.Errorf("%d keys: %d entries after %d pipeline runs, want %d entries and runs in [%d, %d]", keys, st.Entries, runs, keys, keys, callers)
		}
	}
}

// TestGetOrDoFailuresStayWithTheirCaller: an error is returned to the
// caller whose fn produced it and never stored, so the next caller runs fn
// again; a panic likewise unwinds through its own caller only, and the
// cache — which holds no lock and no record of the run — stays usable.
func TestGetOrDoFailuresStayWithTheirCaller(t *testing.T) {
	c := newExpandCache(64)
	k := expandKey{keywords: "failing"}
	boom := errors.New("pipeline exploded")
	calls := 0
	fail := func() (*Expansion, error) { calls++; return nil, boom }
	for i := 0; i < 2; i++ {
		if _, outcome, err := c.getOrDo(k, fail); !errors.Is(err, boom) || outcome != CacheMiss {
			t.Fatalf("lookup %d = %v, %v; want a miss with the pipeline's error", i, outcome, err)
		}
	}
	func() {
		defer func() {
			if r := recover(); r != "pipeline panicked" {
				t.Errorf("recovered %v, want the pipeline's own panic", r)
			}
		}()
		_, _, _ = c.getOrDo(k, func() (*Expansion, error) { calls++; panic("pipeline panicked") })
	}()
	if _, ok := c.get(k); ok {
		t.Fatal("a failed run was cached")
	}
	want := &Expansion{Keywords: "failing"}
	for i, outcome := range []CacheOutcome{CacheMiss, CacheHit} {
		got, o, err := c.getOrDo(k, func() (*Expansion, error) { calls++; return want, nil })
		if err != nil || got != want || o != outcome {
			t.Fatalf("lookup %d after the failures = %v, %v, %v; want the fresh result as a %v", i, got, o, err, outcome)
		}
	}
	if st := c.stats(); calls != 4 || st.Misses != 4 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("fn ran %d times, stats %+v; want 4 runs, 4 misses, 1 hit, 1 entry", calls, st)
	}
}

// TestCacheStatsConcurrent hammers one cache from many goroutines and
// checks the counters add up exactly — run under -race this also proves
// the cache's use of the sharded LRU.
func TestCacheStatsConcurrent(t *testing.T) {
	c := newExpandCache(8 * lruShards)
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
				if _, _, err := c.getOrDo(k, func() (*Expansion, error) {
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
	if total := st.Hits + st.Misses; total != workers*rounds {
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

// expandAll expands every keyword query on ForEach, in input order — the
// batch loop the serving runtimes run Expand on.
func expandAll(ctx context.Context, s *System, keywords []string, opts ExpanderOptions, workers int) ([]*Expansion, error) {
	out := make([]*Expansion, len(keywords))
	err := ForEach(ctx, len(keywords), workers, func(i int) (err error) {
		out[i], err = s.Expand(ctx, keywords[i], opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TestExpandAllOrderingAndCacheHits: a batch of expansions keeps input
// order, a second pass over the same keywords is served from the cache,
// and different options never alias a cached entry.
func TestExpandAllOrderingAndCacheHits(t *testing.T) {
	s, w := testSystem(t)
	opts := DefaultExpanderOptions()
	var keywords []string
	for _, q := range w.Queries[:6] {
		keywords = append(keywords, q.Keywords)
	}
	before := s.ExpandCacheStats()

	cold, err := expandAll(context.Background(), s, keywords, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) != len(keywords) {
		t.Fatalf("got %d expansions", len(cold))
	}
	for i, exp := range cold {
		if exp == nil || exp.Keywords != keywords[i] {
			t.Fatalf("entry %d out of order: %+v", i, exp)
		}
	}
	warm, err := expandAll(context.Background(), s, keywords, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	after := s.ExpandCacheStats()
	if hits := after.Hits - before.Hits; hits < uint64(len(keywords)) {
		t.Errorf("warm batch produced %d cache hits, want >= %d", hits, len(keywords))
	}
	if after.Entries == 0 || after.Capacity != DefaultExpandCacheSize {
		t.Errorf("cache stats = %+v", after)
	}
	if after.HitRate() <= 0 || after.HitRate() > 1 {
		t.Errorf("hit rate = %g", after.HitRate())
	}
	// Warm results come from the cache: same feature rankings.
	for i := range warm {
		if !reflect.DeepEqual(cold[i].FeatureTitles(), warm[i].FeatureTitles()) {
			t.Errorf("entry %d: cached expansion differs", i)
		}
	}
	// Different options must not alias cached entries.
	other := opts
	other.MaxFeatures = 1
	capped, err := expandAll(context.Background(), s, keywords[:1], other, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped[0].Features) > 1 {
		t.Errorf("options ignored on cache lookup: %d features", len(capped[0].Features))
	}
}

// TestExpandAllErrorPropagation: an item's invalid options fail the batch.
func TestExpandAllErrorPropagation(t *testing.T) {
	s, w := testSystem(t)
	bad := DefaultExpanderOptions()
	bad.MinCategoryRatio = 0.9
	bad.MaxCategoryRatio = 0.1
	if _, err := expandAll(context.Background(), s, []string{w.Queries[0].Keywords}, bad, 0); err == nil {
		t.Fatal("invalid options should fail the batch")
	}
}

func TestExpandCacheDisabled(t *testing.T) {
	_, w := testSystem(t)
	s, err := FromWorld(w, WithExpandCache(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Expand(context.Background(), w.Queries[0].Keywords, DefaultExpanderOptions()); err != nil {
		t.Fatal(err)
	}
	if st := s.ExpandCacheStats(); st != (CacheStats{}) {
		t.Errorf("disabled cache reported %+v", st)
	}
}

// TestExpandCacheLRU unit-tests the sharded LRU: keys sharing keywords
// land in one shard, so eviction order within a shard is observable.
func TestExpandCacheLRU(t *testing.T) {
	optsFor := func(i int) ExpanderOptions {
		o := DefaultExpanderOptions()
		o.MaxFeatures = i + 1
		return o
	}
	keyFor := func(i int) expandKey {
		return expandKey{keywords: "same shard", opts: optsFor(i)}
	}
	c := newExpandCache(2 * lruShards) // per-shard capacity 2
	a, b, d := keyFor(0), keyFor(1), keyFor(2)
	c.put(a, &Expansion{Keywords: "a"})
	c.put(b, &Expansion{Keywords: "b"})
	if exp, ok := c.get(a); !ok || exp.Keywords != "a" {
		t.Fatal("a should be cached")
	}
	// a was just used, so inserting d evicts b.
	c.put(d, &Expansion{Keywords: "d"})
	if _, ok := c.get(b); ok {
		t.Error("b should have been evicted as least recently used")
	}
	for _, k := range []expandKey{a, d} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%+v should have survived eviction", k.opts.MaxFeatures)
		}
	}
	// Re-putting an existing key updates in place without eviction.
	c.put(a, &Expansion{Keywords: "a2"})
	if exp, ok := c.get(a); !ok || exp.Keywords != "a2" {
		t.Error("re-put should update the entry")
	}
	if _, ok := c.get(d); !ok {
		t.Error("d should still be cached after re-put of a")
	}
	st := c.stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
}
