package core

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/querygraph/querygraph/internal/search"
)

func TestSearchAllMatchesSequentialOrder(t *testing.T) {
	s, w := testSystem(t)
	var nodes []search.Node
	for _, q := range w.Queries {
		node, err := s.Engine.Parse(q.Keywords)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	want := make([][]search.Result, len(nodes))
	for i, n := range nodes {
		rs, err := s.Engine.Search(n, MaxRank)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rs
	}
	for _, workers := range []int{0, 1, 3} {
		got, err := s.SearchAll(context.Background(), nodes, MaxRank, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: batch results differ from sequential", workers)
		}
	}
	// Empty batch is a no-op, not an error.
	if out, err := s.SearchAll(context.Background(), nil, MaxRank, BatchOptions{}); err != nil || len(out) != 0 {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
}

func TestSearchAllEmptyResultContract(t *testing.T) {
	s, _ := testSystem(t)
	node, err := s.Engine.Parse("zzzunknownterm")
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.SearchAll(context.Background(), []search.Node{node}, MaxRank, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] == nil || len(out[0]) != 0 {
		t.Fatalf("no-match batch entry = %#v, want empty non-nil slice", out[0])
	}
}

func TestSearchAllErrorPropagation(t *testing.T) {
	s, w := testSystem(t)
	good, err := s.Engine.Parse(w.Queries[0].Keywords)
	if err != nil {
		t.Fatal(err)
	}
	// An empty #combine node fails flatten inside the engine.
	nodes := []search.Node{good, search.Combine{}, good}
	if _, err := s.SearchAll(context.Background(), nodes, MaxRank, BatchOptions{Workers: 2}); err == nil {
		t.Fatal("batch with a broken query should fail")
	}
}

func TestExpandAllOrderingAndCacheHits(t *testing.T) {
	s, w := testSystem(t)
	opts := DefaultExpanderOptions()
	var keywords []string
	for _, q := range w.Queries[:6] {
		keywords = append(keywords, q.Keywords)
	}
	before := s.ExpandCacheStats()

	cold, err := s.ExpandAll(context.Background(), keywords, opts, BatchOptions{Workers: 3})
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
	warm, err := s.ExpandAll(context.Background(), keywords, opts, BatchOptions{Workers: 3})
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
	capped, err := s.ExpandAll(context.Background(), keywords[:1], other, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped[0].Features) > 1 {
		t.Errorf("options ignored on cache lookup: %d features", len(capped[0].Features))
	}
}

func TestExpandAllErrorPropagation(t *testing.T) {
	s, w := testSystem(t)
	bad := DefaultExpanderOptions()
	bad.MinCategoryRatio = 0.9
	bad.MaxCategoryRatio = 0.1
	if _, err := s.ExpandAll(context.Background(), []string{w.Queries[0].Keywords}, bad, BatchOptions{}); err == nil {
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

// TestForEachQueryStopsSchedulingAfterError is the regression test for the
// batch fail-fast fix: with one worker, an error on the first index must
// stop the producer after at most one already-scheduled index.
func TestForEachQueryStopsSchedulingAfterError(t *testing.T) {
	var calls atomic.Int64
	err := forEachQuery(context.Background(), 100, 1, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return errTest
		}
		return nil
	})
	if err != errTest {
		t.Fatalf("err = %v, want errTest", err)
	}
	// The worker records the error before receiving the next index, and
	// the producer re-checks the failure flag before every send, so at
	// most one extra index (already past the check) can run.
	if n := calls.Load(); n > 2 {
		t.Errorf("fn ran %d times after an immediate error, want <= 2", n)
	}
}
