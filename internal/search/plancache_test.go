package search

import (
	"fmt"
	"sync"
	"testing"

	"github.com/querygraph/querygraph/internal/lru"
)

// TestSearchTextMatchesSearch proves the cached text path returns exactly
// what parse+Search does, on cold and warm cache, with and without a
// caller-provided dst.
func TestSearchTextMatchesSearch(t *testing.T) {
	e := buildEngine(t,
		"venice grand canal gondola",
		"venice carnival mask",
		"rome colosseum forum",
		"canal water transport venice",
	)
	queries := []string{
		"venice",
		"venice canal",
		"#combine(venice canal)",
		"#weight(2 venice 1 canal)",
		"#1(grand canal)",
		"missingterm",
	}
	var dst []Result
	for round := 0; round < 3; round++ { // round 0 cold, later rounds warm
		for _, q := range queries {
			want := search(t, e, q, 3)
			got, err := e.SearchText(q, 3, nil)
			if err != nil {
				t.Fatalf("SearchText(%q): %v", q, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d SearchText(%q) = %v, want %v", round, q, got, want)
			}
			if got == nil {
				t.Fatalf("SearchText(%q) returned nil slice", q)
			}
			dst, err = e.SearchText(q, 3, dst)
			if err != nil {
				t.Fatalf("SearchText(%q, dst): %v", q, err)
			}
			if fmt.Sprint(dst) != fmt.Sprint(want) {
				t.Fatalf("round %d SearchText(%q, dst) = %v, want %v", round, q, dst, want)
			}
		}
	}
}

func TestSearchTextParseErrorsNotCached(t *testing.T) {
	e := buildEngine(t, "venice canal")
	for i := 0; i < 2; i++ {
		if _, err := e.SearchText("#combine(", 3, nil); err == nil {
			t.Fatal("expected parse error")
		}
	}
	if _, ok := e.leaves.get("#combine("); ok {
		t.Fatal("parse error was cached")
	}
}

func TestLeafCacheEvictsLRU(t *testing.T) {
	var c leafCache
	// A probe cache of one entry per shard reads off the shard count and
	// finds same-shard keys: only those evict the anchor.
	probe := lru.New[string, bool](1)
	perShard := leafCacheCapacity / probe.Cap()
	var keys []string
	for i := 0; len(keys) < perShard+1; i++ {
		k := fmt.Sprintf("query %d", i)
		probe.Put("probe", "probe", true)
		probe.Put(k, k, true)
		if _, ok := probe.Get("probe", "probe"); !ok {
			keys = append(keys, k)
		}
	}
	for _, k := range keys[:perShard] {
		c.put(k, []Leaf{{Terms: []string{k}, Weight: 1}})
	}
	// Refresh the oldest entry, then overflow: the second-oldest must go.
	if _, ok := c.get(keys[0]); !ok {
		t.Fatal("freshly inserted key missing")
	}
	c.put(keys[perShard], []Leaf{{Terms: []string{"new"}, Weight: 1}})
	if _, ok := c.get(keys[0]); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.get(keys[1]); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	if _, ok := c.get(keys[perShard]); !ok {
		t.Fatal("new entry missing after eviction")
	}
}

func TestLeafCacheSkipsOversizedKeys(t *testing.T) {
	var c leafCache
	big := make([]byte, leafCacheMaxKey+1)
	for i := range big {
		big[i] = 'a'
	}
	c.put(string(big), []Leaf{{Terms: []string{"a"}, Weight: 1}})
	if _, ok := c.get(string(big)); ok {
		t.Fatal("oversized key was cached")
	}
}

// TestLeafCacheClones proves cached leaves share no memory with the
// insert's arguments: mutating the caller's slices after put must not be
// visible through get.
func TestLeafCacheClones(t *testing.T) {
	var c leafCache
	terms := []string{"venice"}
	leaves := []Leaf{{Terms: terms, Weight: 1}}
	c.put("q", leaves)
	terms[0] = "mutated"
	leaves[0].Weight = 99
	got, ok := c.get("q")
	if !ok {
		t.Fatal("entry missing")
	}
	if got[0].Terms[0] != "venice" || got[0].Weight != 1 {
		t.Fatalf("cached leaves alias caller memory: %+v", got[0])
	}
}

func TestSearchTextConcurrent(t *testing.T) {
	e := buildEngine(t,
		"venice grand canal gondola",
		"venice carnival mask",
		"rome colosseum forum",
	)
	want := fmt.Sprint(search(t, e, "venice canal", 2))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []Result
			for i := 0; i < 200; i++ {
				var err error
				dst, err = e.SearchText("venice canal", 2, dst)
				if err != nil {
					t.Error(err)
					return
				}
				if fmt.Sprint(dst) != want {
					t.Errorf("got %v, want %s", dst, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
