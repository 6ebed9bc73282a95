package querygraph

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// poolTestWorld builds a small deterministic world and its single-snapshot
// client — the equivalence oracle every Pool assertion compares against.
func poolTestWorld(t *testing.T, seed int64) *Client {
	t.Helper()
	cfg := DefaultWorldConfig()
	cfg.Seed = seed
	cfg.Topics = 8
	cfg.ArticlesPerTopic = 12
	cfg.DocsPerTopic = 20
	cfg.Queries = 10
	cfg.NoiseVocab = 80
	w, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Build(w)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// shardedPool writes an n-shard generation of the client's world and
// opens a Pool over it, returning the manifest path too.
func shardedPool(t *testing.T, client *Client, n int) (*Pool, string) {
	t.Helper()
	dir := t.TempDir()
	if err := client.SaveShards(dir, n); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "manifest.json")
	pool, err := OpenPool(manifest)
	if err != nil {
		t.Fatal(err)
	}
	return pool, manifest
}

// TestPoolEquivalence is the sharded-correctness contract: for the same
// world and queries, a Pool over 1, 2, 4 or 7 shards returns bit-identical
// results to the single-snapshot Client — ranked documents with scores
// compared by ==, expansions compared structurally, expanded retrieval
// end to end.
func TestPoolEquivalence(t *testing.T) {
	client := poolTestWorld(t, 0)
	ctx := context.Background()
	queries := client.Queries()
	if len(queries) == 0 {
		t.Fatal("world has no benchmark queries")
	}
	for _, n := range []int{1, 2, 4, 7} {
		pool, _ := shardedPool(t, client, n)
		if got := pool.NumShards(); got != n {
			t.Fatalf("NumShards = %d, want %d", got, n)
		}
		if !reflect.DeepEqual(pool.Queries(), queries) {
			t.Fatalf("n=%d: replicated benchmark diverged", n)
		}
		keywords := make([]string, len(queries))
		for i, q := range queries {
			keywords[i] = q.Keywords
		}

		for _, q := range queries {
			for _, k := range []int{1, 15, 0} {
				want, err := client.Search(ctx, q.Keywords, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := pool.Search(ctx, q.Keywords, k)
				if err != nil {
					t.Fatal(err)
				}
				if got == nil {
					t.Fatalf("n=%d query %q k=%d: nil results", n, q.Keywords, k)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d query %q k=%d: ranking diverged\ngot  %+v\nwant %+v",
						n, q.Keywords, k, got, want)
				}
			}

			wantExp, err := client.Expand(ctx, q.Keywords, WithMaxFeatures(8), WithFrequencyRank(true))
			if err != nil {
				t.Fatal(err)
			}
			gotExp, err := pool.Expand(ctx, q.Keywords, WithMaxFeatures(8), WithFrequencyRank(true))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotExp, wantExp) {
				t.Fatalf("n=%d query %q: expansion diverged\ngot  %+v\nwant %+v",
					n, q.Keywords, gotExp, wantExp)
			}

			wantRS, wantOK, err := client.SearchExpansion(ctx, wantExp, 15)
			if err != nil {
				t.Fatal(err)
			}
			gotRS, gotOK, err := pool.SearchExpansion(ctx, gotExp, 15)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || !reflect.DeepEqual(gotRS, wantRS) {
				t.Fatalf("n=%d query %q: expanded retrieval diverged", n, q.Keywords)
			}
		}

		// Batch paths agree with the single-query paths.
		wantBatch, err := searchAll(ctx, client, keywords, 10, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gotBatch, err := searchAll(ctx, pool, keywords, 10, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotBatch, wantBatch) {
			t.Fatalf("n=%d: batch rankings diverged", n)
		}
		wantExps, err := client.ExpandAll(ctx, keywords, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gotExps, err := pool.ExpandAll(ctx, keywords, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotExps, wantExps) {
			t.Fatalf("n=%d: batch expansions diverged", n)
		}
		wantRanked, err := searchExpansions(ctx, client, wantExps, 15, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gotRanked, err := searchExpansions(ctx, pool, gotExps, 15, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRanked, wantRanked) {
			t.Fatalf("n=%d: batch expanded retrieval diverged", n)
		}

		// Stats see the partition, not the fragment.
		st := pool.PoolStats()
		if st.Documents != client.Stats().Documents {
			t.Errorf("n=%d: pool reports %d documents, want the global %d",
				n, st.Documents, client.Stats().Documents)
		}
		if len(st.Shards) != n || st.Generation != 1 {
			t.Errorf("n=%d: pool stats %+v", n, st)
		}
		var docs int
		var postings int64
		for _, sh := range st.Shards {
			docs += sh.Documents
			postings += sh.Postings
		}
		if docs != st.Documents {
			t.Errorf("n=%d: shard documents sum to %d, want %d", n, docs, st.Documents)
		}
		if postings <= 0 {
			t.Errorf("n=%d: no postings reported", n)
		}
	}
}

// TestPoolReloadUnderLoad hammers Search/Expand from many goroutines while
// the pool hot-swaps between two different worlds: zero requests may fail,
// every response must be a valid ranking of whichever generation served
// it, and every retired generation must drain. Run under -race this also
// proves the generation lifecycle is data-race-free.
func TestPoolReloadUnderLoad(t *testing.T) {
	clientA := poolTestWorld(t, 0)
	clientB := poolTestWorld(t, 7)
	pool, manifestA := shardedPool(t, clientA, 3)
	dirB := t.TempDir()
	if err := clientB.SaveShards(dirB, 2); err != nil {
		t.Fatal(err)
	}
	manifestB := filepath.Join(dirB, "manifest.json")

	keywords := make([]string, 0, 20)
	for _, q := range clientA.Queries() {
		keywords = append(keywords, q.Keywords)
	}
	for _, q := range clientB.Queries() {
		keywords = append(keywords, q.Keywords)
	}

	const workers = 8
	ctx := context.Background()
	stop := make(chan struct{})
	var failures atomic.Int64
	var served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				kw := keywords[i%len(keywords)]
				if i%5 == 0 {
					if _, err := pool.Expand(ctx, kw); err != nil {
						failures.Add(1)
						t.Errorf("Expand(%q): %v", kw, err)
						return
					}
				} else {
					rs, err := pool.Search(ctx, kw, 10)
					if err != nil {
						failures.Add(1)
						t.Errorf("Search(%q): %v", kw, err)
						return
					}
					if rs == nil {
						failures.Add(1)
						t.Errorf("Search(%q): nil ranking", kw)
						return
					}
				}
				served.Add(1)
			}
		}(w)
	}

	const reloads = 8
	retiredGens := make([]*poolGeneration, 0, reloads)
	manifests := [2]string{manifestB, manifestA}
	for r := 0; r < reloads; r++ {
		old := pool.gen.Load()
		if err := pool.Reload(manifests[r%2]); err != nil {
			t.Fatalf("reload %d: %v", r, err)
		}
		retiredGens = append(retiredGens, old)
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed across %d reloads (%d served)", n, reloads, served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no traffic was served during the reload storm")
	}
	if got := pool.Generation(); got != reloads+1 {
		t.Errorf("generation = %d, want %d", got, reloads+1)
	}
	if got := pool.PoolStats().Reloads; got != reloads {
		t.Errorf("reload counter = %d, want %d", got, reloads)
	}
	// Every retired generation drains once its in-flight requests finish.
	for i, g := range retiredGens {
		select {
		case <-g.drained:
		case <-time.After(5 * time.Second):
			t.Fatalf("retired generation %d (seq %d) never drained: %d refs",
				i, g.seq, g.refs.Load())
		}
	}
	// The served world actually switched: after an even number of reloads
	// the pool is back on world A's manifest.
	if !reflect.DeepEqual(pool.Queries(), clientA.Queries()) {
		t.Error("pool did not return to world A after the final reload")
	}
}

// TestPoolReloadSwitchesWorlds pins the observable effect of a reload:
// stats, benchmark and results all come from the new generation, and the
// expansion cache starts cold.
func TestPoolReloadSwitchesWorlds(t *testing.T) {
	clientA := poolTestWorld(t, 0)
	clientB := poolTestWorld(t, 7)
	pool, _ := shardedPool(t, clientA, 2)
	dirB := t.TempDir()
	if err := clientB.SaveShards(dirB, 4); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	kw := clientA.Queries()[0].Keywords
	if _, err := pool.Expand(ctx, kw); err != nil {
		t.Fatal(err)
	}
	if misses := pool.CacheStats().Misses; misses == 0 {
		t.Fatal("expansion did not touch the cache")
	}

	if err := pool.Reload(filepath.Join(dirB, "manifest.json")); err != nil {
		t.Fatal(err)
	}
	if got, want := pool.NumShards(), 4; got != want {
		t.Errorf("NumShards after reload = %d, want %d", got, want)
	}
	if got, want := pool.Stats().Documents, clientB.Stats().Documents; got != want {
		t.Errorf("documents after reload = %d, want world B's %d", got, want)
	}
	if !reflect.DeepEqual(pool.Queries(), clientB.Queries()) {
		t.Error("benchmark after reload is not world B's")
	}
	if st := pool.CacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("expansion cache not cold after reload: %+v", st)
	}
	q := clientB.Queries()[0]
	want, err := clientB.Search(ctx, q.Keywords, 15)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Search(ctx, q.Keywords, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("post-reload ranking is not bit-identical to world B's client")
	}
}

// TestPoolReloadFailureKeepsServing: a reload pointed at garbage returns
// ErrBadManifest and the pool keeps serving the generation it had.
func TestPoolReloadFailureKeepsServing(t *testing.T) {
	client := poolTestWorld(t, 0)
	pool, _ := shardedPool(t, client, 2)
	before := pool.Generation()
	err := pool.Reload(filepath.Join(t.TempDir(), "missing", "manifest.json"))
	if !errors.Is(err, ErrBadManifest) {
		t.Fatalf("reload of missing manifest: got %v, want ErrBadManifest", err)
	}
	if got := pool.Generation(); got != before {
		t.Errorf("failed reload advanced the generation: %d -> %d", before, got)
	}
	q := client.Queries()[0]
	want, err := client.Search(context.Background(), q.Keywords, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.Search(context.Background(), q.Keywords, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("pool stopped serving correctly after a failed reload")
	}
}

// TestOpenPoolBadManifest: every open failure wraps ErrBadManifest.
func TestOpenPoolBadManifest(t *testing.T) {
	if _, err := OpenPool(filepath.Join(t.TempDir(), "manifest.json")); !errors.Is(err, ErrBadManifest) {
		t.Errorf("missing manifest: got %v, want ErrBadManifest", err)
	}
}

// TestPoolPreCancelledContext mirrors the Client contract: a context that
// is already done returns ctx.Err() from every query-path method without
// running anything.
func TestPoolPreCancelledContext(t *testing.T) {
	client := poolTestWorld(t, 0)
	pool, _ := shardedPool(t, client, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	kw := client.Queries()[0].Keywords
	if _, err := pool.Search(ctx, kw, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("Search: %v", err)
	}
	if _, err := searchAll(ctx, pool, []string{kw}, 5, BatchOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchAll: %v", err)
	}
	if _, err := pool.Expand(ctx, kw); !errors.Is(err, context.Canceled) {
		t.Errorf("Expand: %v", err)
	}
	if _, err := pool.ExpandAll(ctx, []string{kw}, BatchOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ExpandAll: %v", err)
	}
	if _, _, err := pool.SearchExpansion(ctx, &Expansion{Keywords: kw}, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchExpansion: %v", err)
	}
}

// TestPoolInvalidQuery mirrors the Client error model over the pool.
func TestPoolInvalidQuery(t *testing.T) {
	client := poolTestWorld(t, 0)
	pool, _ := shardedPool(t, client, 2)
	if _, err := pool.Search(context.Background(), "#combine(", 5); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("Search: got %v, want ErrInvalidQuery", err)
	}
	if _, err := pool.Expand(context.Background(), "x", WithMaxFeatures(-1)); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Expand: got %v, want ErrInvalidOptions", err)
	}
}
