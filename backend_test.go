package querygraph

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/querygraph/querygraph/internal/hist"
)

// conformanceWorld builds a fresh client over a small deterministic world
// (every call returns an independent instance, so tests may Close them).
func conformanceWorld(t *testing.T) *Client {
	t.Helper()
	cfg := DefaultWorldConfig()
	cfg.Topics = 6
	cfg.ArticlesPerTopic = 10
	cfg.DocsPerTopic = 14
	cfg.Queries = 8
	cfg.NoiseVocab = 60
	w, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(w)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// conformanceBackends returns the reference client plus every runtime
// under test, each opened through OpenBackend so the constructor's
// artifact sniffing is on the conformance path too: the snapshot-backed
// Client, the sharded Pool at 1 and 4 shards, and the fan-out Remote
// coordinator over a live 2-shard qshard fleet on loopback.
func conformanceBackends(t *testing.T, opts ...Option) (*Client, map[string]Backend) {
	t.Helper()
	ref := conformanceWorld(t)
	dir := t.TempDir()

	snap := filepath.Join(dir, "world.qgs")
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	backends := map[string]Backend{}
	be, err := OpenBackend(snap, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := be.(*Client); !ok {
		t.Fatalf("OpenBackend(%s) = %T, want *Client", snap, be)
	}
	backends["client"] = be

	for _, shards := range []int{1, 4} {
		sdir := filepath.Join(dir, fmt.Sprintf("shards-%d", shards))
		if err := ref.SaveShards(sdir, shards); err != nil {
			t.Fatal(err)
		}
		be, err := OpenBackend(filepath.Join(sdir, "manifest.json"), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := be.(*Pool); !ok {
			t.Fatalf("OpenBackend(manifest) = %T, want *Pool", be)
		}
		backends[fmt.Sprintf("pool-%d", shards)] = be
	}

	fleetDir := filepath.Join(dir, "fleet")
	if err := ref.SaveShards(fleetDir, 2); err != nil {
		t.Fatal(err)
	}
	topo, _ := startShardFleet(t, fleetDir, 2, nil)
	be, err = OpenBackend(topo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := be.(*Remote); !ok {
		t.Fatalf("OpenBackend(topology) = %T, want *Remote", be)
	}
	backends["remote-2"] = be

	t.Cleanup(func() {
		for _, be := range backends {
			_ = be.Close()
		}
		_ = ref.Close()
	})
	return ref, backends
}

// searchAll, expandAll and searchExpansions are Batch over one Backend
// method each: the batch shapes the tests drive on every runtime.
func searchAll(ctx context.Context, be Backend, queries []string, k int, opts BatchOptions) ([][]Result, error) {
	return Batch(ctx, queries, opts, "query", func(query string) ([]Result, error) { return be.Search(ctx, query, k) })
}

func expandAll(ctx context.Context, be Backend, keywords []string, opts BatchOptions, eopts ...ExpandOption) ([]*Expansion, error) {
	return Batch(ctx, keywords, opts, "keywords", func(kw string) (*Expansion, error) { return be.Expand(ctx, kw, eopts...) })
}

func searchExpansions(ctx context.Context, be Backend, exps []*Expansion, k int, opts BatchOptions) ([][]Result, error) {
	return Batch(ctx, exps, opts, "expansion", func(exp *Expansion) ([]Result, error) {
		rs, _, err := be.SearchExpansion(ctx, exp, k)
		return rs, err
	})
}

// TestBatch pins Batch's rules with a scripted item, at one worker and at
// four: outputs come back in input order; the lowest failing index's
// error wins, under its "what N:" prefix, even when a higher index fails
// first; a degraded item keeps every output beside one error wrapping
// ErrPartialResult; a panicking item is an internal error naming its
// index; and a cancelled ctx returns ctx.Err() without running an item.
func TestBatch(t *testing.T) {
	live := context.Background()
	cancelled, cancel := context.WithCancel(live)
	cancel()
	in := []int{0, 1, 2, 3, 4, 5}
	cases := []struct {
		name string
		ctx  context.Context
		item func(i int) (int, error)
		// want is the outputs; nil means the batch fails without any.
		want    []int
		wantErr error
		// prefix starts the error's text; "" skips the check.
		prefix string
		class  string
	}{
		{"order", live, func(i int) (int, error) { return i * i, nil }, []int{0, 1, 4, 9, 16, 25}, nil, "", ""},
		{"lowest failing index", live, func(i int) (int, error) {
			switch i {
			case 2:
				time.Sleep(5 * time.Millisecond) // index 4 fails first at 4 workers
				return 0, fmt.Errorf("%w: bad item %d", ErrInvalidQuery, i)
			case 4:
				return 0, fmt.Errorf("%w: bad item %d", ErrInvalidQuery, i)
			}
			return i, nil
		}, nil, ErrInvalidQuery, "item 2: ", "invalid_query"},
		{"degraded items", live, func(i int) (int, error) {
			if i == 1 || i == 3 {
				return i, fmt.Errorf("%w: served by 1 of 2 shards", ErrPartialResult)
			}
			return i, nil
		}, in, ErrPartialResult, ErrPartialResult.Error() + ": batch served degraded", "partial_result"},
		{"panicking item", live, func(i int) (int, error) {
			if i == 1 {
				panic("kaboom")
			}
			return i, nil
		}, nil, nil, "item 1: querygraph: request panicked: kaboom", "internal"},
		{"cancelled", cancelled, func(i int) (int, error) {
			t.Errorf("item %d ran on a cancelled ctx", i)
			return i, nil
		}, nil, context.Canceled, "", "canceled"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				out, err := Batch(tc.ctx, in, BatchOptions{Workers: workers}, "item", tc.item)
				if !reflect.DeepEqual(out, tc.want) {
					t.Errorf("outputs = %v, want %v", out, tc.want)
				}
				if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
					t.Errorf("err = %v, want %v", err, tc.wantErr)
				}
				if got := ErrorClass(err); got != tc.class {
					t.Errorf("class = %q, want %q (err %v)", got, tc.class, err)
				}
				if err != nil && !strings.HasPrefix(err.Error(), tc.prefix) {
					t.Errorf("err = %q, want prefix %q", err, tc.prefix)
				}
			})
		}
	}
}

// TestBackendConformance is the shared golden suite of the unified API:
// every runtime behind the Backend interface — single snapshot, 1-shard
// pool, 4-shard pool — must serve bit-identical Search, Expand,
// SearchExpansion, Link and benchmark results to the reference in-memory
// client, through both the plain methods and ExpandRequest.
func TestBackendConformance(t *testing.T) {
	ctx := context.Background()
	ref, backends := conformanceBackends(t)
	qs := ref.Queries()
	keywords := make([]string, len(qs))
	for i, q := range qs {
		keywords[i] = q.Keywords
	}

	// Golden values from the reference client.
	wantSearch := make([][]Result, len(qs))
	for i, q := range qs {
		rs, err := ref.Search(ctx, q.Keywords, MaxRank)
		if err != nil {
			t.Fatal(err)
		}
		wantSearch[i] = rs
	}
	wantExp, err := ref.ExpandAll(ctx, keywords, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantExpSearch, err := searchExpansions(ctx, ref, wantExp, MaxRank, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for name, be := range backends {
		t.Run(name, func(t *testing.T) {
			if got, want := len(be.Queries()), len(qs); got != want {
				t.Fatalf("Queries: %d, want %d", got, want)
			}
			st := be.Stats()
			refSt := ref.Stats()
			if st.Articles != refSt.Articles || st.Documents != refSt.Documents ||
				st.BenchmarkQueries != refSt.BenchmarkQueries {
				t.Errorf("Stats = %+v, want the reference shape %+v", st, refSt)
			}

			for i, q := range qs {
				rs, err := be.Search(ctx, q.Keywords, MaxRank)
				if err != nil {
					t.Fatalf("Search %q: %v", q.Keywords, err)
				}
				if !reflect.DeepEqual(rs, wantSearch[i]) {
					t.Fatalf("Search %q diverges:\n got %v\nwant %v", q.Keywords, rs, wantSearch[i])
				}
				// Asked again, a Remote scores under the statistics it
				// remembers while the plan replies verify them: one
				// network round, the same answer.
				again, err := be.Search(ctx, q.Keywords, MaxRank)
				if err != nil || !reflect.DeepEqual(again, rs) {
					t.Fatalf("Search %q asked twice:\n then %v, %v\nfirst %v", q.Keywords, again, err, rs)
				}
			}

			// SearchInto matches Search bit for bit, with a nil dst, a
			// reused dst, and an undersized dst; the reused storage is
			// actually reused (no fresh backing array when cap suffices).
			var dst []Result
			for i, q := range qs {
				rs, err := be.SearchInto(ctx, q.Keywords, MaxRank, nil)
				if err != nil {
					t.Fatalf("SearchInto %q: %v", q.Keywords, err)
				}
				if rs == nil || !reflect.DeepEqual(rs, wantSearch[i]) {
					t.Fatalf("SearchInto %q (nil dst) diverges:\n got %v\nwant %v", q.Keywords, rs, wantSearch[i])
				}
				dst, err = be.SearchInto(ctx, q.Keywords, MaxRank, dst)
				if err != nil {
					t.Fatalf("SearchInto %q (reused dst): %v", q.Keywords, err)
				}
				if !reflect.DeepEqual(dst, wantSearch[i]) {
					t.Fatalf("SearchInto %q (reused dst) diverges:\n got %v\nwant %v", q.Keywords, dst, wantSearch[i])
				}
			}
			if len(wantSearch) > 0 && len(wantSearch[0]) > 0 {
				prev := dst[:0]
				got, err := be.SearchInto(ctx, qs[0].Keywords, MaxRank, prev)
				if err != nil {
					t.Fatal(err)
				}
				if cap(prev) >= len(got) && &got[0] != &prev[:1][0] {
					t.Error("SearchInto did not reuse the provided dst storage")
				}
			}

			batch, err := searchAll(ctx, be, keywords, MaxRank, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch, wantSearch) {
				t.Error("SearchAll diverges from per-query Search golden results")
			}

			for i, kw := range keywords {
				exp, err := be.Expand(ctx, kw)
				if err != nil {
					t.Fatalf("Expand %q: %v", kw, err)
				}
				w := wantExp[i]
				if exp.Keywords != w.Keywords ||
					!reflect.DeepEqual(exp.QueryArticles, w.QueryArticles) ||
					!reflect.DeepEqual(exp.Features, w.Features) ||
					exp.CyclesConsidered != w.CyclesConsidered ||
					exp.CyclesAccepted != w.CyclesAccepted {
					t.Fatalf("Expand %q diverges:\n got %+v\nwant %+v", kw, exp, w)
				}
			}

			expSearch, err := searchExpansions(ctx, be, wantExp, MaxRank, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(expSearch, wantExpSearch) {
				t.Error("SearchExpansions diverges from the reference rankings")
			}
			rs, ok, err := be.SearchExpansion(ctx, wantExp[0], MaxRank)
			if err != nil {
				t.Fatal(err)
			}
			if wantRanked := wantExpSearch[0] != nil; ok != wantRanked {
				t.Fatalf("SearchExpansion ok = %v, want %v", ok, wantRanked)
			}
			if ok && !reflect.DeepEqual(rs, wantExpSearch[0]) {
				t.Error("SearchExpansion diverges from the reference ranking")
			}

			ents := be.Link(qs[0].Keywords)
			if !reflect.DeepEqual(ents, ref.Link(qs[0].Keywords)) {
				t.Errorf("Link diverges: %v", ents)
			}
			for _, e := range ents {
				if got := be.Title(e.ID); got != e.Title {
					t.Errorf("Title(%d) = %q, want %q", e.ID, got, e.Title)
				}
			}

			// ExpandRequest composes the same backend calls — same golden
			// results.
			eresp, err := ExpandRequest{Keywords: keywords[0], K: MaxRank}.Do(ctx, be)
			if err != nil {
				t.Fatal(err)
			}
			if eresp.Expansion.Keywords != wantExp[0].Keywords ||
				!reflect.DeepEqual(eresp.Expansion.Features, wantExp[0].Features) {
				t.Error("ExpandRequest.Do diverges from Expand")
			}
			if eresp.Searched != (wantExpSearch[0] != nil) {
				t.Errorf("ExpandRequest.Do searched = %v", eresp.Searched)
			}
			if eresp.Searched && !reflect.DeepEqual(eresp.Results, wantExpSearch[0]) {
				t.Error("ExpandRequest.Do retrieval diverges from SearchExpansions")
			}
		})
	}
}

// TestOpenBackendSniffs pins the constructor's artifact detection: content
// beats extension (a snapshot under a .bin name opens as a Client, a
// manifest under an extension-less name opens as a Pool), and garbage is
// an ErrBadSnapshot, not a panic or a misrouted manifest error.
func TestOpenBackendSniffs(t *testing.T) {
	ref := conformanceWorld(t)
	defer ref.Close()
	dir := t.TempDir()

	odd := filepath.Join(dir, "world.bin")
	f, err := os.Create(odd)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	be, err := OpenBackend(odd)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := be.(*Client); !ok {
		t.Fatalf("snapshot under .bin opened as %T, want *Client", be)
	}
	be.Close()

	if err := ref.SaveShards(filepath.Join(dir, "sh"), 2); err != nil {
		t.Fatal(err)
	}
	// A manifest copied to an extension-less path still sniffs as JSON,
	// but its shard files resolve relative to the manifest's directory, so
	// copy it in place.
	manifest := filepath.Join(dir, "sh", "manifest.json")
	blob, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	bare := filepath.Join(dir, "sh", "serving-manifest")
	if err := os.WriteFile(bare, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	be, err = OpenBackend(bare)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := be.(*Pool); !ok {
		t.Fatalf("manifest without .json opened as %T, want *Pool", be)
	}
	be.Close()

	garbage := filepath.Join(dir, "garbage.qgs")
	if err := os.WriteFile(garbage, []byte("this is not a serving artifact at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBackend(garbage); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("garbage err = %v, want ErrBadSnapshot", err)
	}
	tiny := filepath.Join(dir, "tiny")
	if err := os.WriteFile(tiny, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBackend(tiny); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("tiny file err = %v, want ErrBadSnapshot", err)
	}
	if _, err := OpenBackend(filepath.Join(dir, "missing.qgs")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file err = %v, want os.ErrNotExist", err)
	}

	// A fleet topology is the third artifact kind: JSON whose shard
	// entries carry addresses, not snapshot paths.
	topo := filepath.Join(dir, "topology.json")
	if err := os.WriteFile(topo, []byte(`{"version":1,"shards":[{"id":0,"addrs":["127.0.0.1:1"]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if kind, err := sniffArtifact(topo); err != nil || kind != artifactTopology {
		t.Fatalf("topology sniffed as %v (err %v), want artifactTopology", kind, err)
	}
	if kind, err := sniffArtifact(manifest); err != nil || kind != artifactManifest {
		t.Fatalf("manifest sniffed as %v (err %v), want artifactManifest", kind, err)
	}
	// Opening a topology whose only shard is unreachable fails with the
	// shard-unavailable sentinel — proof the sniff routed to OpenTopology.
	if _, err := OpenBackend(topo); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("unreachable topology err = %v, want ErrShardUnavailable", err)
	}
}

// closeCases enumerates the query paths that must fail with ErrClosed
// after Close, for any backend.
func assertClosed(t *testing.T, be Backend) {
	t.Helper()
	ctx := context.Background()
	exp := &Expansion{Keywords: "x"}
	cases := []struct {
		name string
		run  func() error
	}{
		{"Search", func() error { _, err := be.Search(ctx, "x", 5); return err }},
		{"SearchAll", func() error { _, err := searchAll(ctx, be, []string{"x"}, 5, BatchOptions{}); return err }},
		{"Expand", func() error { _, err := be.Expand(ctx, "x"); return err }},
		{"ExpandAll", func() error { _, err := expandAll(ctx, be, []string{"x"}, BatchOptions{}); return err }},
		{"SearchExpansion", func() error { _, _, err := be.SearchExpansion(ctx, exp, 5); return err }},
		{"SearchExpansions", func() error { _, err := searchExpansions(ctx, be, []*Expansion{exp}, 5, BatchOptions{}); return err }},
	}
	for _, tc := range cases {
		if err := tc.run(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: err = %v, want ErrClosed", tc.name, err)
		}
	}
}

// TestCloseLifecycle pins the lifecycle satellite on every runtime:
// double Close returns nil, post-Close requests return ErrClosed, and
// ExpandRequest propagates it.
func TestCloseLifecycle(t *testing.T) {
	_, backends := conformanceBackends(t)
	for name, be := range backends {
		t.Run(name, func(t *testing.T) {
			if err := be.Close(); err != nil {
				t.Fatalf("first Close: %v", err)
			}
			if err := be.Close(); err != nil {
				t.Fatalf("second Close: %v (want nil — Close is idempotent)", err)
			}
			assertClosed(t, be)
			if _, err := (ExpandRequest{Keywords: "x", K: 5}).Do(context.Background(), be); !errors.Is(err, ErrClosed) {
				t.Errorf("ExpandRequest after Close: err = %v, want ErrClosed", err)
			}
			// The Client-only research pipeline honors the contract too —
			// a closed handle must not silently repopulate the purged cache.
			if c, ok := be.(*Client); ok {
				ctx := context.Background()
				q := c.Queries()[0]
				if _, err := c.Analyze(ctx, AnalyzeOptions{}); !errors.Is(err, ErrClosed) {
					t.Errorf("Analyze after Close: err = %v, want ErrClosed", err)
				}
				if _, err := c.GroundTruth(ctx, q, GroundTruthOptions{}); !errors.Is(err, ErrClosed) {
					t.Errorf("GroundTruth after Close: err = %v, want ErrClosed", err)
				}
				if _, err := c.GroundTruths(ctx, c.Queries(), GroundTruthOptions{}); !errors.Is(err, ErrClosed) {
					t.Errorf("GroundTruths after Close: err = %v, want ErrClosed", err)
				}
				if _, err := c.CompareExpanders(ctx, AblationOptions{}); !errors.Is(err, ErrClosed) {
					t.Errorf("CompareExpanders after Close: err = %v, want ErrClosed", err)
				}
				if _, err := c.MineCycles(ctx, &GroundTruth{}); !errors.Is(err, ErrClosed) {
					t.Errorf("MineCycles after Close: err = %v, want ErrClosed", err)
				}
				if _, _, err := c.Evaluate(ctx, q.Keywords, nil, q.Relevant); !errors.Is(err, ErrClosed) {
					t.Errorf("Evaluate after Close: err = %v, want ErrClosed", err)
				}
			}
		})
	}
}

// checkClosedAccessors pins the accessor contract a closed Pool and a
// closed Remote share (see Backend): every accessor that answers before
// Close answers its zero value after it, never a hang or a panic, and a
// second Close returns nil. One table serves both runtimes.
func checkClosedAccessors(t *testing.T, be Backend, keywords string) {
	t.Helper()
	accessors := []struct {
		name string
		get  func() any
	}{
		{"NumShards", func() any { return be.(interface{ NumShards() int }).NumShards() }},
		{"Queries", func() any { return be.Queries() }},
		{"Link", func() any { return be.Link(keywords) }},
		{"Title", func() any { return be.Title(1) }},
		{"Stats", func() any { return be.Stats() }},
		{"CacheStats", func() any { return be.CacheStats() }},
	}
	for _, a := range accessors {
		if reflect.ValueOf(a.get()).IsZero() {
			t.Fatalf("%s before Close is already the zero value", a.name)
		}
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
	if err := be.Close(); err != nil {
		t.Fatalf("second Close: %v (want nil — Close is idempotent)", err)
	}
	for _, a := range accessors {
		if v := a.get(); !reflect.ValueOf(v).IsZero() {
			t.Errorf("%s after Close = %+v, want the zero value", a.name, v)
		}
	}
}

// TestPoolCloseExtras pins the pool side of the closed-accessor contract
// (checkClosedAccessors) plus what only a Pool has: Reload on a closed
// pool fails with ErrClosed and Generation answers 0.
func TestPoolCloseExtras(t *testing.T) {
	ref, backends := conformanceBackends(t)
	pool := backends["pool-4"].(*Pool)
	checkClosedAccessors(t, pool, ref.Queries()[0].Keywords)
	if err := pool.Reload(""); !errors.Is(err, ErrClosed) {
		t.Errorf("Reload after Close: err = %v, want ErrClosed", err)
	}
	if g := pool.Generation(); g != 0 {
		t.Errorf("Generation after Close = %d, want 0", g)
	}
}

// TestPoolCloseDrainsInFlight: Close must not return while a request
// still pins the generation — exactly the Reload drain guarantee, applied
// to shutdown.
func TestPoolCloseDrainsInFlight(t *testing.T) {
	_, backends := conformanceBackends(t)
	pool := backends["pool-1"].(*Pool)

	//qlint:ignore refpair the late manual release is the test: Close must block until it happens
	g, err := pool.acquire() // stand in for a long in-flight request
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- pool.Close() }()

	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a request still pinned the generation", err)
	case <-time.After(50 * time.Millisecond):
	}
	g.release()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the last request released")
	}
}

// TestCloseConcurrentWithRequests hammers Search from many goroutines
// while Close lands mid-storm: every call must either succeed or fail
// with ErrClosed — no panics, no torn state — under -race.
func TestCloseConcurrentWithRequests(t *testing.T) {
	_, backends := conformanceBackends(t)
	ctx := context.Background()
	for name, be := range backends {
		t.Run(name, func(t *testing.T) {
			kw := "ciazia"
			var wg sync.WaitGroup
			start := make(chan struct{})
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < 200; i++ {
						_, err := be.Search(ctx, kw, 5)
						if err != nil && !errors.Is(err, ErrClosed) {
							t.Errorf("Search during Close: %v", err)
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := be.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()
			close(start)
			wg.Wait()
			assertClosed(t, be)
		})
	}
}

// recordingObserver keeps every request-level Event it is handed (shard
// RPC attempts are counted apart: they are per attempt, not per request).
type recordingObserver struct {
	mu     sync.Mutex
	events []Event
	rpcs   int
}

func (r *recordingObserver) Observe(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.Op == OpRPC {
		r.rpcs++
		return
	}
	r.events = append(r.events, e)
}

// of returns how many events of op were recorded, and the last of them.
func (r *recordingObserver) of(op Op) (n int, last Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.events {
		if e.Op == op {
			n, last = n+1, e
		}
	}
	return n, last
}

// drain returns the events recorded since the previous drain and starts
// over. The tests below attach one recorder to every runtime and drive the
// runtimes one at a time, draining in between.
func (r *recordingObserver) drain() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.events
	r.events, r.rpcs = nil, 0
	return out
}

// conformanceShards is the shard count each conformanceBackends runtime
// serves, by name.
var conformanceShards = map[string]int{"client": 1, "pool-1": 1, "pool-4": 4, "remote-2": 2}

// TestObserverEvents drives single, batch, cached, error, closed and
// reload paths on every runtime and asserts the event counts, labels and
// durations.
func TestObserverEvents(t *testing.T) {
	ctx := context.Background()
	rec, wantShards := &recordingObserver{}, conformanceShards
	ref, backends := conformanceBackends(t, WithObserver(rec))
	kw := ref.Queries()[0].Keywords

	for name, be := range backends {
		t.Run(name, func(t *testing.T) {
			_, remote := be.(*Remote)
			rec.drain()

			if _, err := be.Search(ctx, kw, 7); err != nil {
				t.Fatal(err)
			}
			n, e := rec.of(OpSearch)
			if n != 1 {
				t.Fatalf("searches = %d after one Search, want 1", n)
			}
			if e.K != 7 || e.Err != "" || e.Expanded || e.Shards != wantShards[name] {
				t.Errorf("search event = %+v", e)
			}
			if e.Duration <= 0 {
				t.Errorf("search duration = %v, want > 0", e.Duration)
			}
			if remote && rec.rpcs == 0 {
				t.Errorf("a remote search reported no OpRPC attempt")
			}

			// Error path: the class label rides in the event.
			if _, err := be.Search(ctx, "#combine(", 5); !errors.Is(err, ErrInvalidQuery) {
				t.Fatalf("err = %v, want ErrInvalidQuery", err)
			}
			if _, e = rec.of(OpSearch); e.Err != "invalid_query" {
				t.Errorf("error search event = %+v, want class invalid_query", e)
			}

			// Cold expand misses, warm expand hits; both observed.
			if _, err := be.Expand(ctx, kw); err != nil {
				t.Fatal(err)
			}
			if n, e = rec.of(OpExpand); n != 1 || e.Cache != CacheMiss || e.Size == 0 {
				t.Fatalf("cold expand event = %+v (expands=%d), want CacheMiss and the feature count", e, n)
			}
			cold := e.Duration
			if _, err := be.Expand(ctx, kw); err != nil {
				t.Fatal(err)
			}
			if n, e = rec.of(OpExpand); n != 2 || e.Cache != CacheHit {
				t.Fatalf("warm expand event = %+v (expands=%d), want CacheHit", e, n)
			}
			if cold+e.Duration <= 0 {
				t.Errorf("accumulated expand duration = %v, want > 0", cold+e.Duration)
			}

			// A batch is its items: one event per item, and no OpBatch.
			if _, err := searchAll(ctx, be, []string{kw, kw}, 5, BatchOptions{}); err != nil {
				t.Fatal(err)
			}
			if n, e = rec.of(OpSearch); n != 4 || e.K != 5 || e.Expanded {
				t.Fatalf("batch search event = %+v (searches=%d), want one per item", e, n)
			}
			if _, err := expandAll(ctx, be, []string{kw}, BatchOptions{}); err != nil {
				t.Fatal(err)
			}
			if n, e = rec.of(OpExpand); n != 3 || e.Cache != CacheHit {
				t.Fatalf("batch expand event = %+v (expands=%d), want one per item", e, n)
			}
			if n, _ = rec.of(OpBatch); n != 0 {
				t.Fatalf("batches = %d, want none", n)
			}

			// SearchExpansion reports Expanded.
			exp, err := be.Expand(ctx, kw)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := be.SearchExpansion(ctx, exp, 5); err != nil {
				t.Fatal(err)
			}
			searchesBeforeClose, e := rec.of(OpSearch)
			if !e.Expanded {
				t.Errorf("SearchExpansion event = %+v, want Expanded", e)
			}

			// Ingest and Compact report too, error paths included; the
			// read-only coordinator reports its typed refusal.
			doc := []Document{{
				Name:  "observed.jpg",
				Texts: []DocumentText{{Lang: "en", Description: "an observed ingest"}},
			}}
			if remote {
				if _, err := be.Ingest(ctx, doc); !errors.Is(err, ErrReadOnly) {
					t.Fatalf("remote ingest err = %v, want ErrReadOnly", err)
				}
				if n, e = rec.of(OpIngest); n != 1 || e.Size != 1 || e.Err != "read_only" || e.Shards != 2 {
					t.Fatalf("remote ingest event = %+v (ingests=%d)", e, n)
				}
			} else {
				if _, err := be.Ingest(ctx, doc); err != nil {
					t.Fatal(err)
				}
				if n, e = rec.of(OpIngest); n != 1 || e.Size != 1 || e.DeltaDocs != 1 || e.Err != "" ||
					e.Generation != 1 || e.Shards != wantShards[name] {
					t.Fatalf("ingest event = %+v (ingests=%d)", e, n)
				}
				if _, err := be.Compact(ctx); err != nil {
					t.Fatal(err)
				}
				if n, e = rec.of(OpCompact); n != 1 || e.Size != 1 || e.DeltaDocs != 0 ||
					e.Generation != 2 || e.Err != "" {
					t.Fatalf("compact event = %+v (compacts=%d)", e, n)
				}
			}

			// Reload reports on pools. The compaction above already
			// advanced the pool to generation 2, so the reload publishes
			// generation 3.
			if pool, ok := be.(*Pool); ok {
				if err := pool.Reload(""); err != nil {
					t.Fatal(err)
				}
				if n, e = rec.of(OpReload); n != 1 || e.Generation != 3 ||
					e.Shards != wantShards[name] || e.Err != "" {
					t.Fatalf("reload event = %+v (reloads=%d)", e, n)
				}
				if err := pool.Reload("/nonexistent/manifest.json"); err == nil {
					t.Fatal("bad reload succeeded")
				}
				if n, e = rec.of(OpReload); n != 2 || e.Err != "bad_manifest" || e.Generation != 3 {
					t.Fatalf("failed reload event = %+v, want bad_manifest with generation 3 still serving", e)
				}
			}

			// Even the closed fast-failure path is observed.
			if err := be.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := be.Search(ctx, kw, 5); !errors.Is(err, ErrClosed) {
				t.Fatalf("err = %v, want ErrClosed", err)
			}
			if n, e = rec.of(OpSearch); n != searchesBeforeClose+1 || e.Err != "closed" {
				t.Errorf("closed search event = %+v (searches=%d)", e, n)
			}
			if e.Shards != 0 {
				t.Errorf("closed event Shards = %d, want 0 on every runtime", e.Shards)
			}
		})
	}
}

// TestEnvelopeGates pins the request envelope on every runtime: each
// Backend method, called live, on a cancelled ctx, on a closed backend and
// on both at once, returns the gate's error in the documented precedence
// (dead ctx, then ErrClosed, then the method's own validation) and emits
// exactly one event carrying the method's Op, the error's class and the
// shard count — 0 whenever the gate failed, because no generation was
// reached. The rows named for the batch methods drive Batch over one item
// of the single-request method, which reports that item's event. Remote
// used to check the gates in the other order on six of its nine methods.
func TestEnvelopeGates(t *testing.T) {
	live := context.Background()
	cancelled, cancel := context.WithCancel(live)
	cancel()

	rec := &recordingObserver{}
	ref, backends := conformanceBackends(t, WithObserver(rec))
	kw := ref.Queries()[0].Keywords
	exp, err := ref.Expand(live, kw)
	if err != nil {
		t.Fatal(err)
	}
	doc := []Document{{Name: "gate.jpg", Texts: []DocumentText{{Lang: "en", Description: "gated"}}}}
	methods := []struct {
		name string
		op   Op
		// write marks the methods a Remote refuses with ErrReadOnly.
		write bool
		// batch marks a Batch of one item: it reports its item's event,
		// and none on a dead ctx, where no item runs.
		batch bool
		call  func(ctx context.Context, be Backend) error
	}{
		{"Search", OpSearch, false, false, func(ctx context.Context, be Backend) error { _, err := be.Search(ctx, kw, 5); return err }},
		{"SearchInto", OpSearch, false, false, func(ctx context.Context, be Backend) error { _, err := be.SearchInto(ctx, kw, 5, nil); return err }},
		{"SearchAll", OpSearch, false, true, func(ctx context.Context, be Backend) error {
			_, err := searchAll(ctx, be, []string{kw}, 5, BatchOptions{})
			return err
		}},
		{"Expand", OpExpand, false, false, func(ctx context.Context, be Backend) error { _, err := be.Expand(ctx, kw); return err }},
		{"ExpandAll", OpExpand, false, true, func(ctx context.Context, be Backend) error {
			_, err := expandAll(ctx, be, []string{kw}, BatchOptions{})
			return err
		}},
		{"SearchExpansion", OpSearch, false, false, func(ctx context.Context, be Backend) error {
			_, _, err := be.SearchExpansion(ctx, exp, 5)
			return err
		}},
		{"SearchExpansions", OpSearch, false, true, func(ctx context.Context, be Backend) error {
			_, err := searchExpansions(ctx, be, []*Expansion{exp}, 5, BatchOptions{})
			return err
		}},
		{"Ingest", OpIngest, true, false, func(ctx context.Context, be Backend) error { _, err := be.Ingest(ctx, doc); return err }},
		{"Compact", OpCompact, true, false, func(ctx context.Context, be Backend) error { _, err := be.Compact(ctx); return err }},
	}
	// The open states run first: Close is one-way.
	states := []struct {
		name   string
		ctx    context.Context
		closed bool
		want   error
	}{
		{"live", live, false, nil},
		{"cancelled", cancelled, false, context.Canceled},
		{"closed", live, true, ErrClosed},
		{"cancelled+closed", cancelled, true, context.Canceled},
	}
	for name, be := range backends {
		if name == "pool-1" {
			continue // pool-4 is the Pool under test
		}
		_, remote := be.(*Remote)
		for _, st := range states {
			if st.closed {
				if err := be.Close(); err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range methods {
				t.Run(name+"/"+st.name+"/"+m.name, func(t *testing.T) {
					want, wantShards := st.want, conformanceShards[name]
					switch {
					case want != nil:
						wantShards = 0
					case remote && m.write:
						want = ErrReadOnly
					}
					rec.drain()
					if err := m.call(st.ctx, be); !errors.Is(err, want) {
						t.Fatalf("err = %v, want %v", err, want)
					}
					events := rec.drain()
					if m.batch && st.ctx.Err() != nil {
						if len(events) != 0 {
							t.Fatalf("a batch on a dead ctx emitted %+v, want no event", events)
						}
						return
					}
					if len(events) != 1 {
						t.Fatalf("emitted %d events, want exactly one: %+v", len(events), events)
					}
					if e := events[0]; e.Op != m.op || e.Shards != wantShards || e.Err != ErrorClass(want) {
						t.Errorf("event = %+v, want Op %v, Shards %d, Err %q", e, m.op, wantShards, ErrorClass(want))
					}
				})
			}
		}
	}
}

// TestMetricsObserver drives the built-in observer end to end and checks
// both the programmatic snapshot and the Prometheus rendering.
func TestMetricsObserver(t *testing.T) {
	ctx := context.Background()
	m := NewMetricsObserver()
	ref, backends := conformanceBackends(t, WithObserver(m))
	kw := ref.Queries()[0].Keywords
	be := backends["client"]

	if _, err := be.Search(ctx, kw, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := be.Search(ctx, "#combine(", 5); err == nil {
		t.Fatal("invalid query succeeded")
	}
	if _, err := be.Expand(ctx, kw); err != nil {
		t.Fatal(err)
	}
	if _, err := be.Expand(ctx, kw); err != nil {
		t.Fatal(err)
	}
	if _, err := searchAll(ctx, be, []string{kw, kw, kw}, 5, BatchOptions{}); err != nil {
		t.Fatal(err)
	}

	// A failed expand counts as a request + error but never as a cache
	// outcome (a fast failure's zero-value CacheBypass must not pollute
	// the "caching disabled" signal).
	if _, err := be.Expand(ctx, kw, WithMaxFeatures(-1)); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("err = %v, want ErrInvalidOptions", err)
	}

	s := m.Snapshot()
	if s.Searches != 5 || s.SearchErrors != 1 {
		t.Errorf("snapshot searches = %d/%d errors, want 5/1", s.Searches, s.SearchErrors)
	}
	if s.Expands != 3 || s.ExpandErrors != 1 {
		t.Errorf("snapshot expands = %d/%d errors, want 3/1", s.Expands, s.ExpandErrors)
	}
	if s.Cache[CacheMiss] != 1 || s.Cache[CacheHit] != 1 || s.Cache[CacheBypass] != 0 {
		t.Errorf("snapshot cache = %v, want 1 miss, 1 hit, 0 bypass", s.Cache)
	}
	if s.Batches != 0 || s.BatchItems != 0 {
		t.Errorf("snapshot batches = %d with %d items, want none: a batch reports its items", s.Batches, s.BatchItems)
	}

	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`querygraph_requests_total{op="search"} 5`,
		`querygraph_request_errors_total{op="search",class="invalid_query"} 1`,
		`querygraph_expand_cache_total{outcome="hit"} 1`,
		`querygraph_expand_cache_total{outcome="miss"} 1`,
		`querygraph_requests_total{op="batch"} 0`,
		`querygraph_batch_items_total 0`,
		`querygraph_request_duration_seconds_count{op="search"} 5`,
		"# TYPE querygraph_requests_total counter",
		"# TYPE querygraph_search_duration_seconds histogram",
		`querygraph_search_duration_seconds_bucket{le="+Inf"} 5`,
		"querygraph_search_duration_seconds_count 5",
		`querygraph_expand_duration_seconds_bucket{le="+Inf"} 3`,
		"querygraph_expand_duration_seconds_count 3",
		"# TYPE querygraph_rpc_attempt_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsHistogramBuckets pins the cumulative-bucket rendering: an
// observation lands in every le bucket at or above its latency and none
// below, and the bucket boundaries are the exact internal bucket edges
// from hist.DefaultExposition.
func TestMetricsHistogramBuckets(t *testing.T) {
	m := NewMetricsObserver()
	m.Observe(Event{Op: OpSearch, Duration: 30 * time.Microsecond})
	m.Observe(Event{Op: OpSearch, Duration: 40 * time.Millisecond})

	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var les []float64
	var counts []uint64
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, `querygraph_search_duration_seconds_bucket{le="`) {
			continue
		}
		rest := strings.TrimPrefix(line, `querygraph_search_duration_seconds_bucket{le="`)
		boundary, count, ok := strings.Cut(rest, `"} `)
		if !ok {
			t.Fatalf("malformed bucket line %q", line)
		}
		n, err := strconv.ParseUint(count, 10, 64)
		if err != nil {
			t.Fatalf("bucket count in %q: %v", line, err)
		}
		counts = append(counts, n)
		if boundary == "+Inf" {
			les = append(les, math.Inf(1))
			continue
		}
		le, err := strconv.ParseFloat(boundary, 64)
		if err != nil {
			t.Fatalf("bucket boundary in %q: %v", line, err)
		}
		les = append(les, le)
	}
	if want := len(hist.DefaultExposition) + 1; len(les) != want {
		t.Fatalf("got %d bucket lines, want %d", len(les), want)
	}
	for i := range les {
		// Boundaries strictly increase and counts are cumulative.
		if i > 0 && (les[i] <= les[i-1] || counts[i] < counts[i-1]) {
			t.Errorf("bucket %d: le=%g count=%d not cumulative over le=%g count=%d",
				i, les[i], counts[i], les[i-1], counts[i-1])
		}
		// Each observation counts in every bucket whose boundary exceeds
		// its latency (boundaries are exclusive uppers).
		var want uint64
		for _, d := range []float64{30e-6, 40e-3} {
			if d < les[i] {
				want++
			}
		}
		if counts[i] != want {
			t.Errorf("bucket le=%g count = %d, want %d", les[i], counts[i], want)
		}
	}
	if counts[len(counts)-1] != 2 {
		t.Errorf("+Inf bucket = %d, want 2", counts[len(counts)-1])
	}
}

// TestErrorClass pins the label mapping the observers and metrics rely on.
func TestErrorClass(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{context.DeadlineExceeded, "timeout"},
		{context.Canceled, "canceled"},
		{ErrClosed, "closed"},
		{fmt.Errorf("wrap: %w", ErrInvalidQuery), "invalid_query"},
		{fmt.Errorf("wrap: %w", ErrInvalidOptions), "invalid_options"},
		{fmt.Errorf("wrap: %w", ErrBadManifest), "bad_manifest"},
		{fmt.Errorf("wrap: %w", ErrBadSnapshot), "bad_snapshot"},
		{errors.New("boom"), "internal"},
	}
	for _, tc := range cases {
		if got := ErrorClass(tc.err); got != tc.want {
			t.Errorf("ErrorClass(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
