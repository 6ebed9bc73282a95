package querygraph

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/querygraph/querygraph/internal/corpus"
)

// liveSplit generates a world, splits its collection at a seed-dependent
// cut, and returns the monolithic reference client over every document,
// a base world holding only the head, and the tail as ingestable
// documents. The base benchmark's relevant lists are clamped to the base
// range (the store validates them against the corpus, and a live
// deployment's benchmark likewise predates ingest).
func liveSplit(t *testing.T, seed int64, cutFrac float64) (*Client, *World, []Document) {
	t.Helper()
	cfg := DefaultWorldConfig()
	cfg.Seed = seed
	cfg.Topics = 5
	cfg.ArticlesPerTopic = 8
	cfg.DocsPerTopic = 12
	cfg.Queries = 6
	cfg.NoiseVocab = 60
	w, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ref.Close() })

	docs := w.Collection.Docs()
	cut := int(float64(len(docs)) * cutFrac)
	if cut < 1 || cut >= len(docs) {
		t.Fatalf("cut %d leaves no base or no tail in %d docs", cut, len(docs))
	}
	base := *w
	baseColl, err := corpus.LoadCollection(docs[:cut])
	if err != nil {
		t.Fatal(err)
	}
	base.Collection = baseColl
	base.Queries = append(base.Queries[:0:0], w.Queries...)
	for i := range base.Queries {
		kept := base.Queries[i].Relevant[:0:0]
		for _, d := range base.Queries[i].Relevant {
			if int(d) < cut {
				kept = append(kept, d)
			}
		}
		base.Queries[i].Relevant = kept
	}
	tail := make([]Document, len(docs)-cut)
	for i, d := range docs[cut:] {
		tail[i] = d.Image
	}
	return ref, &base, tail
}

// searchGolden collects the reference ranking of every benchmark query.
func searchGolden(t *testing.T, be Backend, qs []Query) [][]Result {
	t.Helper()
	ctx := context.Background()
	out := make([][]Result, len(qs))
	for i, q := range qs {
		rs, err := be.Search(ctx, q.Keywords, MaxRank)
		if err != nil {
			t.Fatalf("search %q: %v", q.Keywords, err)
		}
		out[i] = rs
	}
	return out
}

// TestLiveIngestMatchesMonolithic is the equivalence property of the live
// index: a random split of the corpus into a base build plus ingested
// delta documents serves Search and expanded retrieval bit-identical to
// the monolithic build over the whole corpus — on the snapshot Client and
// the sharded Pool alike — and a compaction advances the generation
// without moving a single result.
func TestLiveIngestMatchesMonolithic(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		seed    int64
		cutFrac float64
	}{{seed: 3, cutFrac: 0.6}, {seed: 9, cutFrac: 0.35}} {
		t.Run(fmt.Sprintf("seed=%d", tc.seed), func(t *testing.T) {
			ref, base, tail := liveSplit(t, tc.seed, tc.cutFrac)
			qs := ref.Queries()
			keywords := make([]string, len(qs))
			for i, q := range qs {
				keywords[i] = q.Keywords
			}
			wantSearch := searchGolden(t, ref, qs)
			wantExp, err := ref.ExpandAll(ctx, keywords, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wantExpSearch, err := searchExpansions(ctx, ref, wantExp, MaxRank, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}

			client, err := Build(base)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			dir := t.TempDir()
			if err := client.SaveShards(dir, 3); err != nil {
				t.Fatal(err)
			}
			pool, err := OpenBackend(filepath.Join(dir, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()

			for name, be := range map[string]Backend{"client": client, "pool-3": pool} {
				// Two batches so the segment's append-merge path runs too.
				mid := len(tail) / 2
				for _, span := range [][]Document{tail[:mid], tail[mid:]} {
					if _, err := be.Ingest(ctx, span); err != nil {
						t.Fatalf("%s: ingest: %v", name, err)
					}
				}
				st := be.Stats()
				if st.Delta.Documents != len(tail) || st.Delta.PendingBytes <= 0 {
					t.Fatalf("%s: delta stats = %+v, want %d pending documents", name, st.Delta, len(tail))
				}

				deltaServed := searchGolden(t, be, qs)
				if !reflect.DeepEqual(deltaServed, wantSearch) {
					t.Fatalf("%s: base+delta search diverges from the monolithic build", name)
				}
				gotExp, err := expandAll(ctx, be, keywords, BatchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				gotExpSearch, err := searchExpansions(ctx, be, gotExp, MaxRank, BatchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotExpSearch, wantExpSearch) {
					t.Fatalf("%s: base+delta expanded retrieval diverges from the monolithic build", name)
				}

				cs, err := be.Compact(ctx)
				if err != nil {
					t.Fatalf("%s: compact: %v", name, err)
				}
				if cs.Compacted != len(tail) || cs.Generation != 2 {
					t.Fatalf("%s: compact stats = %+v, want %d compacted on generation 2", name, cs, len(tail))
				}
				st = be.Stats()
				if st.Delta.Documents != 0 || st.Delta.Generation != 2 || st.Delta.Compactions != 1 ||
					st.Documents != ref.Stats().Documents {
					t.Fatalf("%s: post-compaction stats = %+v (documents %d)", name, st.Delta, st.Documents)
				}
				if got := searchGolden(t, be, qs); !reflect.DeepEqual(got, deltaServed) {
					t.Fatalf("%s: results moved across compaction", name)
				}
			}
		})
	}
}

// TestEvaluateSearchesDelta pins that Client.Evaluate retrieves through
// the pinned serving generation like every other method: after ingesting
// documents that match an article title, its ranked ids are exactly
// Search's for the same title query — delta documents included — and a
// Compact moves neither.
func TestEvaluateSearchesDelta(t *testing.T) {
	ctx := context.Background()
	_, base, _ := liveSplit(t, 3, 0.6)
	client, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	q := client.Queries()[0]
	entities := client.Link(q.Keywords)
	if len(entities) == 0 {
		t.Fatalf("query %q links no article", q.Keywords)
	}
	articles := make([]NodeID, len(entities))
	titleQuery := "#combine("
	for i, e := range entities {
		articles[i] = e.ID
		titleQuery += " #1(" + e.Title + ")"
	}
	titleQuery += " )"

	baseDocs := client.Stats().Documents
	docs := make([]Document, 3)
	for i := range docs {
		docs[i] = Document{
			Name:  fmt.Sprintf("evaluate-%d.jpg", i),
			Texts: []DocumentText{{Lang: "en", Description: entities[0].Title + " " + entities[0].Title}},
		}
	}
	if _, err := client.Ingest(ctx, docs); err != nil {
		t.Fatal(err)
	}

	var before []int32
	for _, stage := range []string{"with delta", "after compact"} {
		rs, err := client.Search(ctx, titleQuery, MaxRank)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int32, len(rs))
		ingested := 0
		for i, r := range rs {
			want[i] = r.Doc
			if int(r.Doc) >= baseDocs {
				ingested++
			}
		}
		if ingested == 0 {
			t.Fatalf("%s: no ingested document in the top %d of %q; the test has no teeth", stage, MaxRank, titleQuery)
		}
		_, ranked, err := client.Evaluate(ctx, q.Keywords, articles, q.Relevant)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ranked, want) {
			t.Fatalf("%s: Evaluate ranked %v, Search of the same title query %v", stage, ranked, want)
		}
		if before != nil && !reflect.DeepEqual(ranked, before) {
			t.Fatalf("Evaluate moved at Compact: %v, then %v", before, ranked)
		}
		before = ranked
		if cs, err := client.Compact(ctx); err != nil {
			t.Fatal(err)
		} else if stage == "with delta" && cs.Compacted != len(docs) {
			t.Fatalf("compacted %d documents, want %d", cs.Compacted, len(docs))
		}
	}
}

// TestLiveIngestBatchAtomic pins the all-or-nothing batch contract: a
// batch with a duplicate external id admits nothing, and a batch past
// the capacity answers ErrDeltaFull with the segment unchanged.
func TestLiveIngestBatchAtomic(t *testing.T) {
	ctx := context.Background()
	ref, base, tail := liveSplit(t, 17, 0.5)
	_ = ref
	client, err := Build(base, WithDeltaCapacity(len(tail)))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Duplicate against the base corpus: nothing lands.
	dup := []Document{tail[0], {ID: base.Collection.Docs()[0].Image.ID, Name: "dup.jpg"}}
	if _, err := client.Ingest(ctx, dup); !isInvalidOptions(err) {
		t.Fatalf("duplicate-id batch err = %v, want ErrInvalidOptions", err)
	}
	if st := client.Stats(); st.Delta.Documents != 0 {
		t.Fatalf("rejected batch left %d documents in the delta", st.Delta.Documents)
	}

	// Over capacity: ErrDeltaFull, segment unchanged.
	if _, err := client.Ingest(ctx, tail); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Ingest(ctx, tail[:1]); !isDeltaFull(err) {
		t.Fatalf("over-capacity err = %v, want ErrDeltaFull", err)
	}
	if st := client.Stats(); st.Delta.Documents != len(tail) {
		t.Fatalf("over-capacity batch changed the segment: %d docs", st.Delta.Documents)
	}

}

func isInvalidOptions(err error) bool { return err != nil && ErrorClass(err) == "invalid_options" }
func isDeltaFull(err error) bool      { return err != nil && ErrorClass(err) == "delta_full" }

// TestLiveRace races ingest, compaction, reload and search on a sharded
// pool and then proves the ledger balances: every successfully ingested
// document is present exactly once after the final compaction — none
// dropped by a racing reload or compaction, none double-counted.
func TestLiveRace(t *testing.T) {
	ctx := context.Background()
	_, base, _ := liveSplit(t, 23, 0.7)
	client, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := client.SaveShards(dir, 2); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	be, err := OpenBackend(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	pool := be.(*Pool)
	defer pool.Close()
	baseDocs := pool.Stats().Documents
	kw := pool.Queries()[0].Keywords

	var (
		ingested atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
	)
	worker := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		g := g
		worker(func(i int) error {
			doc := Document{
				Name:  fmt.Sprintf("race-%d-%d.jpg", g, i),
				Texts: []DocumentText{{Lang: "en", Description: fmt.Sprintf("racer %d round %d", g, i)}},
			}
			if _, err := pool.Ingest(ctx, []Document{doc}); err != nil {
				return fmt.Errorf("ingest: %w", err)
			}
			ingested.Add(1)
			return nil
		})
	}
	worker(func(i int) error {
		if _, err := pool.Search(ctx, kw, 5); err != nil {
			return fmt.Errorf("search: %w", err)
		}
		return nil
	})
	worker(func(i int) error {
		if _, err := pool.Compact(ctx); err != nil {
			return fmt.Errorf("compact: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	worker(func(i int) error {
		if err := pool.Reload(""); err != nil {
			return fmt.Errorf("reload: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
		return nil
	})

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	if _, err := pool.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	want := baseDocs + int(ingested.Load())
	if got := pool.Stats().Documents; got != want {
		t.Fatalf("after the dust settles: %d documents, want %d (base %d + %d ingested)",
			got, want, baseDocs, ingested.Load())
	}
	if st := pool.Stats(); st.Delta.Documents != 0 {
		t.Fatalf("final compaction left %d delta documents", st.Delta.Documents)
	}
}

// compactProbe is an Observer that records the class of every OpCompact
// event and, when panics is set, panics on each one.
type compactProbe struct {
	panics  bool
	mu      sync.Mutex
	classes []string
}

func (p *compactProbe) Observe(ev Event) {
	if ev.Op != OpCompact {
		return
	}
	p.mu.Lock()
	p.classes = append(p.classes, ev.Err)
	p.mu.Unlock()
	if p.panics {
		panic("observer panics on OpCompact")
	}
}

func (p *compactProbe) last() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.classes) == 0 {
		return "none"
	}
	return p.classes[len(p.classes)-1]
}

// TestAutoCompactorContainsPanics pins that a panic on the background
// compaction's goroutine never ends the process: neither one in an
// observer handling the compaction's event, nor one in the compaction's
// own work, which is reported as an internal OpCompact and leaves the old
// generation and its delta serving. Either way the next threshold
// crossing compacts again.
func TestAutoCompactorContainsPanics(t *testing.T) {
	ctx := context.Background()
	_, base, tail := liveSplit(t, 5, 0.6)
	kw := base.Queries[0].Keywords
	ingest := func(t *testing.T, c *Client, doc Document) {
		t.Helper()
		if _, err := c.Ingest(ctx, []Document{doc}); err != nil {
			t.Fatalf("ingest: %v", err)
		}
		c.bg.Wait() // the compaction the ingest started, if any
		if _, err := c.Search(ctx, kw, 5); err != nil {
			t.Fatalf("search: %v", err)
		}
	}

	t.Run("observer", func(t *testing.T) {
		probe := &compactProbe{panics: true}
		c, err := Build(base, WithObserver(probe), WithAutoCompact(1))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i, doc := range tail[:3] {
			ingest(t, c, doc)
			if got := c.Stats().Delta.Compactions; got != uint64(i+1) {
				t.Fatalf("after ingest %d: %d compactions, want %d", i, got, i+1)
			}
		}
		if probe.last() != "" {
			t.Fatalf("compaction class = %q, want success", probe.last())
		}
	})

	t.Run("work", func(t *testing.T) {
		probe := &compactProbe{}
		c, err := Build(base, WithObserver(probe), WithAutoCompact(1))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		gen := c.Stats().Delta.Generation
		// A nil system option panics when the compacted generation is
		// loaded, inside the compaction's work.
		opts := c.cfg.sys
		c.cfg.sys = append(opts[:len(opts):len(opts)], nil)
		ingest(t, c, tail[0])
		if got := probe.last(); got != "internal" {
			t.Fatalf("compaction class = %q, want internal", got)
		}
		if st := c.Stats().Delta; st.Documents != 1 || st.Generation != gen || st.Compactions != 0 {
			t.Fatalf("after the panic: delta %+v, want 1 document at generation %d", st, gen)
		}

		c.cfg.sys = opts
		ingest(t, c, tail[1])
		if got := probe.last(); got != "" {
			t.Fatalf("retried compaction class = %q, want success", got)
		}
		if st := c.Stats().Delta; st.Documents != 0 || st.Generation != gen+1 || st.Compactions != 1 {
			t.Fatalf("after the retry: delta %+v, want empty at generation %d", st, gen+1)
		}
	})
}
