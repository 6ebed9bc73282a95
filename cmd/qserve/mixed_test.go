package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	querygraph "github.com/querygraph/querygraph"
)

// TestMixedTrafficOverHTTP drives interleaved search, batch search,
// expansion (with retrieval), batch expansion and anonymous ingest through
// one server over real connections against a 4-shard pool whose
// auto-compactor folds the delta every other ingested document. Under
// -race this pins that live writes, background compactions and
// generation swaps are safe against the whole query mix. Every response
// must be 200, the generation must advance, and a fixed query must rank
// byte-identically to a pool that holds the same ingested documents in
// its delta and never compacted.
func TestMixedTrafficOverHTTP(t *testing.T) {
	const (
		workers   = 4
		perWorker = 100 // 3 of every 100 requests ingest, as in a live mix
		threshold = 2
	)
	cfg := querygraph.DefaultWorldConfig()
	cfg.Topics = 6
	cfg.ArticlesPerTopic = 10
	cfg.DocsPerTopic = 12
	cfg.Queries = 6
	w, err := querygraph.GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := querygraph.Build(w)
	if err != nil {
		t.Fatal(err)
	}
	// Two copies of one partition: compaction republishes the served
	// pool's manifest, so the never-compacted reference needs its own.
	served, reference := t.TempDir(), t.TempDir()
	for _, dir := range []string{served, reference} {
		if err := c.SaveShards(dir, 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	compacted := &compactionWaiter{done: make(chan struct{})}
	pool, err := querygraph.OpenPool(served+"/manifest.json",
		querygraph.WithAutoCompact(threshold), querygraph.WithObserver(compacted))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ts := httptest.NewServer(newServer(pool, 5*time.Second, nil))
	defer ts.Close()

	var keywords []string
	for _, q := range pool.Queries() {
		keywords = append(keywords, q.Keywords)
	}
	fixed := searchRequest{Query: keywords[0], K: 10}
	doc := liveDoc("", "zyzzogeton")
	post := func(path string, body any) (int, []byte, error) {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ingested int
	)
	for worker := 0; worker < workers; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := keywords[(worker+i)%len(keywords)]
				var path string
				var body any
				switch s := (worker*25 + i) % 100; {
				case s%33 == 0:
					path, body = "/v1/admin/ingest", ingestRequest{Documents: []querygraph.Document{doc}}
				case s%20 == 1:
					path, body = "/v1/search/batch", searchBatchRequest{Queries: keywords, K: 10}
				case s%20 == 2:
					path, body = "/v1/expand", expandRequest{Keywords: q, K: 10}
				case s%20 == 3:
					path, body = "/v1/expand/batch", expandBatchRequest{Keywords: keywords, K: 10}
				default:
					path, body = "/v1/search", searchRequest{Query: q, K: 10}
				}
				code, out, err := post(path, body)
				if err != nil || code != http.StatusOK {
					t.Errorf("worker %d request %d: POST %s = %d, %v: %s", worker, i, path, code, err, out)
					return
				}
				if path == "/v1/admin/ingest" {
					mu.Lock()
					ingested++
					mu.Unlock()
				}
			}
		}(worker)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The last ingest may have started a compaction that is still running.
	select {
	case <-compacted.done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%d compactions after %d ingests at threshold %d, want at least 2",
			compacted.n.Load(), ingested, threshold)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hz.Generation < 3 {
		t.Errorf("generation %d after at least 2 compactions, want >= 3", hz.Generation)
	}

	ref, err := querygraph.OpenPool(reference + "/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	docs := make([]querygraph.Document, ingested)
	for i := range docs {
		docs[i] = doc
	}
	if _, err := ref.Ingest(context.Background(), docs); err != nil {
		t.Fatal(err)
	}
	want := do(t, newServer(ref, 5*time.Second, nil), http.MethodPost, "/v1/search", fixed)
	if want.Code != http.StatusOK {
		t.Fatalf("reference search = %d: %s", want.Code, want.Body.String())
	}
	code, got, err := post("/v1/search", fixed)
	if err != nil || code != http.StatusOK {
		t.Fatalf("search after the compactions = %d, %v: %s", code, err, got)
	}
	if a, b := rankingOf(t, want.Body.Bytes()), rankingOf(t, got); !bytes.Equal(a, b) {
		t.Fatalf("%q ranks differently after %d compactions:\n got %s\nwant %s",
			fixed.Query, pool.Stats().Delta.Compactions, b, a)
	}
}

// compactionWaiter closes done once the backend has completed two
// non-empty compactions.
type compactionWaiter struct {
	n    atomic.Int32
	done chan struct{}
}

func (w *compactionWaiter) Observe(ev querygraph.Event) {
	if ev.Op == querygraph.OpCompact && ev.Err == "" && ev.Size > 0 && w.n.Add(1) == 2 {
		close(w.done)
	}
}

// rankingOf returns the raw "results" member of a /v1/search response.
func rankingOf(t *testing.T, body []byte) json.RawMessage {
	t.Helper()
	var resp struct {
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad search response %q: %v", body, err)
	}
	if len(resp.Results) == 0 {
		t.Fatalf("search response without results: %s", body)
	}
	return resp.Results
}
