package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	querygraph "github.com/querygraph/querygraph"
)

// panickyBatch is a backend whose Search panics on the batch's items —
// on the batch loop's worker goroutines, where no handler's recover
// reaches — and serves every other query.
type panickyBatch struct{ querygraph.Backend }

func (b panickyBatch) Search(ctx context.Context, query string, k int) ([]querygraph.Result, error) {
	if query == "a" || query == "b" || query == "c" {
		panic("kaboom")
	}
	return b.Backend.Search(ctx, query, k)
}

// TestBatchPanicContained: a panic inside a batch worker answers that
// request 500 internal — the value and stack go to the log, not to the
// client — and the server keeps serving.
func TestBatchPanicContained(t *testing.T) {
	real := serveClient(t)
	s := newServer(panickyBatch{real}, 5*time.Second, nil)
	var logged bytes.Buffer
	s.logger = slog.New(slog.NewTextHandler(&logged, nil))
	rec := do(t, s, http.MethodPost, "/v1/search/batch", searchBatchRequest{Queries: []string{"a", "b", "c"}, K: 5})
	if rec.Code != http.StatusInternalServerError || errorCode(t, rec) != "internal" {
		t.Fatalf("panicking batch answered %d %s, want 500 internal", rec.Code, rec.Body)
	}
	if strings.Contains(rec.Body.String(), "kaboom") {
		t.Errorf("the panic value leaked to the client: %s", rec.Body)
	}
	if out := logged.String(); !strings.Contains(out, "kaboom") || !strings.Contains(out, "panickyBatch") {
		t.Errorf("log lacks the panic value and stack:\n%s", out)
	}
	if rec := do(t, s, http.MethodPost, "/v1/search", searchRequest{Query: real.Queries()[0].Keywords, K: 5}); rec.Code != http.StatusOK {
		t.Errorf("search after the batch panic answered %d %s", rec.Code, rec.Body)
	}
}

// BenchmarkHTTPBatch is why the batch endpoint stays: 64 queries as one
// POST /v1/search/batch against the same 64 as /v1/search calls shared out
// among GOMAXPROCS callers on keep-alive connections, to a Client over the
// Backend conformance suite's world, loopback HTTP included.
func BenchmarkHTTPBatch(b *testing.B) {
	const items, k = 64, 15
	cfg := querygraph.DefaultWorldConfig()
	cfg.Topics, cfg.ArticlesPerTopic, cfg.DocsPerTopic, cfg.Queries, cfg.NoiseVocab = 6, 10, 14, 8, 60
	w, err := querygraph.GenerateWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	client, err := querygraph.Build(w)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	srv := httptest.NewServer(newServer(client, 5*time.Second, nil))
	defer srv.Close()
	procs := runtime.GOMAXPROCS(0)
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: procs}}
	defer hc.CloseIdleConnections()

	queries := make([]string, items)
	singles := make([][]byte, items)
	for i := range queries {
		queries[i] = client.Queries()[i%cfg.Queries].Keywords
		singles[i], _ = json.Marshal(searchRequest{Query: queries[i], K: k})
	}
	whole, _ := json.Marshal(searchBatchRequest{Queries: queries, K: k})
	post := func(path string, body []byte) error {
		resp, err := hc.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s answered %d", path, resp.StatusCode)
		}
		return nil
	}
	b.Run("batch", func(b *testing.B) {
		for b.Loop() {
			if err := post("/v1/search/batch", whole); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("singles", func(b *testing.B) {
		for b.Loop() {
			var next atomic.Int64
			errs := make(chan error, procs)
			for range procs {
				go func() {
					for i := next.Add(1) - 1; i < items; i = next.Add(1) - 1 {
						if err := post("/v1/search", singles[i]); err != nil {
							errs <- err
							return
						}
					}
					errs <- nil
				}()
			}
			for range procs {
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
