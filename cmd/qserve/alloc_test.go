//go:build !race

package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"testing"
	"time"

	querygraph "github.com/querygraph/querygraph"
)

// nullWriter is a reusable ResponseWriter: httptest's recorder allocates
// its body buffer per response, which would drown the number under test.
type nullWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *nullWriter) Header() http.Header  { return w.header }
func (w *nullWriter) WriteHeader(code int) { w.status = code }
func (w *nullWriter) Write(p []byte) (int, error) {
	w.body = append(w.body[:0], p...)
	return len(p), nil
}

// replayBody is a rewindable in-memory request body.
type replayBody struct {
	data []byte
	off  int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *replayBody) Close() error { return nil }

// searchFixture is a server over the given world with the metrics
// observer attached (its hooks are atomic-only by design), one replayable
// /v1/search request carrying its own valid X-Request-ID — as a traced
// caller would, so no ID string is minted — and a reusable writer.
func searchFixture(tb testing.TB, cfg querygraph.WorldConfig) (*server, *http.Request, *replayBody, *nullWriter) {
	tb.Helper()
	w, err := querygraph.GenerateWorld(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	metrics := querygraph.NewMetricsObserver()
	c, err := querygraph.Build(w, querygraph.WithObserver(metrics))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	raw, err := json.Marshal(searchRequest{Query: c.Queries()[0].Keywords, K: 10})
	if err != nil {
		tb.Fatal(err)
	}
	body := &replayBody{data: raw}
	req := &http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: "/v1/search"},
		Header: http.Header{"Content-Type": {"application/json"}, "X-Request-Id": {"00000000deadbeef"}},
		Body:   body,
	}
	return newServer(c, 5*time.Second, metrics), req, body, &nullWriter{header: make(http.Header)}
}

// TestMiddlewareAllocOverhead pins what ServeHTTP may add to a request
// whose trace is sampled out: at most one allocation over the bare mux,
// the X-Request-ID echo (http.Header.Set stores a fresh one-element
// slice). The pooled statusWriter, the sampling counter and the deferred
// panic containment must stay free. Excluded under -race because the race
// runtime instruments allocation.
func TestMiddlewareAllocOverhead(t *testing.T) {
	cfg := querygraph.DefaultWorldConfig()
	cfg.Topics = 6
	cfg.ArticlesPerTopic = 10
	cfg.DocsPerTopic = 16
	cfg.Queries = 6
	cfg.NoiseVocab = 60
	s, req, body, rw := searchFixture(t, cfg)
	s.sample = 0

	measure := func(h http.Handler) float64 {
		run := func() {
			body.off, req.Body, rw.status = 0, body, 0
			h.ServeHTTP(rw, req)
			if rw.status != http.StatusOK {
				t.Fatalf("status = %d, body %s", rw.status, rw.body)
			}
		}
		for i := 0; i < 64; i++ { // warm the pools and the query-plan cache
			run()
		}
		return testing.AllocsPerRun(1000, run)
	}
	bare, wrapped := measure(s.mux), measure(s)
	var resp searchResponse
	if err := json.Unmarshal(rw.body, &resp); err != nil || len(resp.Results) == 0 {
		t.Fatalf("search returned no results (%q, %v); the measurement would be vacuous", rw.body, err)
	}
	if wrapped > bare+1 {
		t.Fatalf("sampled-out ServeHTTP allocs/op = %v over a bare mux's %v, want at most 1 more (the header echo)", wrapped, bare)
	}
}

// BenchmarkSearchHandler is the cost of one /v1/search request inside the
// handler — decode, typed request, encode — on the default world, without
// net/http around it; DESIGN.md's fast-path decision quotes it.
func BenchmarkSearchHandler(b *testing.B) {
	s, req, body, rw := searchFixture(b, querygraph.DefaultWorldConfig())
	b.ReportAllocs()
	for b.Loop() {
		body.off, req.Body = 0, body
		s.handleSearch(rw, req)
	}
	if rw.status != http.StatusOK {
		b.Fatalf("status = %d, body %s", rw.status, rw.body)
	}
}
