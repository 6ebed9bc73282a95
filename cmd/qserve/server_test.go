package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	querygraph "github.com/querygraph/querygraph"
)

var (
	clientOnce sync.Once
	testClient *querygraph.Client
)

func serveClient(t *testing.T) *querygraph.Client {
	t.Helper()
	clientOnce.Do(func() {
		cfg := querygraph.DefaultWorldConfig()
		cfg.Topics = 8
		cfg.ArticlesPerTopic = 12
		cfg.DocsPerTopic = 20
		cfg.Queries = 10
		cfg.NoiseVocab = 80
		w, err := querygraph.GenerateWorld(cfg)
		if err != nil {
			panic(err)
		}
		c, err := querygraph.Build(w)
		if err != nil {
			panic(err)
		}
		testClient = c
	})
	return testClient
}

func testServer(t *testing.T) *server {
	t.Helper()
	return newServer(serveClient(t), 5*time.Second, nil)
}

// do posts body (JSON-encoded if non-nil) with the required JSON content
// type and returns the recorder.
func do(t *testing.T, s *server, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func decodeInto(t *testing.T, rec *httptest.ResponseRecorder, into any) {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
		t.Fatalf("bad response JSON %q: %v", rec.Body.String(), err)
	}
}

func errorCode(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var resp errorResponse
	decodeInto(t, rec, &resp)
	if resp.Error.Message == "" {
		t.Errorf("error response without message: %q", rec.Body.String())
	}
	return resp.Error.Code
}

func TestHealthz(t *testing.T) {
	rec := do(t, testServer(t), http.MethodGet, "/v1/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	var resp healthzResponse
	decodeInto(t, rec, &resp)
	if resp.Status != "ok" || resp.Articles <= 0 || resp.Documents <= 0 {
		t.Errorf("healthz = %+v, want ok with a loaded world", resp)
	}
}

func TestStats(t *testing.T) {
	rec := do(t, testServer(t), http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	var resp statsResponse
	decodeInto(t, rec, &resp)
	if resp.Articles <= 0 || resp.Documents <= 0 || resp.BenchmarkQueries <= 0 {
		t.Errorf("stats = %+v, want a loaded world with a benchmark", resp)
	}
	if resp.ExpandCache.Capacity <= 0 {
		t.Errorf("stats report a disabled cache: %+v", resp.ExpandCache)
	}
}

func TestSearchMatchesClient(t *testing.T) {
	s := testServer(t)
	q := serveClient(t).Queries()[0]
	rec := do(t, s, http.MethodPost, "/v1/search", searchRequest{Query: q.Keywords, K: 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200", rec.Code, rec.Body.String())
	}
	var resp searchResponse
	decodeInto(t, rec, &resp)

	want, err := serveClient(t).Search(context.Background(), q.Keywords, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(want))
	}
	for i, r := range resp.Results {
		if r.Doc != want[i].Doc {
			t.Errorf("rank %d: doc %d, want %d", i, r.Doc, want[i].Doc)
		}
	}
}

func TestSearchBatchAlignment(t *testing.T) {
	s := testServer(t)
	qs := serveClient(t).Queries()
	queries := []string{qs[0].Keywords, qs[1].Keywords, qs[2].Keywords}
	rec := do(t, s, http.MethodPost, "/v1/search/batch", searchBatchRequest{Queries: queries, K: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200", rec.Code, rec.Body.String())
	}
	var resp searchBatchResponse
	decodeInto(t, rec, &resp)
	if len(resp.Results) != len(queries) {
		t.Fatalf("got %d rankings for %d queries", len(resp.Results), len(queries))
	}
	for i, q := range queries {
		want, err := serveClient(t).Search(context.Background(), q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results[i]) != len(want) {
			t.Errorf("query %d: %d results, want %d", i, len(resp.Results[i]), len(want))
		}
	}
}

func TestExpandWithRetrieval(t *testing.T) {
	s := testServer(t)
	q := serveClient(t).Queries()[0]
	max := 5
	rec := do(t, s, http.MethodPost, "/v1/expand", expandRequest{
		Keywords:     q.Keywords,
		K:            10,
		expandParams: expandParams{MaxFeatures: &max},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200", rec.Code, rec.Body.String())
	}
	var resp expandResponse
	decodeInto(t, rec, &resp)
	if resp.Keywords != q.Keywords {
		t.Errorf("echoed keywords %q, want %q", resp.Keywords, q.Keywords)
	}
	if len(resp.Entities) == 0 {
		t.Error("no entities linked")
	}
	if len(resp.Features) > max {
		t.Errorf("%d features, want at most %d", len(resp.Features), max)
	}
	if resp.Results == nil {
		t.Error("k > 0 should attach retrieval results")
	}

	// An absurd k is clamped, not handed to the engine verbatim.
	rec = do(t, s, http.MethodPost, "/v1/expand", expandRequest{Keywords: q.Keywords, K: 100000000})
	if rec.Code != http.StatusOK {
		t.Fatalf("huge-k status = %d (%s), want 200", rec.Code, rec.Body.String())
	}
	var clamped expandResponse
	decodeInto(t, rec, &clamped)
	if len(clamped.Results) > 1000 {
		t.Errorf("huge k returned %d results, want the clamp at 1000", len(clamped.Results))
	}
}

func TestExpandBatchAttachesRetrieval(t *testing.T) {
	s := testServer(t)
	qs := serveClient(t).Queries()
	rec := do(t, s, http.MethodPost, "/v1/expand/batch", expandBatchRequest{
		Keywords: []string{qs[5].Keywords, qs[6].Keywords},
		K:        4,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200", rec.Code, rec.Body.String())
	}
	var resp expandBatchResponse
	decodeInto(t, rec, &resp)
	if len(resp.Expansions) != 2 {
		t.Fatalf("got %d expansions, want 2", len(resp.Expansions))
	}
	for i, exp := range resp.Expansions {
		if len(exp.Results) == 0 {
			t.Errorf("expansion %d: k > 0 should attach retrieval results", i)
		}
		if len(exp.Results) > 4 {
			t.Errorf("expansion %d: %d results, want at most k=4", i, len(exp.Results))
		}
	}
}

func TestExpandBatchWarmsCache(t *testing.T) {
	s := testServer(t)
	qs := serveClient(t).Queries()
	keywords := []string{qs[3].Keywords, qs[3].Keywords, qs[4].Keywords}
	rec := do(t, s, http.MethodPost, "/v1/expand/batch", expandBatchRequest{Keywords: keywords})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200", rec.Code, rec.Body.String())
	}
	var resp expandBatchResponse
	decodeInto(t, rec, &resp)
	if len(resp.Expansions) != len(keywords) {
		t.Fatalf("got %d expansions for %d keywords", len(resp.Expansions), len(keywords))
	}
	// A second pass over the same keywords is served from the cache.
	before := serveClient(t).CacheStats().Hits
	rec = do(t, s, http.MethodPost, "/v1/expand/batch", expandBatchRequest{Keywords: keywords})
	if rec.Code != http.StatusOK {
		t.Fatalf("warm pass status = %d, want 200", rec.Code)
	}
	if after := serveClient(t).CacheStats().Hits; after < before+uint64(len(keywords)) {
		t.Errorf("cache hits %d -> %d, want at least %d more", before, after, len(keywords))
	}
}

func TestErrorModel(t *testing.T) {
	s := testServer(t)
	t.Run("malformed body", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader("{not json"))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", rec.Code)
		}
		if code := errorCode(t, rec); code != "invalid_body" {
			t.Errorf("code = %q, want invalid_body", code)
		}
	})
	t.Run("invalid query", func(t *testing.T) {
		rec := do(t, s, http.MethodPost, "/v1/search", searchRequest{Query: "#combine(unclosed"})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", rec.Code)
		}
		if code := errorCode(t, rec); code != "invalid_query" {
			t.Errorf("code = %q, want invalid_query", code)
		}
	})
	t.Run("invalid options", func(t *testing.T) {
		lo, hi := 0.9, 0.1
		rec := do(t, s, http.MethodPost, "/v1/expand", expandRequest{
			Keywords:     "anything",
			expandParams: expandParams{MinCategoryRatio: &lo, MaxCategoryRatio: &hi},
		})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", rec.Code)
		}
		if code := errorCode(t, rec); code != "invalid_options" {
			t.Errorf("code = %q, want invalid_options", code)
		}
	})
	t.Run("half-set band", func(t *testing.T) {
		lo := 0.2
		rec := do(t, s, http.MethodPost, "/v1/expand", expandRequest{
			Keywords:     "anything",
			expandParams: expandParams{MinCategoryRatio: &lo},
		})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", rec.Code)
		}
	})
	t.Run("method not allowed", func(t *testing.T) {
		rec := do(t, s, http.MethodGet, "/v1/search", nil)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("status = %d, want 405", rec.Code)
		}
	})
}

// TestRequestTimeout pins the 408 contract: a request whose deadline has
// passed before (or while) the pipeline runs gets a JSON timeout error,
// for both single and batch endpoints.
func TestRequestTimeout(t *testing.T) {
	// A server whose per-request budget is one nanosecond times out
	// deterministically at the first context check.
	s := newServer(serveClient(t), time.Nanosecond, nil)
	q := serveClient(t).Queries()[0]

	for _, tc := range []struct {
		name, path string
		body       any
	}{
		{"search", "/v1/search", searchRequest{Query: q.Keywords, K: 5}},
		{"search batch", "/v1/search/batch", searchBatchRequest{Queries: []string{q.Keywords}}},
		{"expand", "/v1/expand", expandRequest{Keywords: q.Keywords}},
		{"expand batch", "/v1/expand/batch", expandBatchRequest{Keywords: []string{q.Keywords}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, http.MethodPost, tc.path, tc.body)
			if rec.Code != http.StatusRequestTimeout {
				t.Fatalf("status = %d (%s), want 408", rec.Code, rec.Body.String())
			}
			if code := errorCode(t, rec); code != "timeout" {
				t.Errorf("code = %q, want timeout", code)
			}
		})
	}

	// timeout_ms can only lower the budget, and a 1 ms budget on a batch
	// of many distinct cold expansions runs out mid-batch.
	big := newServer(serveClient(t), 5*time.Second, nil)
	keywords := make([]string, 500)
	for i := range keywords {
		keywords[i] = q.Keywords + " uncached variant " + strings.Repeat("x", i%7+1) + string(rune('a'+i%26))
	}
	rec := do(t, big, http.MethodPost, "/v1/expand/batch", expandBatchRequest{Keywords: keywords, TimeoutMS: 1})
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("mid-batch status = %d (%s), want 408", rec.Code, rec.Body.String())
	}
}

// TestExpandDeadlineReachesTheMiner: one request may ask for cycles of
// length 8, whose enumeration costs tens of milliseconds even on the test
// world, and its deadline must stop that enumeration instead of waiting it
// out: the run used to finish regardless and answer 200 long after.
func TestExpandDeadlineReachesTheMiner(t *testing.T) {
	s, maxLen := testServer(t), 8
	q := serveClient(t).Queries()[0]
	long := expandRequest{Keywords: q.Keywords, expandParams: expandParams{MaxCycleLen: &maxLen}}

	// The premise, as a count and not a clock: at about a microsecond per
	// cycle this request is worth well over the 1 ms it is about to get.
	var resp expandResponse
	rec := do(t, s, http.MethodPost, "/v1/expand", long)
	if decodeInto(t, rec, &resp); rec.Code != http.StatusOK || resp.CyclesConsidered < 20000 {
		t.Fatalf("status %d, %d cycles: the world must make an 8-cycle enumeration long", rec.Code, resp.CyclesConsidered)
	}

	long.Keywords += " again" // the same entities under a cold cache key
	long.TimeoutMS = 1
	rec = do(t, s, http.MethodPost, "/v1/expand", long)
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status = %d (%s), want 408", rec.Code, rec.Body.String())
	}
	if code := errorCode(t, rec); code != "timeout" {
		t.Errorf("code = %q, want timeout", code)
	}
}

// TestClientClosedRequest pins the 499 contract: when the requester's own
// context dies (the connection went away), the handler reports the
// nginx-style 499 rather than a timeout.
func TestClientClosedRequest(t *testing.T) {
	s := testServer(t)
	q := serveClient(t).Queries()[0]
	body, err := json.Marshal(searchRequest{Query: q.Keywords, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status = %d (%s), want 499", rec.Code, rec.Body.String())
	}
	if code := errorCode(t, rec); code != "client_closed_request" {
		t.Errorf("code = %q, want client_closed_request", code)
	}
}

// TestGracefulShutdown drives the real http.Server wiring: an in-flight
// request is drained before Shutdown returns.
func TestGracefulShutdown(t *testing.T) {
	s := testServer(t)
	srv := httptest.NewServer(s)
	q := serveClient(t).Queries()[0]
	body, _ := json.Marshal(searchRequest{Query: q.Keywords, K: 5})

	resp, err := http.Post(srv.URL+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	srv.Close() // drains like Shutdown; a hang here fails the test by timeout
}

// TestShutdownClosesBackend pins the lifecycle satellite: the shutdown
// sequence drains the HTTP server and then calls Backend.Close, so the
// generation/refcount state is retired rather than abandoned — observable
// as post-shutdown requests failing with ErrClosed.
func TestShutdownClosesBackend(t *testing.T) {
	cfg := querygraph.DefaultWorldConfig()
	cfg.Topics = 4
	cfg.ArticlesPerTopic = 8
	cfg.DocsPerTopic = 8
	cfg.Queries = 4
	cfg.NoiseVocab = 40
	w, err := querygraph.GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := querygraph.Build(w)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.SaveShards(dir, 2); err != nil {
		t.Fatal(err)
	}
	pool, err := querygraph.OpenPool(dir + "/manifest.json")
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(newServer(pool, 5*time.Second, nil))
	q := c.Queries()[0]
	body, _ := json.Marshal(searchRequest{Query: q.Keywords, K: 5})
	resp, err := http.Post(srv.URL+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := drainAndClose(ctx, srv.Config, pool); err != nil {
		t.Fatalf("drainAndClose: %v", err)
	}
	if _, err := pool.Search(context.Background(), q.Keywords, 5); !errors.Is(err, querygraph.ErrClosed) {
		t.Fatalf("post-shutdown Search err = %v, want ErrClosed", err)
	}
	if gen := pool.Generation(); gen != 0 {
		t.Errorf("post-shutdown generation = %d, want 0 (backend retired)", gen)
	}
	// drainAndClose is idempotent about the backend: a second Close is nil.
	if err := pool.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestClosedBackend503 pins the HTTP mapping of ErrClosed: a request that
// races shutdown and reaches a retired backend is answered 503
// shutting_down, not a generic 500.
func TestClosedBackend503(t *testing.T) {
	cfg := querygraph.DefaultWorldConfig()
	cfg.Topics = 4
	cfg.ArticlesPerTopic = 8
	cfg.DocsPerTopic = 8
	cfg.Queries = 4
	cfg.NoiseVocab = 40
	w, err := querygraph.GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := querygraph.Build(w)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(c, 5*time.Second, nil)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rec := do(t, s, http.MethodPost, "/v1/search", searchRequest{Query: "anything", K: 3})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", rec.Code, rec.Body.String())
	}
	if code := errorCode(t, rec); code != "shutting_down" {
		t.Errorf("code = %q, want shutting_down", code)
	}
}

// TestMetricsEndpoint drives the observer-instrumented server and asserts
// GET /v1/metrics serves live Prometheus counters that increment with
// traffic.
func TestMetricsEndpoint(t *testing.T) {
	cfg := querygraph.DefaultWorldConfig()
	cfg.Topics = 4
	cfg.ArticlesPerTopic = 8
	cfg.DocsPerTopic = 8
	cfg.Queries = 4
	cfg.NoiseVocab = 40
	w, err := querygraph.GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	metrics := querygraph.NewMetricsObserver()
	c, err := querygraph.Build(w, querygraph.WithObserver(metrics))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := newServer(c, 5*time.Second, metrics)

	fetch := func() string {
		t.Helper()
		rec := do(t, s, http.MethodGet, "/v1/metrics", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("metrics status = %d (%s), want 200", rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("metrics Content-Type = %q, want text/plain", ct)
		}
		return rec.Body.String()
	}
	if text := fetch(); !strings.Contains(text, `querygraph_requests_total{op="search"} 0`) {
		t.Fatalf("fresh metrics missing zeroed search counter:\n%s", text)
	}

	q := c.Queries()[0]
	rec := do(t, s, http.MethodPost, "/v1/search", searchRequest{Query: q.Keywords, K: 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("search status = %d", rec.Code)
	}
	rec = do(t, s, http.MethodPost, "/v1/expand", expandRequest{Keywords: q.Keywords})
	if rec.Code != http.StatusOK {
		t.Fatalf("expand status = %d", rec.Code)
	}
	rec = do(t, s, http.MethodPost, "/v1/search", searchRequest{Query: "#combine("})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad search status = %d", rec.Code)
	}

	text := fetch()
	for _, want := range []string{
		`querygraph_requests_total{op="search"} 2`,
		`querygraph_requests_total{op="expand"} 1`,
		`querygraph_request_errors_total{op="search",class="invalid_query"} 1`,
		`querygraph_expand_cache_total{outcome="miss"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics after traffic missing %q:\n%s", want, text)
		}
	}

	// A server without an attached observer has no metrics route.
	bare := newServer(c, 5*time.Second, nil)
	if rec := do(t, bare, http.MethodGet, "/v1/metrics", nil); rec.Code != http.StatusNotFound {
		t.Errorf("metrics without observer: status = %d, want 404", rec.Code)
	}
}

// poolServer builds a sharded pool over a small world and wraps it in a
// server; it returns the pool and a second manifest (a different world)
// to reload into.
// buildManifest generates a small sharded world and returns its manifest
// path.
func buildManifest(t *testing.T, seed int64, shards int) string {
	t.Helper()
	cfg := querygraph.DefaultWorldConfig()
	cfg.Seed = seed
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
	dir := t.TempDir()
	if err := c.SaveShards(dir, shards); err != nil {
		t.Fatal(err)
	}
	return dir + "/manifest.json"
}

func poolServer(t *testing.T) (*server, *querygraph.Pool, string) {
	t.Helper()
	manifestA := buildManifest(t, 3, 2)
	manifestB := buildManifest(t, 9, 3)
	pool, err := querygraph.OpenPool(manifestA)
	if err != nil {
		t.Fatal(err)
	}
	return newServer(pool, 5*time.Second, nil), pool, manifestB
}

// TestContentTypeEnforced pins the 415 contract: every POST endpoint
// rejects a missing or non-JSON Content-Type before reading the body.
func TestContentTypeEnforced(t *testing.T) {
	s := testServer(t)
	q := serveClient(t).Queries()[0]
	body, err := json.Marshal(searchRequest{Query: q.Keywords, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/search", "/v1/search/batch", "/v1/expand", "/v1/expand/batch"} {
		for _, ct := range []string{"", "text/plain", "application/x-www-form-urlencoded", "application/jsonx"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			if ct != "" {
				req.Header.Set("Content-Type", ct)
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusUnsupportedMediaType {
				t.Fatalf("%s with Content-Type %q: status = %d (%s), want 415",
					path, ct, rec.Code, rec.Body.String())
			}
			if code := errorCode(t, rec); code != "unsupported_media_type" {
				t.Errorf("%s: code = %q, want unsupported_media_type", path, code)
			}
		}
	}
	// Parameters on the media type are fine.
	req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("charset parameter rejected: status = %d (%s)", rec.Code, rec.Body.String())
	}
}

// TestRequestBodyCap pins the 413 contract: a body over the 1 MiB cap is
// refused with request_too_large, not a generic decode error.
func TestRequestBodyCap(t *testing.T) {
	s := testServer(t)
	huge := bytes.Repeat([]byte("x"), maxRequestBody+1024)
	body := []byte(`{"query":"` + string(huge) + `"}`)
	req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d (%s), want 413", rec.Code, rec.Body.String())
	}
	if code := errorCode(t, rec); code != "request_too_large" {
		t.Errorf("code = %q, want request_too_large", code)
	}
	// A body exactly at the cap still decodes (and fails later on its own
	// merits, not on size).
	ok := bytes.Repeat([]byte("y"), 1024)
	req = httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(
		[]byte(`{"query":"`+string(ok)+`","k":1}`)))
	req.Header.Set("Content-Type", "application/json")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("in-cap body: status = %d (%s), want 200", rec.Code, rec.Body.String())
	}
}

// TestReloadRequiresPool: a single-snapshot server answers 409 to the
// admin reload endpoint.
func TestReloadRequiresPool(t *testing.T) {
	rec := do(t, testServer(t), http.MethodPost, "/v1/admin/reload", nil)
	if rec.Code != http.StatusConflict {
		t.Fatalf("status = %d (%s), want 409", rec.Code, rec.Body.String())
	}
	if code := errorCode(t, rec); code != "not_reloadable" {
		t.Errorf("code = %q, want not_reloadable", code)
	}
}

// TestPoolServerReloadAndStats drives the sharded server end to end:
// pool-backed healthz/stats expose shards and generation, an empty-body
// reload re-reads the manifest, a manifest-switching reload changes the
// served world, and a bad manifest is a 422 that leaves serving intact.
func TestPoolServerReloadAndStats(t *testing.T) {
	s, pool, manifestB := poolServer(t)

	rec := do(t, s, http.MethodGet, "/v1/healthz", nil)
	var hz healthzResponse
	decodeInto(t, rec, &hz)
	if hz.Shards != 2 || hz.Generation != 1 {
		t.Errorf("healthz = %+v, want 2 shards at generation 1", hz)
	}

	rec = do(t, s, http.MethodGet, "/v1/stats", nil)
	var st statsResponse
	decodeInto(t, rec, &st)
	if len(st.Shards) != 2 || st.Generation != 1 || st.Reloads != 0 {
		t.Fatalf("stats = %+v, want 2 shard rows at generation 1", st)
	}
	docs := 0
	for _, sh := range st.Shards {
		if sh.Postings <= 0 || sh.Terms <= 0 {
			t.Errorf("shard row %+v has empty index stats", sh)
		}
		docs += sh.Documents
	}
	if docs != st.Documents {
		t.Errorf("shard documents sum to %d, stats report %d", docs, st.Documents)
	}

	// Empty body: re-read the same manifest.
	rec = do(t, s, http.MethodPost, "/v1/admin/reload", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload status = %d (%s), want 200", rec.Code, rec.Body.String())
	}
	var rl reloadResponse
	decodeInto(t, rec, &rl)
	if rl.Status != "ok" || rl.Generation != 2 || rl.Shards != 2 {
		t.Errorf("reload = %+v, want generation 2 on 2 shards", rl)
	}

	// Switch manifests: the served world changes shape.
	rec = do(t, s, http.MethodPost, "/v1/admin/reload", reloadRequest{Manifest: manifestB})
	if rec.Code != http.StatusOK {
		t.Fatalf("switch status = %d (%s), want 200", rec.Code, rec.Body.String())
	}
	decodeInto(t, rec, &rl)
	if rl.Generation != 3 || rl.Shards != 3 {
		t.Errorf("switch reload = %+v, want generation 3 on 3 shards", rl)
	}
	if got := pool.NumShards(); got != 3 {
		t.Errorf("pool serves %d shards after switch, want 3", got)
	}

	// A bad manifest is rejected and serving continues on generation 3.
	rec = do(t, s, http.MethodPost, "/v1/admin/reload", reloadRequest{Manifest: "/nonexistent/manifest.json"})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("bad manifest status = %d (%s), want 422", rec.Code, rec.Body.String())
	}
	if code := errorCode(t, rec); code != "invalid_manifest" {
		t.Errorf("code = %q, want invalid_manifest", code)
	}
	if got := pool.Generation(); got != 3 {
		t.Errorf("failed reload moved the generation to %d", got)
	}

	// Searches on the pool server keep the whole error model.
	rec = do(t, s, http.MethodPost, "/v1/search", searchRequest{Query: "#combine(", K: 1})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("pool search error status = %d, want 400", rec.Code)
	}
}
