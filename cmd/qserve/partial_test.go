package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	querygraph "github.com/querygraph/querygraph"
)

// faultBackend wraps a real backend and injects a fan-out error on the
// retrieval paths, the way a topology-backed *Remote surfaces one: an
// ErrPartialResult arrives ALONGSIDE the survivors' results, every other
// error replaces them. It lets the HTTP mapping be pinned without
// standing up a shard fleet.
type faultBackend struct {
	querygraph.Backend
	err error
}

func (f *faultBackend) inject(rs []querygraph.Result, err error) ([]querygraph.Result, error) {
	if f.err == nil || err != nil {
		return rs, err
	}
	if errors.Is(f.err, querygraph.ErrPartialResult) {
		return rs, f.err
	}
	return nil, f.err
}

func (f *faultBackend) Search(ctx context.Context, query string, k int) ([]querygraph.Result, error) {
	return f.inject(f.Backend.Search(ctx, query, k))
}

func (f *faultBackend) SearchInto(ctx context.Context, query string, k int, dst []querygraph.Result) ([]querygraph.Result, error) {
	return f.inject(f.Backend.SearchInto(ctx, query, k, dst))
}

func (f *faultBackend) SearchAll(ctx context.Context, queries []string, k int, opts querygraph.BatchOptions) ([][]querygraph.Result, error) {
	rss, err := f.Backend.SearchAll(ctx, queries, k, opts)
	if f.err == nil || err != nil {
		return rss, err
	}
	if errors.Is(f.err, querygraph.ErrPartialResult) {
		return rss, f.err
	}
	return nil, f.err
}

// TestSearchPartialResult pins the degraded-fleet contract end to end:
// ErrPartialResult from the backend turns into a 200 whose body carries
// the survivors' results plus "partial": true — never an error status,
// and never a silently complete-looking answer.
func TestSearchPartialResult(t *testing.T) {
	fb := &faultBackend{
		Backend: serveClient(t),
		err:     fmt.Errorf("%w: 1 of 2 shards dropped", querygraph.ErrPartialResult),
	}
	s := newServer(fb, 5*time.Second, nil)
	// A benchmark query is guaranteed to match documents, so an empty
	// Results below can only mean the handler dropped the survivors.
	query := serveClient(t).Queries()[0].Keywords

	rec := do(t, s, http.MethodPost, "/v1/search", searchRequest{Query: query, K: 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("partial search status = %d (%s), want 200", rec.Code, rec.Body.String())
	}
	var resp searchResponse
	decodeInto(t, rec, &resp)
	if !resp.Partial {
		t.Error("partial search response did not set partial: true")
	}
	if len(resp.Results) == 0 {
		t.Error("partial search response dropped the survivors' results")
	}

	// A complete answer must not carry the flag — and must not even encode
	// the field.
	healthy := do(t, testServer(t), http.MethodPost, "/v1/search", searchRequest{Query: query, K: 5})
	if healthy.Code != http.StatusOK {
		t.Fatalf("healthy search status = %d", healthy.Code)
	}
	if body := healthy.Body.String(); strings.Contains(body, `"partial"`) {
		t.Errorf("healthy response encodes the partial field: %s", body)
	}

	batch := do(t, s, http.MethodPost, "/v1/search/batch",
		searchBatchRequest{Queries: []string{query, query}, K: 5})
	if batch.Code != http.StatusOK {
		t.Fatalf("partial batch status = %d (%s), want 200", batch.Code, batch.Body.String())
	}
	var bresp searchBatchResponse
	decodeInto(t, batch, &bresp)
	if !bresp.Partial || len(bresp.Results) != 2 {
		t.Errorf("partial batch = {partial: %v, %d rankings}, want both rankings flagged partial",
			bresp.Partial, len(bresp.Results))
	}
}

// TestSearchShardUnavailable503 pins the below-quorum mapping: a fleet
// that cannot answer is a service condition, so the coordinator's
// ErrShardUnavailable surfaces as 503 shard_unavailable, not a 500.
func TestSearchShardUnavailable503(t *testing.T) {
	fb := &faultBackend{
		Backend: serveClient(t),
		err:     fmt.Errorf("%w: shard 1 after 2 attempts: connection refused", querygraph.ErrShardUnavailable),
	}
	s := newServer(fb, 5*time.Second, nil)

	rec := do(t, s, http.MethodPost, "/v1/search", searchRequest{Query: "venice", K: 5})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", rec.Code, rec.Body.String())
	}
	if code := errorCode(t, rec); code != "shard_unavailable" {
		t.Errorf("error code = %q, want shard_unavailable", code)
	}
}
