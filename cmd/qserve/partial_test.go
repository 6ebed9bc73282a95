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

// inject applies f.err to one retrieval's outcome: unchanged when no
// fault is set or the call already failed, out plus the error for
// ErrPartialResult, and the zero value plus the error otherwise.
func inject[T any](f *faultBackend, out T, err error) (T, error) {
	if f.err == nil || err != nil {
		return out, err
	}
	if errors.Is(f.err, querygraph.ErrPartialResult) {
		return out, f.err
	}
	var zero T
	return zero, f.err
}

func (f *faultBackend) Search(ctx context.Context, query string, k int) ([]querygraph.Result, error) {
	rs, err := f.Backend.Search(ctx, query, k)
	return inject(f, rs, err)
}

func (f *faultBackend) SearchInto(ctx context.Context, query string, k int, dst []querygraph.Result) ([]querygraph.Result, error) {
	rs, err := f.Backend.SearchInto(ctx, query, k, dst)
	return inject(f, rs, err)
}

func (f *faultBackend) SearchExpansion(ctx context.Context, exp *querygraph.Expansion, k int) ([]querygraph.Result, bool, error) {
	rs, ok, err := f.Backend.SearchExpansion(ctx, exp, k)
	rs, err = inject(f, rs, err)
	return rs, ok, err
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

// TestExpandPartialResult pins the same mapping on the expansion
// endpoints with k > 0, where only the retrieval leg can degrade: a
// partial retrieval is a 200 flagged partial that keeps the expansions
// and the survivors' results, and a fleet below quorum is a 503
// shard_unavailable on the single and the batch endpoint alike.
func TestExpandPartialResult(t *testing.T) {
	keywords := serveClient(t).Queries()[0].Keywords
	partial := newServer(&faultBackend{
		Backend: serveClient(t),
		err:     fmt.Errorf("%w: 1 of 2 shards dropped", querygraph.ErrPartialResult),
	}, 5*time.Second, nil)
	down := newServer(&faultBackend{
		Backend: serveClient(t),
		err:     fmt.Errorf("%w: shard 1 after 2 attempts: connection refused", querygraph.ErrShardUnavailable),
	}, 5*time.Second, nil)

	single := expandRequest{Keywords: keywords, K: 5}
	rec := do(t, partial, http.MethodPost, "/v1/expand", single)
	if rec.Code != http.StatusOK {
		t.Fatalf("partial expand status = %d (%s), want 200", rec.Code, rec.Body.String())
	}
	var resp expandResponse
	decodeInto(t, rec, &resp)
	if !resp.Partial || resp.Keywords != keywords || len(resp.Features) == 0 || len(resp.Results) == 0 {
		t.Errorf("partial expand = {partial: %v, keywords: %q, %d features, %d results}, want the flagged expansion with results",
			resp.Partial, resp.Keywords, len(resp.Features), len(resp.Results))
	}

	batch := expandBatchRequest{Keywords: []string{keywords, keywords}, K: 5}
	rec = do(t, partial, http.MethodPost, "/v1/expand/batch", batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("partial expand batch status = %d (%s), want 200", rec.Code, rec.Body.String())
	}
	var bresp expandBatchResponse
	decodeInto(t, rec, &bresp)
	if !bresp.Partial || len(bresp.Expansions) != 2 {
		t.Fatalf("partial expand batch = {partial: %v, %d expansions}, want both expansions flagged partial",
			bresp.Partial, len(bresp.Expansions))
	}
	for i, e := range bresp.Expansions {
		if e.Keywords != keywords || len(e.Features) == 0 || len(e.Results) == 0 {
			t.Errorf("partial expand batch entry %d = {keywords: %q, %d features, %d results}, want the expansion with results",
				i, e.Keywords, len(e.Features), len(e.Results))
		}
	}

	for path, body := range map[string]any{"/v1/expand": single, "/v1/expand/batch": batch} {
		rec := do(t, down, http.MethodPost, path, body)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s below quorum: status = %d (%s), want 503", path, rec.Code, rec.Body.String())
		}
		if code := errorCode(t, rec); code != "shard_unavailable" {
			t.Errorf("%s below quorum: error code = %q, want shard_unavailable", path, code)
		}
	}
}
