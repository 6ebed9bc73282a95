package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	querygraph "github.com/querygraph/querygraph"
)

// liveServer builds a server over its own private client (never the
// shared fixture: ingest mutates the backend) with the given options.
func liveServer(t *testing.T, opts ...querygraph.Option) *server {
	t.Helper()
	cfg := querygraph.DefaultWorldConfig()
	cfg.Topics = 4
	cfg.ArticlesPerTopic = 8
	cfg.DocsPerTopic = 10
	cfg.Queries = 4
	cfg.NoiseVocab = 50
	w, err := querygraph.GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := querygraph.Build(w, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return newServer(c, 5*time.Second, nil)
}

// liveDoc is a minimal ingestable record carrying one distinctive term
// through the Section 2.1 extraction (the English description).
func liveDoc(id, term string) querygraph.Document {
	return querygraph.Document{
		ID:   id,
		Name: term + ".jpg",
		Texts: []querygraph.DocumentText{{
			Lang:        "en",
			Description: "a " + term + " photographed in the wild",
		}},
	}
}

func searchDocs(t *testing.T, s *server, query string) []querygraph.Result {
	t.Helper()
	rec := do(t, s, http.MethodPost, "/v1/search", searchRequest{Query: query, K: 10})
	if rec.Code != http.StatusOK {
		t.Fatalf("search status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp searchResponse
	decodeInto(t, rec, &resp)
	return resp.Results
}

// TestIngestSearchableThenCompact is the acceptance path over HTTP: a
// POSTed document is returned by /v1/search before any compaction, and
// after /v1/admin/compact the generation advances while the results stay
// identical.
func TestIngestSearchableThenCompact(t *testing.T) {
	s := liveServer(t)
	base := s.backend.Stats().Documents

	rec := do(t, s, http.MethodPost, "/v1/admin/ingest", ingestRequest{
		Documents: []querygraph.Document{liveDoc("live-1", "zyzzogeton")},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body.String())
	}
	var ing ingestResponse
	decodeInto(t, rec, &ing)
	if ing.Ingested != 1 || ing.DeltaDocs != 1 || ing.DeltaBytes <= 0 {
		t.Fatalf("ingest response = %+v, want 1 document in the delta", ing)
	}

	before := searchDocs(t, s, "zyzzogeton")
	if len(before) == 0 || before[0].Doc != int32(base) {
		t.Fatalf("pre-compaction search = %+v, want the ingested doc at global id %d", before, base)
	}

	rec = do(t, s, http.MethodPost, "/v1/admin/compact", struct{}{})
	if rec.Code != http.StatusOK {
		t.Fatalf("compact status = %d: %s", rec.Code, rec.Body.String())
	}
	var cmp compactResponse
	decodeInto(t, rec, &cmp)
	if cmp.Compacted != 1 || cmp.Generation != ing.Generation+1 {
		t.Fatalf("compact response = %+v, want 1 compacted and generation %d", cmp, ing.Generation+1)
	}
	if got := s.backend.Stats().Documents; got != base+1 {
		t.Fatalf("post-compaction documents = %d, want %d", got, base+1)
	}

	after := searchDocs(t, s, "zyzzogeton")
	if len(after) != len(before) {
		t.Fatalf("result count changed across compaction: %d != %d", len(after), len(before))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("result %d changed across compaction: %+v != %+v", i, after[i], before[i])
		}
	}
}

func TestIngestDuplicateExternalID(t *testing.T) {
	s := liveServer(t)
	if rec := do(t, s, http.MethodPost, "/v1/admin/ingest", ingestRequest{
		Documents: []querygraph.Document{liveDoc("dup-1", "first")},
	}); rec.Code != http.StatusOK {
		t.Fatalf("first ingest status = %d", rec.Code)
	}
	rec := do(t, s, http.MethodPost, "/v1/admin/ingest", ingestRequest{
		Documents: []querygraph.Document{liveDoc("dup-1", "second")},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("duplicate ingest status = %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if code := errorCode(t, rec); code != "invalid_options" {
		t.Errorf("duplicate ingest code = %q, want invalid_options", code)
	}
	// The batch was atomic: nothing from the rejected batch is visible.
	if got := searchDocs(t, s, "second"); len(got) != 0 {
		t.Errorf("rejected batch is searchable: %+v", got)
	}
}

func TestIngestDeltaFull(t *testing.T) {
	s := liveServer(t, querygraph.WithDeltaCapacity(1))
	if rec := do(t, s, http.MethodPost, "/v1/admin/ingest", ingestRequest{
		Documents: []querygraph.Document{liveDoc("", "filler")},
	}); rec.Code != http.StatusOK {
		t.Fatalf("first ingest status = %d", rec.Code)
	}
	rec := do(t, s, http.MethodPost, "/v1/admin/ingest", ingestRequest{
		Documents: []querygraph.Document{liveDoc("", "overflow")},
	})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow ingest status = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if code := errorCode(t, rec); code != "delta_full" {
		t.Errorf("overflow ingest code = %q, want delta_full", code)
	}
	// Compaction frees the segment; the retry then lands.
	if rec := do(t, s, http.MethodPost, "/v1/admin/compact", struct{}{}); rec.Code != http.StatusOK {
		t.Fatalf("compact status = %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/v1/admin/ingest", ingestRequest{
		Documents: []querygraph.Document{liveDoc("", "overflow")},
	}); rec.Code != http.StatusOK {
		t.Fatalf("post-compaction ingest status = %d: %s", rec.Code, rec.Body.String())
	}
}

func TestCompactEmptyDeltaNoop(t *testing.T) {
	s := liveServer(t)
	rec := do(t, s, http.MethodPost, "/v1/admin/compact", struct{}{})
	if rec.Code != http.StatusOK {
		t.Fatalf("compact status = %d: %s", rec.Code, rec.Body.String())
	}
	var cmp compactResponse
	decodeInto(t, rec, &cmp)
	if cmp.Compacted != 0 || cmp.Generation != 1 {
		t.Fatalf("empty compact = %+v, want a no-op on generation 1", cmp)
	}
}

func TestStatsAndHealthzReportDelta(t *testing.T) {
	s := liveServer(t)
	if rec := do(t, s, http.MethodPost, "/v1/admin/ingest", ingestRequest{
		Documents: []querygraph.Document{liveDoc("", "pending")},
	}); rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d", rec.Code)
	}

	var st statsResponse
	decodeInto(t, do(t, s, http.MethodGet, "/v1/stats", nil), &st)
	if st.Delta.Documents != 1 || st.Delta.PendingBytes <= 0 || st.Delta.Generation != 1 {
		t.Errorf("stats delta = %+v, want 1 pending document on generation 1", st.Delta)
	}

	var hz healthzResponse
	decodeInto(t, do(t, s, http.MethodGet, "/v1/healthz", nil), &hz)
	if hz.DeltaDocuments != 1 || hz.PendingBytes <= 0 {
		t.Errorf("healthz delta = %d docs / %d bytes, want the pending document", hz.DeltaDocuments, hz.PendingBytes)
	}

	if rec := do(t, s, http.MethodPost, "/v1/admin/compact", struct{}{}); rec.Code != http.StatusOK {
		t.Fatalf("compact status = %d", rec.Code)
	}
	decodeInto(t, do(t, s, http.MethodGet, "/v1/stats", nil), &st)
	if st.Delta.Documents != 0 || st.Delta.Generation != 2 || st.Delta.Compactions != 1 {
		t.Errorf("post-compaction stats delta = %+v, want an empty delta on generation 2", st.Delta)
	}
}

// TestWriteErrorLiveClasses pins the HTTP mapping of the live-index
// sentinels: a read-only backend is a 409 conflict, a full delta a 429.
func TestWriteErrorLiveClasses(t *testing.T) {
	s := liveServer(t)
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{querygraph.ErrReadOnly, http.StatusConflict, "read_only"},
		{querygraph.ErrDeltaFull, http.StatusTooManyRequests, "delta_full"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		s.writeError(rec, tc.err)
		if rec.Code != tc.status {
			t.Errorf("writeError(%v) status = %d, want %d", tc.err, rec.Code, tc.status)
		}
		if code := errorCode(t, rec); code != tc.code {
			t.Errorf("writeError(%v) code = %q, want %q", tc.err, code, tc.code)
		}
	}
}
