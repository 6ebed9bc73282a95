package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/querygraph/querygraph/internal/trace"
)

// tracedServer builds a serving mux with the flight recorder attached
// and every request sampled in.
func tracedServer(t *testing.T) (*server, *trace.Recorder) {
	t.Helper()
	s := newServer(serveClient(t), 5*time.Second, nil)
	rec := trace.NewRecorder(16)
	s.recorder = rec
	return s, rec
}

// TestRequestIDEcho pins the X-Request-ID contract on every response,
// success and error alike: a valid client-supplied ID is echoed back
// verbatim, anything else is replaced by a freshly minted valid ID.
func TestRequestIDEcho(t *testing.T) {
	s := testServer(t)
	q := serveClient(t).Queries()[0].Keywords

	t.Run("minted when absent", func(t *testing.T) {
		rec := do(t, s, http.MethodPost, "/v1/search", searchRequest{Query: q, K: 5})
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		id := rec.Header().Get("X-Request-Id")
		if _, ok := trace.ParseID(id); !ok {
			t.Errorf("minted X-Request-ID %q is not a valid trace ID", id)
		}
	})

	t.Run("valid client ID echoed", func(t *testing.T) {
		for _, sent := range []string{"00000000deadbeef", "00000000DEADBEEF"} {
			req := httptest.NewRequest(http.MethodPost, "/v1/search",
				strings.NewReader(`{"query":"x","k":5}`))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Request-Id", sent)
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if got := w.Header().Get("X-Request-Id"); got != sent {
				t.Errorf("X-Request-ID = %q, want the client's %q echoed", got, sent)
			}
		}
	})

	t.Run("invalid client ID replaced", func(t *testing.T) {
		for _, sent := range []string{"not-an-id", "0000000000000000", "deadbeef", ""} {
			req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
			if sent != "" {
				req.Header.Set("X-Request-Id", sent)
			}
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			got := w.Header().Get("X-Request-Id")
			if got == sent {
				t.Errorf("invalid X-Request-ID %q echoed back instead of replaced", sent)
			}
			if _, ok := trace.ParseID(got); !ok {
				t.Errorf("replacement X-Request-ID %q is not a valid trace ID", got)
			}
		}
	})

	t.Run("present on errors", func(t *testing.T) {
		for _, c := range []struct {
			method, path string
			body         any
			wantStatus   int
		}{
			{http.MethodPost, "/v1/search", searchRequest{Query: "#combine(", K: 5}, http.StatusBadRequest},
			{http.MethodGet, "/v1/nosuch", nil, http.StatusNotFound},
			{http.MethodPost, "/v1/admin/reload", nil, http.StatusConflict},
		} {
			rec := do(t, s, c.method, c.path, c.body)
			if rec.Code != c.wantStatus {
				t.Fatalf("%s %s: status = %d, want %d", c.method, c.path, rec.Code, c.wantStatus)
			}
			if _, ok := trace.ParseID(rec.Header().Get("X-Request-Id")); !ok {
				t.Errorf("%s %s (%d): missing or invalid X-Request-ID %q",
					c.method, c.path, rec.Code, rec.Header().Get("X-Request-Id"))
			}
		}
	})
}

// TestFlightRecorderCapturesSearch drives a traced search end to end:
// the sealed record lands in the recorder under the client's trace ID
// with the parse and search phase spans, and trace.Handler serves (and
// min_ms-filters) it exactly as the admin endpoint does.
func TestFlightRecorderCapturesSearch(t *testing.T) {
	s, rec := tracedServer(t)
	q := serveClient(t).Queries()[0].Keywords

	const sent = "00000000deadbeef"
	req := httptest.NewRequest(http.MethodPost, "/v1/search",
		strings.NewReader(`{"query":`+string(mustJSON(t, q))+`,"k":5}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", sent)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}

	recs := rec.Snapshot(0)
	if len(recs) != 1 {
		t.Fatalf("recorder holds %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.TraceID != sent {
		t.Errorf("TraceID = %q, want %q", r.TraceID, sent)
	}
	if r.Op != "POST /v1/search" {
		t.Errorf("Op = %q, want POST /v1/search", r.Op)
	}
	if r.Err != "" || r.DurMS < 0 {
		t.Errorf("record = %+v, want no error and a non-negative duration", r)
	}
	phases := make(map[string]bool)
	for _, sp := range r.Spans {
		phases[sp.Phase] = true
	}
	if !phases["parse"] || !phases["search"] {
		t.Errorf("span phases = %v, want parse and search", phases)
	}

	// The admin endpoint serves the snapshot and honors min_ms.
	h := trace.Handler(rec)
	for _, c := range []struct {
		url  string
		want int
	}{
		{"/v1/debug/requests", 1},
		{"/v1/debug/requests?min_ms=0", 1},
		{"/v1/debug/requests?min_ms=100000", 0},
	} {
		dreq := httptest.NewRequest(http.MethodGet, c.url, nil)
		dw := httptest.NewRecorder()
		h(dw, dreq)
		if dw.Code != http.StatusOK {
			t.Fatalf("GET %s: status = %d", c.url, dw.Code)
		}
		var resp struct {
			Requests []*trace.Record `json:"requests"`
		}
		if err := json.Unmarshal(dw.Body.Bytes(), &resp); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", c.url, dw.Body.String(), err)
		}
		if len(resp.Requests) != c.want {
			t.Errorf("GET %s: %d records, want %d", c.url, len(resp.Requests), c.want)
		}
		if c.want == 1 && resp.Requests[0].TraceID != sent {
			t.Errorf("GET %s: TraceID = %q, want %q", c.url, resp.Requests[0].TraceID, sent)
		}
	}
	dreq := httptest.NewRequest(http.MethodGet, "/v1/debug/requests?min_ms=banana", nil)
	dw := httptest.NewRecorder()
	h(dw, dreq)
	if dw.Code != http.StatusBadRequest {
		t.Errorf("bad min_ms: status = %d, want 400", dw.Code)
	}
}

// TestTraceSampling pins the 1-in-N sampling contract: 0 disables
// tracing entirely, N records every Nth request — and sampled-out
// requests still get their X-Request-ID echo.
func TestTraceSampling(t *testing.T) {
	s, rec := tracedServer(t)
	s.sample = 0
	for i := 0; i < 4; i++ {
		w := do(t, s, http.MethodGet, "/v1/healthz", nil)
		if _, ok := trace.ParseID(w.Header().Get("X-Request-Id")); !ok {
			t.Fatal("sampled-out request lost its X-Request-ID echo")
		}
	}
	if n := rec.Len(); n != 0 {
		t.Fatalf("recorder holds %d records with sampling disabled, want 0", n)
	}

	s.sample = 2
	for i := 0; i < 4; i++ {
		do(t, s, http.MethodGet, "/v1/healthz", nil)
	}
	if n := rec.Len(); n != 2 {
		t.Errorf("recorder holds %d records after 4 requests at 1-in-2 sampling, want 2", n)
	}
}

// TestAccessAndSlowLogs pins the slog surface: -access-log emits one
// line per traced request carrying the trace ID, and -slowlog-ms dumps
// the span tree of anything at or over the threshold.
func TestAccessAndSlowLogs(t *testing.T) {
	s, _ := tracedServer(t)
	var buf bytes.Buffer
	s.logger = slog.New(slog.NewTextHandler(&buf, nil))
	s.accessLog = true
	s.slowlogMS = 0.000001 // everything is "slow"

	const sent = "00000000deadbeef"
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	req.Header.Set("X-Request-Id", sent)
	s.ServeHTTP(httptest.NewRecorder(), req)

	out := buf.String()
	for _, want := range []string{
		"msg=request", "trace_id=" + sent, "path=/v1/healthz", "status=200",
		`msg="slow request"`, "spans=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFlightRecorderExpandPhases: /v1/debug/requests shows where a cold
// /v1/expand spent its time — one span per phase of the pipeline beside
// the envelope's own "expand" span — and shows no pipeline at all for the
// same request served from the expansion cache.
func TestFlightRecorderExpandPhases(t *testing.T) {
	s, rec := tracedServer(t)
	// Options no other test of the shared client uses: the first request is cold.
	neighborhood := 397
	body := expandRequest{Keywords: serveClient(t).Queries()[0].Keywords}
	body.MaxNeighborhood = &neighborhood
	for _, want := range []struct {
		cache  string
		phases []string
	}{
		{"miss", []string{"expand.link", "expand.ball", "expand.induce", "expand.mine", "expand.rank", "expand"}},
		{"hit", []string{"expand"}},
	} {
		if w := do(t, s, http.MethodPost, "/v1/expand", body); w.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", w.Code, w.Body.String())
		}
		dw := httptest.NewRecorder()
		trace.Handler(rec)(dw, httptest.NewRequest(http.MethodGet, "/v1/debug/requests", nil))
		var resp struct {
			Requests []*trace.Record `json:"requests"`
		}
		if err := json.Unmarshal(dw.Body.Bytes(), &resp); err != nil || len(resp.Requests) == 0 {
			t.Fatalf("GET /v1/debug/requests: %q: %v", dw.Body.String(), err)
		}
		var phases []string
		for _, sp := range resp.Requests[0].Spans { // newest first
			phases = append(phases, sp.Phase)
			if sp.Phase == "expand" && sp.Detail != want.cache {
				t.Errorf("expand span detail = %q, want cache %s", sp.Detail, want.cache)
			}
		}
		if strings.Join(phases, " ") != strings.Join(want.phases, " ") {
			t.Errorf("cache %s: spans = %v, want %v", want.cache, phases, want.phases)
		}
	}
}
