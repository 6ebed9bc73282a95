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

	"github.com/querygraph/querygraph/internal/rpc"
	"github.com/querygraph/querygraph/internal/trace"
)

// TestAdminServerEndpoints pins the -admin surface, mirroring qserve's:
// pprof and the flight recorder answer on the admin mux. (The RPC
// serving port speaks only the binary shard protocol, so there is no
// HTTP surface there to leak onto — the admin listener is the only
// place these endpoints exist.)
func TestAdminServerEndpoints(t *testing.T) {
	srv := trace.NewAdminServer("127.0.0.1:0", trace.NewRecorder(8))
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol", "/v1/debug/requests", "/v1/debug/requests?min_ms=2.5"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		srv.Handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("admin %s: status = %d, want 200", path, rec.Code)
		}
	}
}

// TestRequestHookAttributesTraces pins the shard-side half of trace
// propagation: a hooked request carrying a trace ID lands in the flight
// recorder under that ID with the op and error class; an untraced
// (trace-id-0, i.e. v1) request is logged but never recorded.
func TestRequestHookAttributesTraces(t *testing.T) {
	rec := trace.NewRecorder(8)
	var buf bytes.Buffer
	hook := requestHook(rec, slog.New(slog.NewTextHandler(&buf, nil)), true, 0.000001)

	start := time.Now().Add(-2 * time.Millisecond)
	hook(rpc.OpTopK, 0xdeadbeef, start, 2*time.Millisecond, "")
	hook(rpc.OpPlan, 0xdeadbeef, start, 2*time.Millisecond, "timeout")
	hook(rpc.OpHealthz, 0, start, time.Millisecond, "")

	recs := rec.Snapshot(0)
	if len(recs) != 2 {
		t.Fatalf("recorder holds %d records, want 2 (the untraced request must not be recorded)", len(recs))
	}
	if recs[0].Op != "plan" || recs[0].Err != "timeout" || recs[0].TraceID != "00000000deadbeef" {
		t.Errorf("newest record = %+v, want op=plan err=timeout trace 00000000deadbeef", recs[0])
	}
	if recs[1].Op != "topk" || recs[1].Err != "" {
		t.Errorf("older record = %+v, want op=topk with no error", recs[1])
	}
	if recs[0].DurMS < 1.9 || recs[0].DurMS > 2.1 {
		t.Errorf("DurMS = %v, want ~2", recs[0].DurMS)
	}

	// The recorder's JSON endpoint serves shard-side records too.
	w := httptest.NewRecorder()
	trace.Handler(rec)(w, httptest.NewRequest(http.MethodGet, "/v1/debug/requests", nil))
	var resp struct {
		Requests []*trace.Record `json:"requests"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON %q: %v", w.Body.String(), err)
	}
	if len(resp.Requests) != 2 || resp.Requests[0].TraceID != "00000000deadbeef" {
		t.Errorf("endpoint served %+v, want the 2 attributed records", resp.Requests)
	}

	out := buf.String()
	for _, want := range []string{
		"msg=rpc", "op=topk", "op=plan", "op=healthz", "trace_id=00000000deadbeef",
		"trace_id=0000000000000000", `msg="slow rpc"`, "err=timeout",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
}
