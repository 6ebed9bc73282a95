package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// The histogram oracle tests (quantiles vs a sorted-slice oracle,
// lossless merge, bucket monotonicity) moved to internal/hist with the
// histogram itself — qload now records into hist.Hist directly.

func TestParseMix(t *testing.T) {
	mix, err := parseMix("search=80, expand=15,search_batch=5")
	if err != nil {
		t.Fatal(err)
	}
	want := []mixEntry{{"search", 80}, {"expand", 15}, {"search_batch", 5}}
	if len(mix) != len(want) {
		t.Fatalf("mix = %v, want %v", mix, want)
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Fatalf("mix[%d] = %v, want %v", i, mix[i], want[i])
		}
	}
	for _, bad := range []string{"", "search", "search=0", "search=-1", "search=x", "unknown=5", "search=1,search=2"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

func TestMetaFlag(t *testing.T) {
	m := metaFlag{}
	for _, kv := range []string{"allocs_before=31", "allocs_after=0", "label=fastpath"} {
		if err := m.Set(kv); err != nil {
			t.Fatal(err)
		}
	}
	if m["allocs_before"] != 31.0 || m["allocs_after"] != 0.0 {
		t.Errorf("numeric meta not parsed as numbers: %v", m)
	}
	if m["label"] != "fastpath" {
		t.Errorf("string meta mangled: %v", m)
	}
	if err := m.Set("nokey"); err == nil {
		t.Error("meta without '=' accepted")
	}
}

// TestRunAgainstServer drives the loader end to end against a stub
// server and checks the report's accounting: every request lands on a
// known endpoint with a well-formed body, the mix is honored
// deterministically, and the totals balance.
func TestRunAgainstServer(t *testing.T) {
	var searches, expands atomic.Uint64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Query string `json:"query"`
			K     int    `json:"k"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Query == "" || req.K != 7 {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		searches.Add(1)
		w.Write([]byte(`{"results":[],"took_ms":0.1}`))
	})
	mux.HandleFunc("POST /v1/expand/batch", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Keywords []string `json:"keywords"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Keywords) != 2 {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		expands.Add(1)
		w.Write([]byte(`{"expansions":[],"took_ms":0.1}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	rep, err := run(loadConfig{
		Target:      srv.URL,
		Connections: 4,
		Duration:    300 * time.Millisecond,
		Mix:         []mixEntry{{"search", 3}, {"expand_batch", 1}},
		K:           7,
		Batch:       2,
		Queries:     []string{"alpha", "beta", "gamma"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d (report %+v)", rep.Errors, rep)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests sent")
	}
	if got := searches.Load() + expands.Load(); got != rep.Requests {
		t.Errorf("server saw %d requests, report says %d", got, rep.Requests)
	}
	if rep.Ops["search"].Requests != searches.Load() {
		t.Errorf("search op count %d, server saw %d", rep.Ops["search"].Requests, searches.Load())
	}
	// 3:1 mix — the deterministic ticket mapping keeps the ratio within
	// one round of the weight total.
	if s, e := float64(searches.Load()), float64(expands.Load()); e > 0 && (s/e < 2 || s/e > 4) {
		t.Errorf("mix ratio search:expand_batch = %.2f, want ≈3", s/e)
	}
	if rep.Latency.P50MS <= 0 || rep.Latency.MaxMS < rep.Latency.P50MS {
		t.Errorf("implausible latency summary: %+v", rep.Latency)
	}
	if rep.AchievedRPS <= 0 {
		t.Errorf("achieved RPS = %v", rep.AchievedRPS)
	}
	if rep.Ops["search"].Status["200"] != searches.Load() {
		t.Errorf("status accounting: %v", rep.Ops["search"].Status)
	}
}

// TestIngestOp drives the ingest op against a stub /v1/admin/ingest and
// pins the wire shape: one anonymous document per request (no external
// id, so repeated runs can never collide) whose English description is a
// query string.
func TestIngestOp(t *testing.T) {
	var ingests atomic.Uint64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/admin/ingest", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Documents []struct {
				ID    string `json:"id"`
				Name  string `json:"name"`
				Texts []struct {
					Lang        string `json:"lang"`
					Description string `json:"description"`
				} `json:"texts"`
			} `json:"documents"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Documents) != 1 {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		d := req.Documents[0]
		if d.ID != "" || d.Name == "" || len(d.Texts) != 1 || d.Texts[0].Description == "" {
			http.Error(w, "bad document", http.StatusBadRequest)
			return
		}
		ingests.Add(1)
		w.Write([]byte(`{"status":"ok","ingested":1,"delta_docs":1,"delta_bytes":64,"generation":1,"took_ms":0.1}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	rep, err := run(loadConfig{
		Target:      srv.URL,
		Connections: 2,
		Duration:    200 * time.Millisecond,
		Mix:         []mixEntry{{"ingest", 1}},
		K:           1,
		Batch:       1,
		Queries:     []string{"alpha", "beta"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Requests == 0 {
		t.Fatalf("ingest run: %d requests, %d errors", rep.Requests, rep.Errors)
	}
	if rep.Ops["ingest"].Requests != ingests.Load() {
		t.Errorf("ingest op count %d, server saw %d", rep.Ops["ingest"].Requests, ingests.Load())
	}
}

// TestRunPaced pins the ticket pacer: at -rps R for duration D the fleet
// sends ≈ R·D requests regardless of how many connections it has.
func TestRunPaced(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"results":[],"took_ms":0}`))
	}))
	defer srv.Close()
	rep, err := run(loadConfig{
		Target:      srv.URL,
		Connections: 8,
		TargetRPS:   200,
		Duration:    500 * time.Millisecond,
		Mix:         []mixEntry{{"search", 1}},
		K:           1,
		Batch:       1,
		Queries:     []string{"q"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 200 rps × 0.5s = 100 tickets; allow generous scheduling slop.
	if rep.Requests < 60 || rep.Requests > 140 {
		t.Errorf("paced run sent %d requests, want ≈100", rep.Requests)
	}
}

// TestReportJSONShape pins the report contract: the fields -json
// consumers read must survive a marshal round trip.
func TestReportJSONShape(t *testing.T) {
	rep := &report{
		Target:      "http://x",
		Mix:         "search=100",
		Requests:    10,
		AchievedRPS: 123.4,
		Latency:     latencySummary{P50MS: 1, P99MS: 2},
		Ops:         map[string]opReport{"search": {Requests: 10}},
		Meta:        map[string]any{"search_handler_allocs_after": 0.0},
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"target", "mix", "requests", "achieved_rps", "latency", "ops", "meta"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("report JSON missing %q: %s", key, data)
		}
	}
	if lat, ok := decoded["latency"].(map[string]any); !ok || lat["p50_ms"] != 1.0 {
		t.Errorf("latency block malformed: %s", data)
	}
}
