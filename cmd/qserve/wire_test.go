package main

import (
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	querygraph "github.com/querygraph/querygraph"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire/*.golden from the handlers under test")

// volatileWire matches the two wall-clock fields of the wire schema; they
// are normalised to 0 so everything else can be compared byte for byte.
var volatileWire = regexp.MustCompile(`"(took_ms|uptime_seconds)":[0-9.e+-]+`)

// stubBackend overrides the single-search entry points of a real backend,
// so a test can script what /v1/search sees: a degraded fan-out, a panic.
type stubBackend struct {
	querygraph.Backend
	search func(ctx context.Context, query string, k int) ([]querygraph.Result, error)
}

func (b *stubBackend) Search(ctx context.Context, query string, k int) ([]querygraph.Result, error) {
	return b.search(ctx, query, k)
}

func (b *stubBackend) SearchInto(ctx context.Context, query string, k int, _ []querygraph.Result) ([]querygraph.Result, error) {
	return b.search(ctx, query, k)
}

// TestWireGolden pins the wire schema byte for byte: one request per
// response shape, answered by the handlers and compared with the files
// under testdata/wire (captured with -update before /v1/search joined the
// generic JSON path and the json tags moved onto the public types). The
// requests are raw strings on purpose — the goldens must not depend on
// the wire structs they guard. Requests on one server run in order: the
// later stats rows show the earlier traffic.
func TestWireGolden(t *testing.T) {
	client := liveServer(t)
	pool, p, _ := poolServer(t)
	t.Cleanup(func() { _ = p.Close() })
	expired := newServer(client.backend, time.Nanosecond, nil)
	degraded := newServer(&stubBackend{
		Backend: client.backend,
		search: func(context.Context, string, int) ([]querygraph.Result, error) {
			return nil, fmt.Errorf("%w: 2 of 2 shards dropped", querygraph.ErrPartialResult)
		},
	}, 5*time.Second, nil)

	qs := client.backend.Queries()
	q0, q1 := qs[0].Keywords, qs[1].Keywords
	pq := p.Queries()[0].Keywords
	const (
		jsonCT = "application/json"
		doc    = `{"id":"wire-1","file":"f.jpg","name":"zyzzogeton.jpg","texts":[{"lang":"en","description":"a zyzzogeton in the wild","comment":"c","captions":[{"article":"A","value":"v"},{"value":"w"}]},{"lang":"de"}],"comment":"wc","license":"cc"}`
	)
	huge := `{"query":"` + strings.Repeat("x", maxRequestBody) + `"}`

	for _, c := range []struct {
		name, method, path, ct, body string
		s                            *server
	}{
		{"healthz_client", "GET", "/v1/healthz", "", "", client},
		{"stats_client_fresh", "GET", "/v1/stats", "", "", client},
		{"search_hit", "POST", "/v1/search", jsonCT, `{"query":"` + q0 + `","k":5}`, client},
		{"search_default_k", "POST", "/v1/search", jsonCT + "; charset=utf-8", `{"query":"` + q1 + `","timeout_ms":2000}`, client},
		{"search_no_match", "POST", "/v1/search", jsonCT, `{"query":"qqnomatchqq","k":5}`, client},
		{"search_partial_nil", "POST", "/v1/search", jsonCT, `{"query":"` + q0 + `","k":5}`, degraded},
		{"search_batch", "POST", "/v1/search/batch", jsonCT, `{"queries":["` + q0 + `","qqnomatchqq","` + q1 + `"],"k":3,"workers":2}`, client},
		{"search_batch_empty", "POST", "/v1/search/batch", jsonCT, `{"queries":[]}`, client},
		{"expand", "POST", "/v1/expand", jsonCT, `{"keywords":"` + q0 + `"}`, client},
		{"expand_k", "POST", "/v1/expand", jsonCT, `{"keywords":"` + q0 + `","k":3,"max_features":4}`, client},
		{"expand_nothing_linked_k", "POST", "/v1/expand", jsonCT, `{"keywords":"qqnomatchqq","k":3}`, client},
		{"expand_batch", "POST", "/v1/expand/batch", jsonCT, `{"keywords":["` + q0 + `","qqnomatchqq"]}`, client},
		{"expand_batch_k", "POST", "/v1/expand/batch", jsonCT, `{"keywords":["` + q1 + `","qqnomatchqq","` + q0 + `"],"k":2,"workers":1}`, client},
		{"stats_client_expanded", "GET", "/v1/stats", "", "", client},
		{"ingest", "POST", "/v1/admin/ingest", jsonCT, `{"documents":[` + doc + `,{"name":"bare.jpg"}]}`, client},
		{"search_delta", "POST", "/v1/search", jsonCT, `{"query":"zyzzogeton","k":5}`, client},
		{"healthz_client_delta", "GET", "/v1/healthz", "", "", client},
		{"compact", "POST", "/v1/admin/compact", jsonCT, `{}`, client},
		{"compact_noop_no_body", "POST", "/v1/admin/compact", "", "", client},
		{"stats_client_after", "GET", "/v1/stats", "", "", client},
		{"reload_not_reloadable", "POST", "/v1/admin/reload", "", "", client},

		{"healthz_pool", "GET", "/v1/healthz", "", "", pool},
		{"stats_pool", "GET", "/v1/stats", "", "", pool},
		{"search_pool", "POST", "/v1/search", jsonCT, `{"query":"` + pq + `","k":4}`, pool},
		{"reload_empty_body", "POST", "/v1/admin/reload", "", "", pool},
		{"reload_empty_object", "POST", "/v1/admin/reload", jsonCT, `{}`, pool},
		{"reload_415", "POST", "/v1/admin/reload", "text/plain", `{}`, pool},
		{"stats_pool_reloaded", "GET", "/v1/stats", "", "", pool},

		{"400_unknown_field", "POST", "/v1/search", jsonCT, `{"query":"a","extra":true}`, client},
		{"400_malformed", "POST", "/v1/search/batch", jsonCT, `{not json`, client},
		{"400_invalid_timeout", "POST", "/v1/search", jsonCT, `{"query":"a","timeout_ms":-3}`, client},
		{"400_invalid_query", "POST", "/v1/search", jsonCT, `{"query":"#combine(","k":1}`, client},
		{"400_invalid_options", "POST", "/v1/expand", jsonCT, `{"keywords":"a","min_category_ratio":0.2}`, client},
		{"400_invalid_options_neighborhood", "POST", "/v1/expand", jsonCT, `{"keywords":"a","max_neighborhood":4097}`, client},
		{"400_reload_unknown_field", "POST", "/v1/admin/reload", jsonCT, `{"path":"x"}`, pool},
		{"408_search", "POST", "/v1/search", jsonCT, `{"query":"` + q0 + `"}`, expired},
		{"408_expand_batch", "POST", "/v1/expand/batch", jsonCT, `{"keywords":["` + q0 + `"]}`, expired},
		{"413_search", "POST", "/v1/search", jsonCT, huge, client},
		{"413_ingest", "POST", "/v1/admin/ingest", jsonCT, huge, client},
		{"415_no_content_type", "POST", "/v1/search", "", `{"query":"a"}`, client},
		{"415_form", "POST", "/v1/expand", "application/x-www-form-urlencoded", `keywords=a`, client},
		{"404", "GET", "/v1/nosuch", "", "", client},
		{"405", "GET", "/v1/search", "", "", client},
	} {
		req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		if c.ct != "" {
			req.Header.Set("Content-Type", c.ct)
		}
		rec := httptest.NewRecorder()
		c.s.ServeHTTP(rec, req)
		got := fmt.Sprintf("HTTP %d %s\n%s", rec.Code, rec.Header().Get("Content-Type"),
			volatileWire.ReplaceAll(rec.Body.Bytes(), []byte(`"$1":0`)))

		file := filepath.Join("testdata", "wire", c.name+".golden")
		if *updateWire {
			if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: %s %s\n got: %s\nwant: %s", c.name, c.method, c.path, got, want)
		}
	}
}
