package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	querygraph "github.com/querygraph/querygraph"
)

var (
	fuzzOnce   sync.Once
	fuzzServer *server
)

// fuzzTestServer builds one tiny world per process so each fuzz exec is
// cheap; the 5s request budget means a pathological body can at worst
// time out into a 408, never hang the target.
func fuzzTestServer() *server {
	fuzzOnce.Do(func() {
		cfg := querygraph.DefaultWorldConfig()
		cfg.Topics = 4
		cfg.ArticlesPerTopic = 8
		cfg.DocsPerTopic = 8
		cfg.Queries = 4
		cfg.NoiseVocab = 40
		w, err := querygraph.GenerateWorld(cfg)
		if err != nil {
			panic(err)
		}
		c, err := querygraph.Build(w)
		if err != nil {
			panic(err)
		}
		fuzzServer = newServer(c, 5*time.Second, querygraph.NewMetricsObserver())
	})
	return fuzzServer
}

// fuzzPaths are the POST endpoints whose JSON decoding the fuzzer drives.
var fuzzPaths = []string{
	"/v1/search",
	"/v1/search/batch",
	"/v1/expand",
	"/v1/expand/batch",
	"/v1/admin/reload",
}

// searchBodies are the /v1/search request bodies that used to pin the
// hand-rolled parser against encoding/json — nulls, duplicate keys,
// escapes, surrogate pairs, leading zeros, non-integer k, trailing bytes.
// The endpoint now decodes through encoding/json itself; the bodies stay
// as fuzz seeds and as a status table: each is answered 200 (code "") or
// 400 with the given error code, never a 500. invalid_query means the
// body decoded and the engine refused its empty query.
var searchBodies = []struct {
	body string
	code string
}{
	{`{}`, "invalid_query"},
	{`null`, "invalid_query"},
	{`  null  `, "invalid_query"},
	{`{"query":"graph databases","k":15,"timeout_ms":250}`, ""},
	{`{"timeout_ms":250,"k":15,"query":"order independent"}`, ""},
	{`{"query":"dup","query":"last wins"}`, ""},
	{`{"query":null,"k":null,"timeout_ms":null}`, "invalid_query"},
	{`{"query":"esc \" \\ \/ \b \f \n \r \t"}`, ""},
	{`{"query":"\u0041\u00e9\u4e2d"}`, ""},
	{`{"query":"\ud83d\ude00 pair"}`, ""},
	{`{"query":"lone \ud800 high"}`, ""},
	{`{"query":"low first \udc00\ud800"}`, ""},
	{`{"k":-7}`, "invalid_query"},
	{`{"k":0}`, "invalid_query"},
	{`{"timeout_ms":0}`, "invalid_query"},
	{`{"k":9223372036854775807}`, "invalid_query"},
	{"\t {\n\"query\" : \"ws\" ,\n\"k\" : 2 }", ""},
	{`{"query":"trailing"} garbage after`, ""},
	{`{"query":"trailing"}{"k":1}`, ""},

	{``, "invalid_body"},
	{`   `, "invalid_body"},
	{`[]`, "invalid_body"},
	{`"just a string"`, "invalid_body"},
	{`42`, "invalid_body"},
	{`true`, "invalid_body"},
	{`{`, "invalid_body"},
	{`{"query"}`, "invalid_body"},
	{`{"query":}`, "invalid_body"},
	{`{"query":"unterminated`, "invalid_body"},
	{`{"query":"bad \x escape"}`, "invalid_body"},
	{`{"query":"trunc \u12"}`, "invalid_body"},
	{`{"unknown_field":1}`, "invalid_body"},
	{`{"query":"a","extra":true}`, "invalid_body"},
	{`{"k":1.5}`, "invalid_body"},
	{`{"k":1e3}`, "invalid_body"},
	{`{"k":01}`, "invalid_body"},
	{`{"k":"5"}`, "invalid_body"},
	{`{"k":9223372036854775808}`, "invalid_body"},
	{`{"query":7}`, "invalid_body"},
	{`{"query":"a",}`, "invalid_body"},
	{`{"query":"a" "k":1}`, "invalid_body"},
	{`{"timeout_ms":true}`, "invalid_body"},
	{`{"timeout_ms":-1}`, "invalid_timeout"},
	{"{\"query\":\"raw ctrl \x01\"}", "invalid_body"},
}

func TestSearchBodyStatus(t *testing.T) {
	s := testServer(t)
	for _, c := range searchBodies {
		req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(c.body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		want := http.StatusOK
		if c.code != "" {
			want = http.StatusBadRequest
		}
		if rec.Code != want || (c.code != "" && errorCode(t, rec) != c.code) {
			t.Errorf("%q: answered %d %s, want %d %s", c.body, rec.Code, rec.Body.String(), want, c.code)
		}
	}
}

// FuzzServerRequests throws arbitrary bodies at every POST endpoint: the
// server must never panic, must always answer JSON, must keep the error
// envelope on failures, and must stay inside the documented status set —
// no request body may produce a 500.
func FuzzServerRequests(f *testing.F) {
	// Seeds: one well-formed body per endpoint, every expansion knob, the
	// batch forms, and the classic malformed shapes.
	f.Add(0, []byte(`{"query":"ciazia","k":5}`))
	f.Add(0, []byte(`{"query":"#combine(#1(grand canal) venice)","k":15,"timeout_ms":100}`))
	f.Add(1, []byte(`{"queries":["a","b","#1(c d)"],"k":3,"workers":2}`))
	f.Add(2, []byte(`{"keywords":"ciazia","k":3,"max_features":5,"max_cycle_len":4,"radius":1,"max_neighborhood":50,"min_category_ratio":0.1,"max_category_ratio":0.6,"min_density":0.25,"two_cycles":true,"frequency_rank":true,"redirect_aliases":true}`))
	f.Add(2, []byte(`{"keywords":"x","min_category_ratio":0.9,"max_category_ratio":0.1}`))
	f.Add(2, []byte(`{"keywords":"x","max_cycle_len":99}`))
	f.Add(3, []byte(`{"keywords":["ciazia","ciazia","other"],"k":2,"workers":0}`))
	f.Add(3, []byte(`{"keywords":[],"k":-5}`))
	f.Add(4, []byte(`{"manifest":"some/path.json"}`))
	f.Add(4, []byte(``))
	f.Add(0, []byte(`{not json`))
	f.Add(0, []byte(`{"query":"a","unknown_field":1}`))
	f.Add(1, []byte(`{"queries":"not a list"}`))
	f.Add(2, []byte("{\"keywords\":\"\\u0000\\uffff\",\"radius\":-1}"))
	f.Add(0, []byte(`null`))
	f.Add(0, []byte(`[]`))
	for _, c := range searchBodies {
		f.Add(0, []byte(c.body))
	}

	allowed := map[int]bool{
		http.StatusOK:                    true,
		http.StatusBadRequest:            true,
		http.StatusRequestTimeout:        true,
		http.StatusConflict:              true, // reload on a snapshot backend
		http.StatusRequestEntityTooLarge: true,
		http.StatusUnsupportedMediaType:  true,
		http.StatusUnprocessableEntity:   true,
	}
	f.Fuzz(func(t *testing.T, which int, body []byte) {
		s := fuzzTestServer()
		idx := which % len(fuzzPaths)
		if idx < 0 {
			idx += len(fuzzPaths) // negation would overflow on MinInt
		}
		path := fuzzPaths[idx]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)

		if !allowed[rec.Code] {
			t.Fatalf("%s %q: status %d outside the documented set (%s)",
				path, body, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: response Content-Type %q", path, ct)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s: response is not valid JSON: %q", path, rec.Body.String())
		}
		if rec.Code != http.StatusOK {
			var resp errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error.Code == "" {
				t.Fatalf("%s: %d response without error envelope: %q", path, rec.Code, rec.Body.String())
			}
		}
	})
}
