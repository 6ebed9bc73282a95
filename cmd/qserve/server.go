package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"mime"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	querygraph "github.com/querygraph/querygraph"
	"github.com/querygraph/querygraph/internal/trace"
)

// statusClientClosedRequest is the nginx-convention status for a request
// whose client went away before the response was ready; there is no
// standard-library constant for it.
const statusClientClosedRequest = 499

// maxRequestBody bounds request JSON; expansion batches are lists of short
// keyword strings, so 1 MiB is generous.
const maxRequestBody = 1 << 20

// server is the HTTP front end over one querygraph.Backend — the public
// serving contract the single-snapshot *Client, the sharded *Pool and the
// *Remote fleet coordinator all satisfy, so one front end serves every
// deployment shape without a private interface of its own. The batch
// endpoints run querygraph.Batch over the Backend's single-request
// methods.
type server struct {
	backend querygraph.Backend
	// pool is non-nil when the backend is a sharded Pool: it unlocks
	// /v1/admin/reload and the per-shard stats.
	pool *querygraph.Pool
	// remote is non-nil when the backend is a topology-backed fan-out
	// coordinator: healthz and stats report the fleet's shard count.
	remote *querygraph.Remote
	// metrics is the observer attached to the backend at Open time; when
	// non-nil its counters are served at GET /v1/metrics.
	metrics *querygraph.MetricsObserver
	// timeout bounds each request's context unless the request asks for
	// less via timeout_ms.
	timeout time.Duration
	started time.Time
	mux     *http.ServeMux

	// recorder is the flight recorder the admin mux serves at
	// /v1/debug/requests; nil discards completed traces.
	recorder *trace.Recorder
	// sample traces 1 in sample requests (1 = every request, the
	// default); 0 disables tracing entirely — requests then pay one
	// counter add and the X-Request-ID echo, nothing else.
	sample int
	reqSeq atomic.Uint64
	// slowlogMS dumps a slow request's full span tree through logger
	// when its duration reaches the threshold (0 disables).
	slowlogMS float64
	// accessLog logs one line per completed traced request when set.
	accessLog bool
	// logger receives access-log and slowlog output; nil silences both.
	logger *slog.Logger
}

func newServer(be querygraph.Backend, timeout time.Duration, metrics *querygraph.MetricsObserver) *server {
	s := &server{
		backend: be,
		metrics: metrics,
		timeout: timeout,
		started: time.Now(),
		mux:     http.NewServeMux(),
		sample:  1,
	}
	s.pool, _ = be.(*querygraph.Pool)
	s.remote, _ = be.(*querygraph.Remote)
	s.mux.HandleFunc("POST /v1/search", s.handleSearch)
	s.mux.HandleFunc("POST /v1/search/batch", s.handleSearchBatch)
	s.mux.HandleFunc("POST /v1/expand", s.handleExpand)
	s.mux.HandleFunc("POST /v1/expand/batch", s.handleExpandBatch)
	s.mux.HandleFunc("POST /v1/admin/reload", s.handleReload)
	s.mux.HandleFunc("POST /v1/admin/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/admin/compact", s.handleCompact)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	if metrics != nil {
		s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	}
	return s
}

// ServeHTTP is the tracing middleware around the mux. Every request —
// including errors and 404s — gets an X-Request-ID response header: a
// client-supplied valid ID is echoed back (and becomes the trace ID, so
// a caller can correlate its own logs with /v1/debug/requests), anything
// else is replaced by a freshly minted ID. Sampled-in requests carry a
// trace.Trace through context; the handlers and the backend annotate it
// with per-phase spans, and completion seals it into the flight
// recorder. Sampled-out requests skip all of that: one counter add, the
// header echo, and the nil-trace fast paths everywhere below.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := r.Header.Get("X-Request-Id")
	id, ok := trace.ParseID(reqID)
	if !ok {
		id = trace.NewID()
		reqID = id.String()
	}
	w.Header().Set("X-Request-Id", reqID)
	sw := statusWriterPool.Get().(*statusWriter)
	sw.ResponseWriter, sw.status = w, 0
	var tr *trace.Trace
	if s.sample > 0 && s.reqSeq.Add(1)%uint64(s.sample) == 0 {
		tr = trace.Begin(id)
		r = r.WithContext(trace.NewContext(r.Context(), tr))
	}
	defer s.finish(sw, r, tr, reqID)
	s.mux.ServeHTTP(sw, r)
}

// finish completes one request: it contains a handler panic to that
// request — stack to the log, 500 internal unless a header already went
// out (then the connection is aborted, as net/http would) — returns the
// pooled statusWriter and seals a sampled-in request's trace, so a
// panicking request shows in /v1/debug/requests as http_500.
func (s *server) finish(sw *statusWriter, r *http.Request, tr *trace.Trace, reqID string) {
	p := recover()
	if err, ok := p.(error); ok && errors.Is(err, http.ErrAbortHandler) {
		panic(p)
	}
	abort := p != nil && sw.status != 0
	if p != nil {
		if s.logger != nil {
			s.logger.Error("panic", slog.String("trace_id", reqID), slog.String("method", r.Method),
				slog.String("path", r.URL.Path), slog.Any("panic", p), slog.String("stack", string(debug.Stack())))
		}
		if !abort {
			s.fail(sw, http.StatusInternalServerError, "internal", "internal server error; the server log has the stack under request "+reqID)
		}
	}
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	sw.ResponseWriter = nil
	statusWriterPool.Put(sw)
	if tr != nil {
		errClass := ""
		if status >= 400 {
			errClass = "http_" + strconv.Itoa(status)
		}
		rec := tr.Finish(r.Method+" "+r.URL.Path, errClass)
		trace.Sink{Recorder: s.recorder, Logger: s.logger, AccessLog: s.accessLog, SlowlogMS: s.slowlogMS}.Emit(context.Background(), "request", rec,
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Float64("dur_ms", rec.DurMS),
			slog.Int("spans", len(rec.Spans)))
	}
	if abort {
		panic(http.ErrAbortHandler)
	}
}

// statusWriter captures the response status for the access log, the
// trace record and panic containment; pooled so no request allocates a
// wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

var statusWriterPool = sync.Pool{New: func() any { return new(statusWriter) }}

// reply is the tail of every POST response: the wall time of the work
// and the partial flag.
type reply struct {
	TookMS float64 `json:"took_ms"`
	// Partial marks a degraded answer: a topology-backed coordinator lost
	// shards but its policy allowed serving the survivors' merge. Absent
	// (false) on every complete response; on the expansion endpoints only
	// the retrieval leg can be partial, never the expansion itself.
	Partial bool `json:"partial,omitempty"`
}

func (m *reply) done(took time.Duration, partial bool) {
	m.TookMS, m.Partial = float64(took.Microseconds())/1000, partial
}

// response is a wire response struct that embeds reply.
type response interface {
	done(took time.Duration, partial bool)
}

// post is the envelope of every body-reading POST endpoint: content type,
// body cap and strict decode into req, then the timeout_ms check (a
// negative value is a 400, not a silent "absent"), then run.
func (s *server) post(w http.ResponseWriter, r *http.Request, req any, timeoutMS *int64, work func(context.Context) (response, error)) {
	if !s.decode(w, r, req) {
		return
	}
	if *timeoutMS < 0 {
		s.fail(w, http.StatusBadRequest, "invalid_timeout", fmt.Sprintf("timeout_ms must be >= 0, got %d", *timeoutMS))
		return
	}
	s.run(w, r, *timeoutMS, work)
}

// run does the work under the request's deadline — the server's -timeout,
// which a positive timeoutMS can only lower — and answers through the
// error model, or 200 with the response work built. ErrPartialResult is
// the one error that arrives alongside a usable response: it is served
// with the partial flag set.
func (s *server) run(w http.ResponseWriter, r *http.Request, timeoutMS int64, work func(context.Context) (response, error)) {
	timeout := s.timeout
	if timeoutMS > 0 && timeoutMS <= int64(timeout/time.Millisecond) {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	start := time.Now()
	resp, err := work(ctx)
	partial := errors.Is(err, querygraph.ErrPartialResult)
	if err != nil && !partial {
		s.writeError(w, err)
		return
	}
	resp.done(time.Since(start), partial)
	s.writeJSON(w, http.StatusOK, resp)
}

// --- wire types --------------------------------------------------------

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error errorBody `json:"error"`
}

// nonNil keeps an empty list on the wire as [] where encoding/json would
// write a nil slice as null.
func nonNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

type searchRequest struct {
	Query string `json:"query"`
	K     int    `json:"k"`
	// TimeoutMS lowers the server's per-request timeout for this call.
	TimeoutMS int64 `json:"timeout_ms"`
}

type searchResponse struct {
	Results []querygraph.Result `json:"results"`
	reply
}

type searchBatchRequest struct {
	Queries   []string `json:"queries"`
	K         int      `json:"k"`
	Workers   int      `json:"workers"`
	TimeoutMS int64    `json:"timeout_ms"`
}

type searchBatchResponse struct {
	Results [][]querygraph.Result `json:"results"`
	reply
}

// expandParams are the optional expansion knobs; pointers distinguish
// "absent, use the paper default" from an explicit zero — the same
// contract the functional options give Go callers.
type expandParams struct {
	MaxCycleLen      *int     `json:"max_cycle_len"`
	Radius           *int     `json:"radius"`
	MaxNeighborhood  *int     `json:"max_neighborhood"`
	MinCategoryRatio *float64 `json:"min_category_ratio"`
	MaxCategoryRatio *float64 `json:"max_category_ratio"`
	MinDensity       *float64 `json:"min_density"`
	MaxFeatures      *int     `json:"max_features"`
	TwoCycles        *bool    `json:"two_cycles"`
	FrequencyRank    *bool    `json:"frequency_rank"`
	RedirectAliases  *bool    `json:"redirect_aliases"`
}

func (p expandParams) options() ([]querygraph.ExpandOption, error) {
	var opts []querygraph.ExpandOption
	if p.MaxCycleLen != nil {
		opts = append(opts, querygraph.WithMaxCycleLen(*p.MaxCycleLen))
	}
	if p.Radius != nil {
		opts = append(opts, querygraph.WithRadius(*p.Radius))
	}
	if p.MaxNeighborhood != nil {
		opts = append(opts, querygraph.WithMaxNeighborhood(*p.MaxNeighborhood))
	}
	if (p.MinCategoryRatio == nil) != (p.MaxCategoryRatio == nil) {
		return nil, fmt.Errorf("%w: min_category_ratio and max_category_ratio must be set together",
			querygraph.ErrInvalidOptions)
	}
	if p.MinCategoryRatio != nil {
		opts = append(opts, querygraph.WithCategoryRatioBand(*p.MinCategoryRatio, *p.MaxCategoryRatio))
	}
	if p.MinDensity != nil {
		opts = append(opts, querygraph.WithMinDensity(*p.MinDensity))
	}
	if p.MaxFeatures != nil {
		opts = append(opts, querygraph.WithMaxFeatures(*p.MaxFeatures))
	}
	if p.TwoCycles != nil {
		opts = append(opts, querygraph.WithTwoCycles(*p.TwoCycles))
	}
	if p.FrequencyRank != nil {
		opts = append(opts, querygraph.WithFrequencyRank(*p.FrequencyRank))
	}
	if p.RedirectAliases != nil {
		opts = append(opts, querygraph.WithRedirectAliases(*p.RedirectAliases))
	}
	return opts, nil
}

type expandRequest struct {
	Keywords string `json:"keywords"`
	// K > 0 additionally runs the expanded retrieval and returns the top
	// K documents alongside the features.
	K         int   `json:"k"`
	TimeoutMS int64 `json:"timeout_ms"`
	expandParams
}

type expansionJSON struct {
	Keywords         string               `json:"keywords"`
	Entities         []querygraph.Entity  `json:"entities"`
	Features         []querygraph.Feature `json:"features"`
	CyclesConsidered int                  `json:"cycles_considered"`
	CyclesAccepted   int                  `json:"cycles_accepted"`
	Results          []querygraph.Result  `json:"results,omitempty"`
}

func (s *server) expansionJSON(exp *querygraph.Expansion, results []querygraph.Result) expansionJSON {
	out := expansionJSON{
		Keywords:         exp.Keywords,
		Entities:         make([]querygraph.Entity, len(exp.QueryArticles)),
		Features:         nonNil(exp.Features),
		CyclesConsidered: exp.CyclesConsidered,
		CyclesAccepted:   exp.CyclesAccepted,
		Results:          results,
	}
	for i, id := range exp.QueryArticles {
		out.Entities[i] = querygraph.Entity{ID: id, Title: s.backend.Title(id)}
	}
	return out
}

type expandResponse struct {
	expansionJSON
	reply
}

type expandBatchRequest struct {
	Keywords []string `json:"keywords"`
	// K > 0 additionally runs the expanded retrieval for every entry and
	// attaches the top K documents to each expansion.
	K         int   `json:"k"`
	Workers   int   `json:"workers"`
	TimeoutMS int64 `json:"timeout_ms"`
	expandParams
}

type expandBatchResponse struct {
	Expansions []expansionJSON `json:"expansions"`
	reply
}

// --- handlers ----------------------------------------------------------

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	s.post(w, r, &req, &req.TimeoutMS, func(ctx context.Context) (response, error) {
		rs, err := s.backend.Search(ctx, req.Query, s.rank(req.K))
		return &searchResponse{Results: nonNil(rs)}, err
	})
}

func (s *server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req searchBatchRequest
	s.post(w, r, &req, &req.TimeoutMS, func(ctx context.Context) (response, error) {
		k := s.rank(req.K)
		rss, err := querygraph.Batch(ctx, req.Queries, querygraph.BatchOptions{Workers: req.Workers}, "query",
			func(query string) ([]querygraph.Result, error) { return s.backend.Search(ctx, query, k) })
		for i, rs := range rss {
			rss[i] = nonNil(rs)
		}
		return &searchBatchResponse{Results: nonNil(rss)}, err
	})
}

func (s *server) handleExpand(w http.ResponseWriter, r *http.Request) {
	var req expandRequest
	s.post(w, r, &req, &req.TimeoutMS, func(ctx context.Context) (response, error) {
		opts, err := req.options()
		if err != nil {
			return nil, err
		}
		treq := querygraph.ExpandRequest{Keywords: req.Keywords, Options: opts}
		if req.K > 0 {
			treq.K = s.rank(req.K)
		}
		resp, err := treq.Do(ctx, s.backend)
		if resp.Expansion == nil {
			return nil, err // Do keeps the zero response on every error but ErrPartialResult
		}
		return &expandResponse{expansionJSON: s.expansionJSON(resp.Expansion, resp.Results)}, err
	})
}

// handleExpandBatch expands every entry, then, when k > 0, retrieves with
// every expansion; run fails the request on a retrieval error other than
// ErrPartialResult and serves that one as a partial 200.
func (s *server) handleExpandBatch(w http.ResponseWriter, r *http.Request) {
	var req expandBatchRequest
	s.post(w, r, &req, &req.TimeoutMS, func(ctx context.Context) (response, error) {
		opts, err := req.options()
		if err != nil {
			return nil, err
		}
		bopts := querygraph.BatchOptions{Workers: req.Workers}
		exps, err := querygraph.Batch(ctx, req.Keywords, bopts, "keywords",
			func(kw string) (*querygraph.Expansion, error) { return s.backend.Expand(ctx, kw, opts...) })
		if err != nil {
			return nil, err
		}
		var rss [][]querygraph.Result
		if req.K > 0 {
			k := s.rank(req.K)
			rss, err = querygraph.Batch(ctx, exps, bopts, "expansion",
				func(exp *querygraph.Expansion) ([]querygraph.Result, error) {
					rs, _, err := s.backend.SearchExpansion(ctx, exp, k)
					return rs, err
				})
		}
		out := make([]expansionJSON, len(exps))
		for i, exp := range exps {
			var rs []querygraph.Result
			if rss != nil {
				rs = rss[i]
			}
			out[i] = s.expansionJSON(exp, rs)
		}
		return &expandBatchResponse{Expansions: out}, err
	})
}

// --- admin: hot reload --------------------------------------------------

type reloadRequest struct {
	// Manifest optionally switches the pool to a different manifest path;
	// empty (or an empty body) re-reads the manifest the pool is on.
	Manifest string `json:"manifest"`
}

type reloadResponse struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	Shards     int    `json:"shards"`
	Documents  int    `json:"documents"`
	reply
}

// handleReload swaps in the next snapshot generation with zero downtime
// (Pool.Reload): in-flight requests finish on the old generation. An
// empty body, Content-Type or not, re-reads the current manifest;
// {"manifest": "..."} switches paths. Only a pool-backed server (qserve
// -load manifest.json) can reload; a single-snapshot server answers 409.
func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.pool == nil {
		s.fail(w, http.StatusConflict, "not_reloadable", "server is backed by a single snapshot, not a sharded manifest; restart to change data")
		return
	}
	var req reloadRequest
	if r.ContentLength != 0 && !s.decode(w, r, &req) {
		return
	}
	start := time.Now()
	if err := s.pool.Reload(req.Manifest); err != nil {
		s.fail(w, http.StatusUnprocessableEntity, "invalid_manifest", err.Error())
		return
	}
	st, shards := s.pool.Summary()
	resp := reloadResponse{Status: "ok", Generation: st.Delta.Generation, Shards: shards, Documents: st.Documents}
	resp.done(time.Since(start), false)
	s.writeJSON(w, http.StatusOK, resp)
}

// --- admin: live ingest and compaction ----------------------------------

// ingestRequest carries the documents in the wire shape of
// querygraph.Document, the ImageCLEF record the indexer understands. Only
// the English text section, the file name and the wiki-template comment
// feed the index (the paper's Section 2.1 extraction); id is an optional
// external identifier that must be unique across the base snapshot and
// the delta segment.
type ingestRequest struct {
	Documents []querygraph.Document `json:"documents"`
	TimeoutMS int64                 `json:"timeout_ms"`
}

type ingestResponse struct {
	Status string `json:"status"`
	querygraph.IngestStats
	reply
}

// handleIngest appends a batch of documents to the backend's in-memory
// delta segment; they are searchable by the time the 200 arrives. The
// batch is atomic: a duplicate external id rejects the whole batch (400),
// a full segment answers 429 delta_full (compact, then retry), and a
// read-only backend (a fan-out coordinator) answers 409.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	s.post(w, r, &req, &req.TimeoutMS, func(ctx context.Context) (response, error) {
		st, err := s.backend.Ingest(ctx, req.Documents)
		return &ingestResponse{Status: "ok", IngestStats: st}, err
	})
}

type compactResponse struct {
	Status string `json:"status"`
	querygraph.CompactStats
	reply
}

// handleCompact folds the delta segment into a fresh snapshot generation
// and hot-swaps it with zero downtime; search results are identical
// before and after, only the generation counter moves. An empty delta is
// a successful no-op with the generation unchanged. The body is ignored.
func (s *server) handleCompact(w http.ResponseWriter, r *http.Request) {
	s.run(w, r, 0, func(ctx context.Context) (response, error) {
		st, err := s.backend.Compact(ctx)
		return &compactResponse{Status: "ok", CompactStats: st}, err
	})
}

type healthzResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Articles      int     `json:"articles"`
	Documents     int     `json:"documents"`
	// Shards is present when serving a sharded pool or a shard-fleet
	// topology; Generation only when serving a pool.
	Shards     int    `json:"shards,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	// DeltaDocuments and PendingBytes surface the live delta segment:
	// documents ingested since the last compaction and the heap they hold
	// until a compaction folds them into the base snapshot.
	DeltaDocuments int   `json:"delta_documents"`
	PendingBytes   int64 `json:"pending_bytes"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// One stats snapshot per response: a reload landing mid-handler must
	// not mix two generations' numbers. A pool's comes without the
	// per-shard rows /v1/stats serves, so the probe is O(1) in the index.
	var st querygraph.Stats
	resp := healthzResponse{Status: "ok", UptimeSeconds: time.Since(s.started).Seconds()}
	if s.pool != nil {
		st, resp.Shards = s.pool.Summary()
		resp.Generation = st.Delta.Generation
	} else {
		st = s.backend.Stats()
		if s.remote != nil {
			resp.Shards = s.remote.NumShards()
		}
	}
	resp.Articles, resp.Documents = st.Articles, st.Documents
	resp.DeltaDocuments, resp.PendingBytes = st.Delta.Documents, st.Delta.PendingBytes
	s.writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the backend observer's counters in Prometheus text
// exposition format: request/error totals by operation and class,
// duration sums, expansion cache outcomes and the pool generation gauge.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.metrics.WritePrometheus(w)
}

type cacheStatsJSON struct {
	querygraph.CacheStats
	HitRate float64 `json:"hit_rate"`
}

type statsResponse struct {
	Articles         int            `json:"articles"`
	Redirects        int            `json:"redirects"`
	Categories       int            `json:"categories"`
	Links            int            `json:"links"`
	Documents        int            `json:"documents"`
	BenchmarkQueries int            `json:"benchmark_queries"`
	ExpandCache      cacheStatsJSON `json:"expand_cache"`
	// Sharded-pool extras: per-shard sizes and the generation counters.
	Shards     []querygraph.ShardStats `json:"shards,omitempty"`
	Generation uint64                  `json:"generation,omitempty"`
	Reloads    uint64                  `json:"reloads"`
	// Delta is the live-segment view: documents ingested since the last
	// compaction, the bytes a compaction would fold, the compaction
	// generation and the number of compactions run.
	Delta querygraph.DeltaStats `json:"delta"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	// One stats snapshot per response (see handleHealthz): on a pool, a
	// single PoolStats call supplies the aggregate and the per-shard rows
	// from the same generation.
	var resp statsResponse
	var st querygraph.Stats
	if s.pool != nil {
		ps := s.pool.PoolStats()
		st = ps.Stats
		resp.Shards = ps.Shards
		resp.Generation = ps.Generation
		resp.Reloads = ps.Reloads
	} else {
		st = s.backend.Stats()
	}
	resp.Articles = st.Articles
	resp.Redirects = st.Redirects
	resp.Categories = st.Categories
	resp.Links = st.Links
	resp.Documents = st.Documents
	resp.BenchmarkQueries = st.BenchmarkQueries
	resp.Delta = st.Delta
	resp.ExpandCache = cacheStatsJSON{st.Cache, st.Cache.HitRate()}
	s.writeJSON(w, http.StatusOK, resp)
}

// --- plumbing ----------------------------------------------------------

// rank clamps the requested depth: 0 means the paper's top-15, and the
// depth is capped so one request cannot ask the engine to rank the whole
// collection.
func (s *server) rank(k int) int {
	const maxK = 1000
	switch {
	case k <= 0:
		return querygraph.MaxRank
	case k > maxK:
		return maxK
	default:
		return k
	}
}

// requireJSON enforces the POST content type: the declared media type
// must be application/json (parameters like charset are fine). Rejecting
// everything else keeps browser-form cross-site posts and accidental
// x-www-form-urlencoded clients out of the JSON decoder. The exact form
// nearly every client sends skips the allocating media-type parser.
func (s *server) requireJSON(w http.ResponseWriter, r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "application/json" {
		return true
	}
	if mt, _, err := mime.ParseMediaType(ct); err == nil && mt == "application/json" {
		return true
	}
	s.fail(w, http.StatusUnsupportedMediaType, "unsupported_media_type", fmt.Sprintf("Content-Type %q is not application/json", ct))
	return false
}

// decode reads the one JSON value of a POST body into into, strictly: a
// non-JSON content type is a 415, a body over maxRequestBody a 413, and a
// malformed value or an unknown field a 400. On false the error response
// has been written.
func (s *server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	if !s.requireJSON(w, r) {
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge, "request_too_large", fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		s.fail(w, http.StatusBadRequest, "invalid_body", "bad request body: "+err.Error())
		return false
	}
	return true
}

// writeError maps an error from the serving API onto the HTTP error
// model, keyed by the same querygraph.ErrorClass taxonomy the observers
// use (one switch can't drift from the other): 408 for a deadline the
// request ran into, 499 (nginx convention) for a client that went away,
// 400 for invalid queries or options, 503 for a backend already retired
// by shutdown or a shard fleet below quorum, 409 for a write against a
// read-only backend, 429 for a delta segment at capacity, 500 for
// everything else — whose message, unlike the others', stays in the log.
// The body is always an errorResponse. ErrPartialResult never reaches
// here: run serves a degraded 200 with the partial flag instead.
func (s *server) writeError(w http.ResponseWriter, err error) {
	var status int
	class := querygraph.ErrorClass(err)
	code := class
	switch class {
	case "timeout":
		status = http.StatusRequestTimeout
	case "canceled":
		status, code = statusClientClosedRequest, "client_closed_request"
	case "invalid_query", "invalid_options":
		status = http.StatusBadRequest
	case "closed":
		status, code = http.StatusServiceUnavailable, "shutting_down"
	case "read_only":
		// The backend has no write path (a fan-out coordinator): ingest
		// against a shard server or a pool-backed deployment instead.
		status = http.StatusConflict
	case "delta_full":
		// The delta segment is at capacity; a compaction frees it. Retry
		// after POST /v1/admin/compact (or wait for the auto-compactor).
		status = http.StatusTooManyRequests
	case "shard_unavailable":
		// The fan-out coordinator could not reach quorum: the data plane is
		// down or degraded past policy, which is a service condition (retry
		// against a healthier fleet), not a caller mistake.
		status = http.StatusServiceUnavailable
	default:
		// Not the caller's doing, and possibly a batch item's recovered
		// panic with its stack: the details go to the log, as finish logs a
		// handler's panic, and the client gets the request ID.
		reqID := w.Header().Get("X-Request-Id")
		if s.logger != nil {
			s.logger.Error("internal error", slog.String("trace_id", reqID), slog.String("err", err.Error()))
		}
		s.fail(w, http.StatusInternalServerError, "internal", "internal server error; the server log has the details under request "+reqID)
		return
	}
	s.fail(w, status, code, err.Error())
}

// fail answers with the error envelope every non-2xx JSON response uses.
func (s *server) fail(w http.ResponseWriter, status int, code, message string) {
	s.writeJSON(w, status, errorResponse{Error: errorBody{Code: code, Message: message}})
}

// jsonContentType is assigned directly into the header map —
// http.Header.Set allocates a fresh one-element slice per call; this
// shared slice is read-only by contract (net/http only reads header
// values when writing the response).
var jsonContentType = []string{"application/json"}

// writeJSON answers status with body as one JSON line. Encode marshals
// the whole value before its single Write, so a body that cannot be
// encoded sends nothing after the header rather than half a document.
func (s *server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
