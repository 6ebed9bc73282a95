package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"mime"
	"net/http"
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
// serving contract both the single-snapshot *Client and the sharded *Pool
// satisfy, so one front end serves either deployment shape without a
// private interface of its own.
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
	if s.sample <= 0 || s.reqSeq.Add(1)%uint64(s.sample) != 0 {
		s.mux.ServeHTTP(w, r)
		return
	}

	tr := trace.Begin(id)
	sw := statusWriterPool.Get().(*statusWriter)
	sw.ResponseWriter, sw.status = w, 0
	s.mux.ServeHTTP(sw, r.WithContext(trace.NewContext(r.Context(), tr)))
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	sw.ResponseWriter = nil
	statusWriterPool.Put(sw)

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

// statusWriter captures the response status for the access log and the
// trace record; pooled so the traced path does not allocate a wrapper
// per request.
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

// requestContext bounds the request with the server's default timeout;
// a request's own timeout_ms rides in the typed request's Timeout, which
// can only lower the effective deadline (earliest wins).
func (s *server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.timeout)
}

// requestTimeout converts a wire timeout_ms into the typed requests'
// Timeout field (0 = inherit the server deadline unchanged). Negative
// values never reach here: every endpoint rejects them first via
// validTimeout.
func requestTimeout(timeoutMS int64) time.Duration {
	if timeoutMS <= 0 {
		return 0
	}
	return time.Duration(timeoutMS) * time.Millisecond
}

// validTimeout rejects a negative timeout_ms with 400 invalid_timeout.
// Before this check existed, a negative value slid through requestTimeout's
// "<= 0 means inherit" clamp and silently behaved like an absent field —
// the opposite of what a client asking for a nonsensical deadline should
// see.
func (s *server) validTimeout(w http.ResponseWriter, timeoutMS int64) bool {
	if timeoutMS >= 0 {
		return true
	}
	s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: errorBody{
		Code:    "invalid_timeout",
		Message: fmt.Sprintf("timeout_ms must be >= 0, got %d", timeoutMS),
	}})
	return false
}

// --- wire types --------------------------------------------------------

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error errorBody `json:"error"`
}

type resultJSON struct {
	Doc   int32   `json:"doc"`
	Score float64 `json:"score"`
}

func resultsJSON(rs []querygraph.Result) []resultJSON {
	out := make([]resultJSON, len(rs))
	for i, r := range rs {
		out[i] = resultJSON{Doc: r.Doc, Score: r.Score}
	}
	return out
}

type searchRequest struct {
	Query string `json:"query"`
	K     int    `json:"k"`
	// TimeoutMS lowers the server's per-request timeout for this call.
	TimeoutMS int64 `json:"timeout_ms"`
}

type searchResponse struct {
	Results []resultJSON `json:"results"`
	TookMS  float64      `json:"took_ms"`
	// Partial marks a degraded answer: a topology-backed coordinator lost
	// shards but its policy allowed serving the survivors' merge. Absent
	// (false) on every complete response, so the zero-allocation fast path
	// never has to encode it.
	Partial bool `json:"partial,omitempty"`
}

type searchBatchRequest struct {
	Queries   []string `json:"queries"`
	K         int      `json:"k"`
	Workers   int      `json:"workers"`
	TimeoutMS int64    `json:"timeout_ms"`
}

type searchBatchResponse struct {
	Results [][]resultJSON `json:"results"`
	TookMS  float64        `json:"took_ms"`
	// Partial marks a degraded answer (see searchResponse.Partial).
	Partial bool `json:"partial,omitempty"`
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

type entityJSON struct {
	ID    int64  `json:"id"`
	Title string `json:"title"`
}

type featureJSON struct {
	Title         string  `json:"title"`
	CycleLen      int     `json:"cycle_len"`
	Density       float64 `json:"density"`
	CategoryRatio float64 `json:"category_ratio"`
}

type expansionJSON struct {
	Keywords         string        `json:"keywords"`
	Entities         []entityJSON  `json:"entities"`
	Features         []featureJSON `json:"features"`
	CyclesConsidered int           `json:"cycles_considered"`
	CyclesAccepted   int           `json:"cycles_accepted"`
	Results          []resultJSON  `json:"results,omitempty"`
}

func (s *server) expansionJSON(exp *querygraph.Expansion, results []querygraph.Result) expansionJSON {
	out := expansionJSON{
		Keywords:         exp.Keywords,
		Entities:         make([]entityJSON, len(exp.QueryArticles)),
		Features:         make([]featureJSON, len(exp.Features)),
		CyclesConsidered: exp.CyclesConsidered,
		CyclesAccepted:   exp.CyclesAccepted,
	}
	for i, id := range exp.QueryArticles {
		out.Entities[i] = entityJSON{ID: int64(id), Title: s.backend.Title(id)}
	}
	for i, f := range exp.Features {
		out.Features[i] = featureJSON{
			Title:         f.Title,
			CycleLen:      f.CycleLen,
			Density:       f.Density,
			CategoryRatio: f.CategoryRatio,
		}
	}
	if results != nil {
		out.Results = resultsJSON(results)
	}
	return out
}

type expandResponse struct {
	expansionJSON
	TookMS float64 `json:"took_ms"`
	// Partial marks a degraded retrieval leg (see searchResponse.Partial);
	// the expansion itself is never partial.
	Partial bool `json:"partial,omitempty"`
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
	TookMS     float64         `json:"took_ms"`
	// Partial marks a degraded retrieval leg (see searchResponse.Partial).
	Partial bool `json:"partial,omitempty"`
}

// --- handlers ----------------------------------------------------------

// handleSearch is the zero-allocation fast path (see fastpath.go): pooled
// body and encode buffers, a hand-rolled parser and encoder for the two
// wire structs, an interned query string, a timer-free pooled deadline
// context and Backend.SearchInto over pooled result storage. At steady
// state the handler allocates nothing per request — pinned by
// TestSearchHandlerZeroAlloc.
func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if !s.requireJSONFast(w, r) {
		return
	}
	sc := getScratch()
	defer putScratch(sc)
	body, ok := s.readBody(w, r, sc)
	if !ok {
		return
	}
	var req fastSearchReq
	if err := parseSearchBody(body, sc, &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: errorBody{
			Code:    "invalid_body",
			Message: "bad request body: " + err.Error(),
		}})
		return
	}
	if !s.validTimeout(w, req.timeoutMS) {
		return
	}
	timeout := s.timeout
	if t := requestTimeout(req.timeoutMS); t > 0 && t < timeout {
		timeout = t
	}
	sc.dctx.reset(r.Context(), timeout)
	start := time.Now()
	rs, err := s.backend.SearchInto(&sc.dctx, sc.internQuery(req.query), s.rank(int(req.k)), sc.results[:0])
	if err != nil {
		// A degraded coordinator (ErrPartialResult) still delivered the
		// survivors' ranking: serve it with the partial flag on the generic
		// slow path. The fast path below stays reserved for complete
		// answers, so its hand-rolled encoder never learns about the flag.
		if errors.Is(err, querygraph.ErrPartialResult) {
			sc.results = rs
			s.writeJSON(w, http.StatusOK, searchResponse{
				Results: resultsJSON(rs),
				TookMS:  tookMS(time.Since(start)),
				Partial: true,
			})
			return
		}
		s.writeError(w, err)
		return
	}
	sc.results = rs
	sc.out = appendSearchResponse(sc.out[:0], rs, time.Since(start))
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.out)
}

func (s *server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req searchBatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.validTimeout(w, req.TimeoutMS) {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	resp, err := querygraph.SearchBatchRequest{
		Queries: req.Queries,
		K:       s.rank(req.K),
		Workers: req.Workers,
		Timeout: requestTimeout(req.TimeoutMS),
	}.Do(ctx, s.backend)
	if err != nil && !errors.Is(err, querygraph.ErrPartialResult) {
		s.writeError(w, err)
		return
	}
	out := make([][]resultJSON, len(resp.Results))
	for i, rs := range resp.Results {
		out[i] = resultsJSON(rs)
	}
	s.writeJSON(w, http.StatusOK, searchBatchResponse{
		Results: out,
		TookMS:  tookMS(resp.Took),
		Partial: err != nil,
	})
}

func (s *server) handleExpand(w http.ResponseWriter, r *http.Request) {
	var req expandRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.validTimeout(w, req.TimeoutMS) {
		return
	}
	opts, err := req.options()
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	treq := querygraph.ExpandRequest{
		Keywords: req.Keywords,
		Options:  opts,
		Timeout:  requestTimeout(req.TimeoutMS),
	}
	if req.K > 0 {
		treq.K = s.rank(req.K)
	}
	resp, err := treq.Do(ctx, s.backend)
	if err != nil && !errors.Is(err, querygraph.ErrPartialResult) {
		s.writeError(w, err)
		return
	}
	var results []querygraph.Result
	if req.K > 0 {
		results = resp.Results
		if !resp.Searched {
			results = []querygraph.Result{}
		}
	}
	s.writeJSON(w, http.StatusOK, expandResponse{
		expansionJSON: s.expansionJSON(resp.Expansion, results),
		TookMS:        tookMS(resp.Took),
		Partial:       err != nil,
	})
}

func (s *server) handleExpandBatch(w http.ResponseWriter, r *http.Request) {
	var req expandBatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.validTimeout(w, req.TimeoutMS) {
		return
	}
	opts, err := req.options()
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	treq := querygraph.ExpandBatchRequest{
		Keywords: req.Keywords,
		Options:  opts,
		Workers:  req.Workers,
		Timeout:  requestTimeout(req.TimeoutMS),
	}
	if req.K > 0 {
		treq.K = s.rank(req.K)
	}
	resp, err := treq.Do(ctx, s.backend)
	if err != nil && !errors.Is(err, querygraph.ErrPartialResult) {
		s.writeError(w, err)
		return
	}
	out := make([]expansionJSON, len(resp.Expansions))
	for i, exp := range resp.Expansions {
		var rs []querygraph.Result
		if resp.Results != nil && resp.Results[i] != nil {
			rs = resp.Results[i]
		}
		out[i] = s.expansionJSON(exp, rs)
	}
	s.writeJSON(w, http.StatusOK, expandBatchResponse{
		Expansions: out,
		TookMS:     tookMS(resp.Took),
		Partial:    err != nil,
	})
}

// --- admin: hot reload --------------------------------------------------

type reloadRequest struct {
	// Manifest optionally switches the pool to a different manifest path;
	// empty (or an empty body) re-reads the manifest the pool is on.
	Manifest string `json:"manifest"`
}

type reloadResponse struct {
	Status     string  `json:"status"`
	Generation uint64  `json:"generation"`
	Shards     int     `json:"shards"`
	Documents  int     `json:"documents"`
	TookMS     float64 `json:"took_ms"`
}

// handleReload swaps in the next snapshot generation with zero downtime
// (Pool.Reload): in-flight requests finish on the old generation. An
// empty body re-reads the current manifest; {"manifest": "..."} switches
// paths. Only a pool-backed server (qserve -load manifest.json) can
// reload; a single-snapshot server answers 409.
func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.pool == nil {
		s.writeJSON(w, http.StatusConflict, errorResponse{Error: errorBody{
			Code:    "not_reloadable",
			Message: "server is backed by a single snapshot, not a sharded manifest; restart to change data",
		}})
		return
	}
	var req reloadRequest
	sc := getScratch()
	defer putScratch(sc)
	body, ok := s.readBody(w, r, sc)
	if !ok {
		return
	}
	if len(bytes.TrimSpace(body)) > 0 {
		if !s.requireJSON(w, r) {
			return
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: errorBody{
				Code:    "invalid_body",
				Message: "bad request body: " + err.Error(),
			}})
			return
		}
	}
	start := time.Now()
	if err := s.pool.Reload(req.Manifest); err != nil {
		s.writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: errorBody{
			Code:    "invalid_manifest",
			Message: err.Error(),
		}})
		return
	}
	st := s.pool.PoolStats()
	s.writeJSON(w, http.StatusOK, reloadResponse{
		Status:     "ok",
		Generation: st.Generation,
		Shards:     len(st.Shards),
		Documents:  st.Documents,
		TookMS:     ms(start),
	})
}

// --- admin: live ingest and compaction ----------------------------------

// ingestDoc is the wire shape of one document to ingest, mirroring the
// ImageCLEF record the indexer understands (corpus.Image). Only the
// English text section, the file name and the wiki-template comment feed
// the index (the paper's Section 2.1 extraction); id is an optional
// external identifier that must be unique across the base snapshot and
// the delta segment.
type ingestDoc struct {
	ID      string       `json:"id,omitempty"`
	File    string       `json:"file,omitempty"`
	Name    string       `json:"name,omitempty"`
	Texts   []ingestText `json:"texts,omitempty"`
	Comment string       `json:"comment,omitempty"`
	License string       `json:"license,omitempty"`
}

type ingestText struct {
	Lang        string          `json:"lang,omitempty"`
	Description string          `json:"description,omitempty"`
	Comment     string          `json:"comment,omitempty"`
	Captions    []ingestCaption `json:"captions,omitempty"`
}

type ingestCaption struct {
	Article string `json:"article,omitempty"`
	Value   string `json:"value"`
}

func (d ingestDoc) document() querygraph.Document {
	doc := querygraph.Document{
		ID:      d.ID,
		File:    d.File,
		Name:    d.Name,
		Comment: d.Comment,
		License: d.License,
	}
	for _, t := range d.Texts {
		text := querygraph.DocumentText{
			Lang:        t.Lang,
			Description: t.Description,
			Comment:     t.Comment,
		}
		for _, c := range t.Captions {
			text.Captions = append(text.Captions, querygraph.Caption{Article: c.Article, Value: c.Value})
		}
		doc.Texts = append(doc.Texts, text)
	}
	return doc
}

type ingestRequest struct {
	Documents []ingestDoc `json:"documents"`
	TimeoutMS int64       `json:"timeout_ms"`
}

type ingestResponse struct {
	Status     string  `json:"status"`
	Ingested   int     `json:"ingested"`
	DeltaDocs  int     `json:"delta_docs"`
	DeltaBytes int64   `json:"delta_bytes"`
	Generation uint64  `json:"generation"`
	TookMS     float64 `json:"took_ms"`
}

// handleIngest appends a batch of documents to the backend's in-memory
// delta segment; they are searchable by the time the 200 arrives. The
// batch is atomic: a duplicate external id rejects the whole batch (400),
// a full segment answers 429 delta_full (compact, then retry), and a
// read-only backend (a fan-out coordinator) answers 409.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.validTimeout(w, req.TimeoutMS) {
		return
	}
	docs := make([]querygraph.Document, len(req.Documents))
	for i, d := range req.Documents {
		docs[i] = d.document()
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	start := time.Now()
	st, err := s.backend.Ingest(ctx, docs)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, ingestResponse{
		Status:     "ok",
		Ingested:   st.Ingested,
		DeltaDocs:  st.DeltaDocs,
		DeltaBytes: st.DeltaBytes,
		Generation: st.Generation,
		TookMS:     ms(start),
	})
}

type compactResponse struct {
	Status     string  `json:"status"`
	Compacted  int     `json:"compacted"`
	Documents  int     `json:"documents"`
	Generation uint64  `json:"generation"`
	TookMS     float64 `json:"took_ms"`
}

// handleCompact folds the delta segment into a fresh snapshot generation
// and hot-swaps it with zero downtime; search results are identical
// before and after, only the generation counter moves. An empty delta is
// a successful no-op with the generation unchanged. The body is ignored.
func (s *server) handleCompact(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r)
	defer cancel()
	start := time.Now()
	st, err := s.backend.Compact(ctx)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, compactResponse{
		Status:     "ok",
		Compacted:  st.Compacted,
		Documents:  st.Documents,
		Generation: st.Generation,
		TookMS:     ms(start),
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
	resp := healthzResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	// One stats snapshot per response: a reload landing mid-handler must
	// not mix two generations' numbers.
	if s.pool != nil {
		ps := s.pool.PoolStats()
		resp.Articles = ps.Articles
		resp.Documents = ps.Documents
		resp.Shards = len(ps.Shards)
		resp.Generation = ps.Generation
		resp.DeltaDocuments = ps.Delta.Documents
		resp.PendingBytes = ps.Delta.PendingBytes
	} else {
		st := s.backend.Stats()
		resp.Articles = st.Articles
		resp.Documents = st.Documents
		resp.DeltaDocuments = st.Delta.Documents
		resp.PendingBytes = st.Delta.PendingBytes
		if s.remote != nil {
			resp.Shards = s.remote.NumShards()
		}
	}
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
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	Deduped  uint64  `json:"deduped"`
	Entries  int     `json:"entries"`
	Capacity int     `json:"capacity"`
	HitRate  float64 `json:"hit_rate"`
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
	Delta deltaStatsJSON `json:"delta"`
}

type deltaStatsJSON struct {
	Documents    int    `json:"documents"`
	PendingBytes int64  `json:"pending_bytes"`
	Generation   uint64 `json:"generation"`
	Compactions  uint64 `json:"compactions"`
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
	resp.Delta = deltaStatsJSON{
		Documents:    st.Delta.Documents,
		PendingBytes: st.Delta.PendingBytes,
		Generation:   st.Delta.Generation,
		Compactions:  st.Delta.Compactions,
	}
	resp.ExpandCache = cacheStatsJSON{
		Hits:     st.Cache.Hits,
		Misses:   st.Cache.Misses,
		Deduped:  st.Cache.Deduped,
		Entries:  st.Cache.Entries,
		Capacity: st.Cache.Capacity,
		HitRate:  st.Cache.HitRate(),
	}
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
// x-www-form-urlencoded clients out of the JSON decoder.
func (s *server) requireJSON(w http.ResponseWriter, r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil || mt != "application/json" {
		s.writeJSON(w, http.StatusUnsupportedMediaType, errorResponse{Error: errorBody{
			Code:    "unsupported_media_type",
			Message: fmt.Sprintf("Content-Type %q is not application/json", ct),
		}})
		return false
	}
	return true
}

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
			s.writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: errorBody{
				Code:    "request_too_large",
				Message: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
			}})
			return false
		}
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: errorBody{
			Code:    "invalid_body",
			Message: "bad request body: " + err.Error(),
		}})
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
// everything else.
// The body is always an errorResponse. ErrPartialResult never reaches
// here: the handlers serve a degraded 200 with the partial flag instead.
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
		status, code = http.StatusInternalServerError, "internal"
	}
	s.writeJSON(w, status, errorResponse{Error: errorBody{Code: code, Message: err.Error()}})
}

// encoderBufPool recycles the staging buffers writeJSON encodes into; the
// per-response json.Encoder is unavoidable on this generic path, but the
// buffer (the larger allocation) is not.
var encoderBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (s *server) writeJSON(w http.ResponseWriter, status int, body any) {
	buf := encoderBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	_ = json.NewEncoder(buf).Encode(body)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	encoderBufPool.Put(buf)
}

func ms(start time.Time) float64 {
	return tookMS(time.Since(start))
}

func tookMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}
