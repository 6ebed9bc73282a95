package trace

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// NewAdminServer builds the private admin listener qserve and qshard both
// start under -admin: Go's pprof handlers and the flight recorder on an
// explicit mux — never the default mux, so nothing else leaks onto this
// port, and never the serving port, so neither profiles nor request traces
// leak onto that one.
func NewAdminServer(addr string, rec *Recorder) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /v1/debug/requests", Handler(rec))
	return &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
}

// Sink is where a completed request goes, the same three places in every
// process: the flight recorder, the access log and the slow log.
type Sink struct {
	// Recorder keeps the record for /v1/debug/requests; nil discards it.
	Recorder *Recorder
	// Logger receives both log lines; nil silences them.
	Logger *slog.Logger
	// AccessLog writes one info line per request.
	AccessLog bool
	// SlowlogMS writes a warn line carrying the full span tree for any
	// request at least this many milliseconds slow (0 disables).
	SlowlogMS float64
}

// Emit files one completed request. msg names its log lines (msg and
// "slow "+msg); access is what the access line says about the request
// beyond its trace ID, which differs by protocol — method, path and status
// for HTTP, op and error class for a shard RPC. ctx goes to the logger's
// handler, nowhere else.
func (s Sink) Emit(ctx context.Context, msg string, rec *Record, access ...slog.Attr) {
	s.Recorder.Store(rec)
	if s.Logger == nil {
		return
	}
	id := slog.String("trace_id", rec.TraceID)
	if s.AccessLog {
		s.Logger.LogAttrs(ctx, slog.LevelInfo, msg, append([]slog.Attr{id}, access...)...)
	}
	if s.SlowlogMS > 0 && rec.DurMS >= s.SlowlogMS {
		spans, _ := json.Marshal(rec.Spans) // plain floats, ints and strings: cannot fail
		s.Logger.LogAttrs(ctx, slog.LevelWarn, "slow "+msg, id,
			slog.String("op", rec.Op),
			slog.Float64("dur_ms", rec.DurMS),
			slog.String("err", rec.Err),
			slog.String("spans", string(spans)))
	}
}

// Handler serves the recorder's snapshot as JSON — the flight-recorder
// endpoint both qserve and qshard mount at GET /v1/debug/requests on
// their private admin listeners (never the serving port: traces carry
// query text in span details). ?min_ms=N keeps only requests at least
// that slow, which is how "show me the outliers" works without log
// diving.
func Handler(rec *Recorder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var minMS float64
		if v := r.URL.Query().Get("min_ms"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 {
				http.Error(w, `{"error":{"code":"invalid_min_ms","message":"min_ms must be a non-negative number"}}`,
					http.StatusBadRequest)
				return
			}
			minMS = f
		}
		recs := rec.Snapshot(minMS)
		if recs == nil {
			recs = []*Record{}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Requests []*Record `json:"requests"`
		}{recs})
	}
}
