// Command qserve is the HTTP front end of the reproduction: it loads a
// binary serving snapshot (qgen -out world.qgs), a sharded snapshot
// manifest (qgen -shards N -out DIR), or a shard-fleet topology (shards
// served remotely by qshard) at boot and serves search and cycle-based
// query expansion as a JSON API — the online half of the paper's
// offline-mine / online-serve split.
//
// Usage:
//
//	qserve -load world.qgs           [-addr :8080] [-timeout 5s] [-cache N]
//	qserve -load DIR/manifest.json   (sharded pool: scatter-gather + hot reload)
//	qserve -load topology.json       (fan-out coordinator over qshard servers)
//
// Endpoints:
//
//	POST /v1/search        {"query": "...", "k": 15, "timeout_ms": 500}
//	POST /v1/search/batch  {"queries": ["...", ...], "k": 15, "workers": 0}
//	POST /v1/expand        {"keywords": "...", "k": 15, "max_features": 10, ...}
//	POST /v1/expand/batch  {"keywords": ["...", ...], "workers": 0}
//	POST /v1/admin/reload  {"manifest": "..."} (pool only; empty body = same path)
//	POST /v1/admin/ingest  {"documents": [{"id": "...", "name": "...", "texts": [...]}, ...]}
//	POST /v1/admin/compact {} (fold the delta into a fresh generation; body ignored)
//	GET  /v1/healthz
//	GET  /v1/stats
//	GET  /v1/metrics       (Prometheus text format: request/error/cache counters)
//
// Ingested documents join the in-memory delta segment and are searchable
// by the time the POST returns, merged with the base snapshot under
// combined collection statistics — rankings are bit-identical to a full
// rebuild over the merged corpus. -delta-cap bounds the segment (429
// delta_full past it) and -auto-compact N folds it into a fresh
// generation in the background once it holds N documents; compaction is
// also available on demand via POST /v1/admin/compact. A topology-backed
// coordinator is read-only: ingest answers 409.
//
// The serving state is opened through querygraph.OpenBackend, which
// sniffs the artifact kind, and driven through the querygraph.Backend
// interface — the same contract either runtime satisfies. A
// querygraph.MetricsObserver is attached at open time; its counters are
// what GET /v1/metrics serves.
//
// POST bodies must declare Content-Type: application/json and are capped
// at 1 MiB (413 beyond). Every request runs under a deadline — the
// -timeout default, lowered per request via timeout_ms — and timeouts
// surface as 408 JSON errors (499 when the client itself went away).
// When serving a sharded pool, SIGHUP hot-reloads the manifest with zero
// downtime (in-flight requests finish on the old generation), like
// POST /v1/admin/reload. SIGINT/SIGTERM drain in-flight requests, retire
// the SIGHUP reload loop, and Close the backend before exiting.
//
// When serving a topology, the backend is a querygraph.Remote fan-out
// coordinator: searches scatter to the qshard fleet and merge
// bit-identically with the in-process runtimes. Under the degrade policy
// a fleet that lost shards (but kept quorum) answers 200 with
// "partial": true; below quorum the coordinator's shard_unavailable
// errors surface as 503.
//
// Every POST endpoint runs the same path: strict encoding/json decode
// into a wire struct, calls of the Backend's single-request methods (the
// batch endpoints run them through querygraph.Batch), the public result
// types encoded as they are (the wire schema is their json tags). A panic
// under a handler is contained to its request: 500 internal, stack in the
// log.
//
// -admin ADDR starts a second listener serving Go's net/http/pprof
// endpoints under /debug/pprof/ — CPU and heap profiles of the live
// server (see DESIGN.md, "Load testing & profiling") — and
// the flight recorder at GET /v1/debug/requests: the last -trace-ring
// completed request traces as span trees, ?min_ms=N keeping only the
// slow ones. Keep the admin address off the public network; it is
// deliberately a separate listener so the serving port never exposes
// profiling or traces.
//
// Every request is traced by default (-trace-sample 1; N traces 1 in N,
// 0 disables) and every response carries an X-Request-ID header — the
// client's own, when it sent a valid 16-hex-digit one, else freshly
// minted — which is the trace ID to look up in /v1/debug/requests.
// -access-log emits one structured slog line per traced request and
// -slowlog-ms N dumps the full span tree of any request at least N
// milliseconds slow. See DESIGN.md, "Tracing & the flight recorder".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	querygraph "github.com/querygraph/querygraph"
	"github.com/querygraph/querygraph/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qserve: ")
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		admin   = flag.String("admin", "", "optional admin listen address serving net/http/pprof under /debug/pprof/ (disabled when empty; keep it private)")
		load    = flag.String("load", "", "serving state: a .qgs snapshot (qgen -out FILE.qgs), a shard manifest .json (qgen -shards N -out DIR), or a shard-fleet topology .json (remote qshard servers); required")
		timeout = flag.Duration("timeout", 5*time.Second, "default per-request timeout (requests may lower it via timeout_ms)")
		cache   = flag.Int("cache", 0, "expansion cache capacity (0 = default 1024, negative disables)")

		deltaCap    = flag.Int("delta-cap", 0, "live delta segment capacity in documents (0 = default 65536, negative = reject all ingest)")
		autoCompact = flag.Int("auto-compact", 0, "fold the delta into a fresh generation in the background once it holds this many documents (0 disables)")

		traceRing   = flag.Int("trace-ring", 256, "flight-recorder capacity: last N completed request traces served at /v1/debug/requests on the admin listener")
		traceSample = flag.Int("trace-sample", 1, "trace 1 in N requests (1 = every request, 0 disables tracing)")
		slowlogMS   = flag.Float64("slowlog-ms", 0, "log the full span tree of any request at least this many milliseconds slow (0 disables)")
		accessLog   = flag.Bool("access-log", false, "structured access log: one slog line per traced request")
	)
	flag.Parse()
	if *load == "" {
		log.Fatal("-load is required: a snapshot (qgen -out world.qgs), a shard manifest (qgen -shards 4 -out worlddir), or a shard-fleet topology json")
	}
	if err := checkTimeout(*timeout); err != nil {
		log.Fatal(err)
	}

	metrics := querygraph.NewMetricsObserver()
	opts := []querygraph.Option{querygraph.WithObserver(metrics)}
	if *cache != 0 {
		opts = append(opts, querygraph.WithExpandCache(*cache))
	}
	if *deltaCap != 0 {
		opts = append(opts, querygraph.WithDeltaCapacity(*deltaCap))
	}
	if *autoCompact != 0 {
		opts = append(opts, querygraph.WithAutoCompact(*autoCompact))
	}
	start := time.Now()
	be, err := querygraph.OpenBackend(*load, opts...)
	if err != nil {
		log.Fatal(err)
	}
	pool, _ := be.(*querygraph.Pool)
	remote, _ := be.(*querygraph.Remote)
	st := be.Stats()
	switch {
	case pool != nil:
		log.Printf("loaded %s in %v: %d shards, %d articles, %d documents, %d benchmark queries",
			*load, time.Since(start).Round(time.Millisecond), pool.NumShards(),
			st.Articles, st.Documents, st.BenchmarkQueries)
	case remote != nil:
		log.Printf("connected to %s in %v: %d remote shards, %d articles, %d documents, %d benchmark queries",
			*load, time.Since(start).Round(time.Millisecond), remote.NumShards(),
			st.Articles, st.Documents, st.BenchmarkQueries)
	default:
		log.Printf("loaded %s in %v: %d articles, %d documents, %d benchmark queries",
			*load, time.Since(start).Round(time.Millisecond), st.Articles, st.Documents, st.BenchmarkQueries)
	}

	recorder := trace.NewRecorder(*traceRing)
	hs := newServer(be, *timeout, metrics)
	hs.recorder = recorder
	hs.sample = *traceSample
	hs.slowlogMS = *slowlogMS
	hs.accessLog = *accessLog
	hs.logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv := newHTTPServer(*addr, hs, *timeout)

	var adminSrv *http.Server
	if *admin != "" {
		adminSrv = trace.NewAdminServer(*admin, recorder)
		go func() {
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("admin server: %v", err)
			}
		}()
		log.Printf("admin endpoints (pprof) on %s", *admin)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	var (
		hup     chan os.Signal
		hupDone chan struct{}
	)
	if pool != nil {
		hup = make(chan os.Signal, 1)
		hupDone = make(chan struct{})
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			defer close(hupDone)
			reloadLoop(pool, hup)
		}()
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving on %s (per-request timeout %v)", *addr, *timeout)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Print("shutting down: draining in-flight requests")
	// Retire the SIGHUP loop before draining: signal.Stop ends delivery,
	// closing the channel exits the loop, and waiting on hupDone guarantees
	// no reload is mid-flight when the backend is closed. The loop used to
	// simply outlive the drain, leaving a window where a SIGHUP could
	// reload a pool that shutdown was concurrently retiring.
	if pool != nil {
		signal.Stop(hup)
		close(hup)
		<-hupDone
	}
	if adminSrv != nil {
		_ = adminSrv.Close()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := drainAndClose(shutdownCtx, srv, be); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Print("bye")
}

// checkTimeout rejects a non-positive -timeout at startup: every request's
// context would be born expired (each one a 408) and ReadTimeout would
// collapse to its pad.
func checkTimeout(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("-timeout must be positive, got %v", d)
	}
	return nil
}

// newHTTPServer builds the serving http.Server with its full timeout
// set. The server used to set only ReadHeaderTimeout, which left two
// holes: a client could trickle a request body forever (no ReadTimeout),
// and an idle keep-alive connection was held open indefinitely (no
// IdleTimeout). ReadTimeout is sized above the per-request deadline so a
// legitimate slow request hits the 408 JSON error from its own deadline,
// never a silently killed connection.
func newHTTPServer(addr string, handler http.Handler, reqTimeout time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       reqTimeout + readTimeoutPad,
		IdleTimeout:       idleTimeout,
	}
}

// The timeout components are package vars only so the slow-client tests
// can scale them down to milliseconds; production always runs the values
// below. ReadTimeout's pad keeps it strictly above the request deadline.
var (
	readHeaderTimeout = 5 * time.Second
	readTimeoutPad    = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// reloadLoop services SIGHUP hot reloads until its channel closes. Main
// retires it during shutdown — signal.Stop, close(hup), wait — so a
// reload can never race the drain or touch a closed pool.
func reloadLoop(pool *querygraph.Pool, hup <-chan os.Signal) {
	for range hup {
		t0 := time.Now()
		if err := pool.Reload(""); err != nil {
			log.Printf("SIGHUP reload failed (still serving generation %d): %v", pool.Generation(), err)
			continue
		}
		log.Printf("SIGHUP reload: now serving generation %d (%d shards, %d documents) after %v",
			pool.Generation(), pool.NumShards(), pool.Stats().Documents,
			time.Since(t0).Round(time.Millisecond))
	}
}

// drainAndClose is the shutdown sequence: drain in-flight HTTP requests
// (srv.Shutdown), then retire the backend so the generation/refcount
// state is released rather than abandoned — Pool.Close waits for any
// stragglers to release their generation, Client.Close drops the
// expansion cache. Backend.Close runs even when the drain times out, so
// a slow shutdown still retires the serving state.
func drainAndClose(ctx context.Context, srv *http.Server, be querygraph.Backend) error {
	shutdownErr := srv.Shutdown(ctx)
	if err := be.Close(); err != nil {
		return err
	}
	return shutdownErr
}
