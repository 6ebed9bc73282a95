// Command qshard serves one shard snapshot over the compact binary RPC
// protocol (internal/rpc) — the per-shard half of the distributed
// serving runtime. A fleet of qshard processes, one per shard of a
// partition written by qgen -shards N, is fronted by the fan-out
// coordinator (querygraph.OpenTopology / qserve -load topology.json),
// which scatters plan-leaves and top-k requests across them and merges
// the per-shard rankings bit-identically to the in-process pool.
//
// Usage:
//
//	qshard -load DIR/shard-000.qgs -addr :9000 [-cache N]
//
// -load accepts either a per-shard snapshot (one slice of a qgen -shards
// partition) or a complete single snapshot (qgen -out world.qgs), which
// serves as the sole shard of a one-shard fleet. The same shard file may
// be served by several qshard processes on different addresses —
// replicas — which the coordinator uses for retry failover and hedged
// requests.
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting,
// requests already being handled finish writing their responses, then
// the process exits.
//
// -admin ADDR starts a private HTTP listener (mirroring qserve's)
// serving net/http/pprof under /debug/pprof/ and the shard's flight
// recorder at GET /v1/debug/requests — the last -trace-ring RPC
// requests that carried a trace ID, attributed to the originating
// coordinator request, so a slow coordinator trace can be joined
// against the shard-side view. Keep the admin address off the public
// network. -access-log emits one slog line per RPC and -slowlog-ms N
// logs any RPC at least N milliseconds slow at warn level.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/rpc"
	"github.com/querygraph/querygraph/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qshard: ")
	var (
		addr  = flag.String("addr", ":9000", "listen address")
		admin = flag.String("admin", "", "optional admin listen address serving net/http/pprof and GET /v1/debug/requests (disabled when empty; keep it private)")
		load  = flag.String("load", "", "shard snapshot to serve (qgen -shards N slice, or a complete .qgs as a one-shard fleet); required")
		cache = flag.Int("cache", 0, "expansion cache capacity (0 = default 1024, negative disables)")

		traceRing = flag.Int("trace-ring", 256, "flight-recorder capacity: last N traced RPC requests served at /v1/debug/requests on the admin listener")
		slowlogMS = flag.Float64("slowlog-ms", 0, "log any RPC at least this many milliseconds slow (0 disables)")
		accessLog = flag.Bool("access-log", false, "structured access log: one slog line per RPC request")
	)
	flag.Parse()
	if *load == "" {
		log.Fatal("-load is required: a shard snapshot (qgen -shards N -out DIR) or a complete snapshot (qgen -out world.qgs)")
	}

	var opts []core.SystemOption
	if *cache != 0 {
		opts = append(opts, core.WithExpandCache(*cache))
	}
	start := time.Now()
	srv, err := rpc.LoadServerFile(*load, opts...)
	if err != nil {
		log.Fatal(err)
	}
	id := srv.Identity()
	log.Printf("loaded %s in %v: shard %d/%d, %d local documents of %d global, %d benchmark queries",
		*load, time.Since(start).Round(time.Millisecond),
		id.ShardID, id.ShardCount, id.LocalDocs, id.GlobalDocs, id.NumQueries)

	recorder := trace.NewRecorder(*traceRing)
	srv.SetRequestHook(requestHook(recorder,
		slog.New(slog.NewTextHandler(os.Stderr, nil)), *accessLog, *slowlogMS))
	var adminSrv *http.Server
	if *admin != "" {
		adminSrv = trace.NewAdminServer(*admin, recorder)
		go func() {
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("admin server: %v", err)
			}
		}()
		log.Printf("admin endpoints (pprof, /v1/debug/requests) on %s", *admin)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	log.Printf("serving shard %d/%d on %s (protocol v%d)", id.ShardID, id.ShardCount, ln.Addr(), rpc.Version)
	// Serve closes itself when ctx fires (signal received) and returns
	// nil after the drain; anything else is a real listener failure.
	if err := srv.Serve(ctx, ln); err != nil {
		log.Fatal(err)
	}
	if adminSrv != nil {
		_ = adminSrv.Close()
	}
	log.Print("bye")
}
