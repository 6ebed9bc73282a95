// Command qload is the HTTP load driver for qserve: it sustains a
// configurable request mix against a running server and reports latency
// quantiles from an HDR-style histogram — the harness behind the CI
// smoke burst. It drives the HTTP API
// only, so it loads any qserve deployment shape the same way — a single
// snapshot, a sharded pool, or a topology-backed fan-out coordinator
// over qshard servers.
//
// Usage:
//
//	qload -addr http://127.0.0.1:8080 [-connections 8] [-rps 0] \
//	      [-duration 10s] [-warmup 2s] [-mix search=90,expand=10] \
//	      [-k 15] [-batch 4] [-queries "a,b"] [-queryfile FILE] \
//	      [-json out.json] [-meta key=value]...
//
// The mix weights the five POST endpoints (search, search_batch, expand,
// expand_batch, ingest). The ingest op exercises the live write path:
// each request appends one anonymous document (no external id, so no
// collisions) built from a query string to the server's delta segment —
// pair it with qserve -auto-compact so a long run folds the segment
// instead of filling it. -rps 0 runs open throttle: every connection issues
// requests back to back. A positive -rps paces the fleet with a shared
// atomic ticket counter — ticket t is sent at start + t/rps, whichever
// worker draws it, so the offered load is independent of per-connection
// latency. Request bodies are pre-encoded, one per (op, query), so the
// measuring loop does no JSON work of its own.
//
// Latency is recorded per worker into log-linear histograms (bounded
// ≈3% relative error at any magnitude) and merged at the end; -json
// writes the full report, including per-op quantiles and status counts,
// plus any -meta key=value pairs (values that parse as numbers are
// emitted as JSON numbers). A warmup phase of the same shape runs first
// and is discarded, so pools, caches and connections are hot when
// measurement starts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// defaultQueries keep qload usable against any snapshot without flags;
// real benchmarking should pass the world's own queries via -queries or
// -queryfile.
var defaultQueries = []string{
	"graph structure",
	"query expansion",
	"wikipedia categories",
	"information retrieval",
	"knowledge circuits",
	"article links",
}

// metaFlag collects repeatable -meta key=value pairs; numeric values are
// kept as numbers so downstream JSON consumers can compare them.
type metaFlag map[string]any

func (m metaFlag) String() string { return fmt.Sprint(map[string]any(m)) }

func (m metaFlag) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("meta %q is not key=value", s)
	}
	if f, err := strconv.ParseFloat(v, 64); err == nil {
		m[k] = f
	} else {
		m[k] = v
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("qload: ")
	meta := metaFlag{}
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "base URL of the qserve instance under test")
		connections = flag.Int("connections", 8, "concurrent connections (one worker goroutine each)")
		rps         = flag.Float64("rps", 0, "target requests/second across all connections (0 = open throttle)")
		duration    = flag.Duration("duration", 10*time.Second, "measured load duration")
		warmup      = flag.Duration("warmup", 2*time.Second, "unrecorded warmup duration before measuring")
		mixFlag     = flag.String("mix", "search=100", "request mix, e.g. search=80,expand=10,search_batch=5,expand_batch=5")
		k           = flag.Int("k", 15, "ranking depth sent with search requests")
		batch       = flag.Int("batch", 4, "queries per batch request")
		queriesCSV  = flag.String("queries", "", "comma-separated queries to send (default: a built-in generic list)")
		queryFile   = flag.String("queryfile", "", "file with one query per line (overrides -queries)")
		jsonOut     = flag.String("json", "", "write the full JSON report to this path ('-' = stdout)")
	)
	flag.Var(meta, "meta", "extra key=value recorded in the JSON report (repeatable; numeric values stay numbers)")
	flag.Parse()

	mix, err := parseMix(*mixFlag)
	if err != nil {
		log.Fatal(err)
	}
	queries, err := loadQueries(*queriesCSV, *queryFile)
	if err != nil {
		log.Fatal(err)
	}

	target := strings.TrimRight(*addr, "/")
	if err := waitHealthy(target, 10*time.Second); err != nil {
		log.Fatal(err)
	}

	log.Printf("driving %s: %d connections, mix %s, %v warmup + %v measured%s",
		target, *connections, mixString(mix), *warmup, *duration, rpsNote(*rps))
	rep, err := run(loadConfig{
		Target:      target,
		Connections: *connections,
		TargetRPS:   *rps,
		Duration:    *duration,
		Warmup:      *warmup,
		Mix:         mix,
		K:           *k,
		Batch:       *batch,
		Queries:     queries,
	})
	if err != nil {
		log.Fatal(err)
	}
	if len(meta) > 0 {
		rep.Meta = meta
	}
	fmt.Print(rep.summary())
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, rep); err != nil {
			log.Fatal(err)
		}
	}
	if rep.Errors > 0 {
		log.Fatalf("%d of %d requests failed", rep.Errors, rep.Requests)
	}
}

func rpsNote(rps float64) string {
	if rps <= 0 {
		return ", open throttle"
	}
	return fmt.Sprintf(", paced at %.0f req/s", rps)
}

func loadQueries(csv, file string) ([]string, error) {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var queries []string
		for _, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line != "" {
				queries = append(queries, line)
			}
		}
		if len(queries) == 0 {
			return nil, fmt.Errorf("%s holds no queries", file)
		}
		return queries, nil
	}
	if csv != "" {
		var queries []string
		for _, q := range strings.Split(csv, ",") {
			if q = strings.TrimSpace(q); q != "" {
				queries = append(queries, q)
			}
		}
		if len(queries) == 0 {
			return nil, fmt.Errorf("-queries holds no queries")
		}
		return queries, nil
	}
	return defaultQueries, nil
}

// waitHealthy polls /v1/healthz until the server answers, so qload can
// be started alongside qserve without orchestrating a ready barrier.
func waitHealthy(target string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		resp, err := http.Get(target + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v: %v", target, patience, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
