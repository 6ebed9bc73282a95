// Command qbench regenerates every table and figure of the paper's
// evaluation on the synthetic benchmark and prints them side by side with
// the paper's reported values. It drives everything through the public
// querygraph API — the same surface cmd/qserve serves over HTTP.
//
// Usage:
//
//	qbench [-exp all|table2|table3|table4|fig5|fig6|fig7a|fig7b|fig9|text3|ablation|batch]
//	       [-seed N] [-queries N] [-workers N] [-load FILE.qgs|DIR/manifest.json]
//	       [-json FILE]
//
// The batch experiment exercises the concurrent serving layer
// (ExpandAll / SearchExpansions with the sharded expansion cache) and
// reports queries/sec, retrieval latency quantiles and the cache hit
// rate. With -json FILE (or "-" for stdout) the batch experiment also
// emits a machine-readable summary — queries/sec, p50/p99 latency, cache
// hit rate — uploaded by CI's bench job as a trajectory artifact.
//
// With -load, the world is decoded from a binary snapshot written by
// qgen -out world.qgs — or, when the path ends in .json, from a sharded
// snapshot manifest written by qgen -shards N (served through the
// in-process scatter-gather pool) or a shard-fleet topology (served
// through the networked fan-out coordinator over qshard servers); both
// JSON artifacts drive the batch experiment only. -seed and -queries
// are ignored in -load mode.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	querygraph "github.com/querygraph/querygraph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qbench: ")
	var (
		exp     = flag.String("exp", "all", "experiment to run (all, table2, table3, table4, fig5, fig6, fig7a, fig7b, fig9, text3, ablation, batch)")
		seed    = flag.Int64("seed", 0, "world seed (0 = the default benchmark seed)")
		queries = flag.Int("queries", 0, "number of benchmark queries (0 = default 50)")
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		load    = flag.String("load", "", "load a binary world snapshot (qgen -out FILE.qgs), a shard manifest (qgen -shards N -out DIR), or a shard-fleet topology .json instead of generating")
		jsonOut = flag.String("json", "", "write a machine-readable batch summary to this file (\"-\" = stdout); requires the batch experiment")
	)
	flag.Parse()
	ctx := context.Background()

	if *jsonOut != "" && *exp != "batch" && *exp != "all" {
		log.Fatalf("-json records the batch experiment; run with -exp batch (or all), not %q", *exp)
	}

	if strings.HasSuffix(*load, ".json") {
		if *exp != "batch" {
			log.Fatalf("a shard manifest or topology serves the batch experiment only; run with -exp batch, not %q", *exp)
		}
		runPool(ctx, *load, *workers, *jsonOut)
		return
	}

	start := time.Now()
	client, fresh, err := buildWorld(*load, *seed, *queries)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	qs := client.Queries()
	st := client.Stats()
	fmt.Printf("world: %s, %d articles, %d redirects, %d categories, %d links, %d docs, %d queries (ready in %v)\n\n",
		worldSource(*load, *seed), st.Articles, st.Redirects, st.Categories, st.Links,
		st.Documents, len(qs), time.Since(start).Round(time.Millisecond))

	needAnalysis := *exp != "ablation" && *exp != "batch"
	var analysis *querygraph.Analysis
	if needAnalysis {
		analysis, err = client.Analyze(ctx, querygraph.AnalyzeOptions{
			GroundTruth: querygraph.GroundTruthOptions{Seed: 1},
			Workers:     *workers,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	var ablation []querygraph.AblationRow
	if *exp == "ablation" || *exp == "all" {
		ablation, err = client.CompareExpanders(ctx, querygraph.AblationOptions{Workers: *workers})
		if err != nil {
			log.Fatal(err)
		}
	}

	switch *exp {
	case "all":
		fmt.Println(querygraph.ReportAll(analysis, ablation))
		// The analysis and ablation passes above warmed the client's
		// expansion cache; measure batch serving on a fresh client so the
		// cold throughput and cache counters are honest.
		cold, err := fresh()
		if err != nil {
			log.Fatal(err)
		}
		defer cold.Close()
		if err := runBatch(ctx, cold, qs, *workers, worldSource(*load, *seed), 0, *jsonOut); err != nil {
			log.Fatal(err)
		}
	case "table2":
		fmt.Println(querygraph.ReportTable2(analysis))
	case "table3":
		fmt.Println(querygraph.ReportTable3(analysis))
	case "table4":
		fmt.Println(querygraph.ReportTable4(analysis))
	case "fig5":
		fmt.Println(querygraph.ReportFig5(analysis))
	case "fig6":
		fmt.Println(querygraph.ReportFig6(analysis))
	case "fig7a":
		fmt.Println(querygraph.ReportFig7a(analysis))
	case "fig7b":
		fmt.Println(querygraph.ReportFig7b(analysis))
	case "fig9":
		fmt.Println(querygraph.ReportFig9(analysis))
	case "text3":
		fmt.Println(querygraph.ReportText3(analysis))
	case "ablation":
		fmt.Println(querygraph.ReportAblation(ablation))
	case "batch":
		if err := runBatch(ctx, client, qs, *workers, worldSource(*load, *seed), 0, *jsonOut); err != nil {
			log.Fatal(err)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

// runPool serves the batch experiment over a sharded serving artifact —
// a snapshot manifest (in-process scatter-gather pool) or a shard-fleet
// topology (networked fan-out over qshard servers) — driven through the
// one Backend contract (OpenBackend sniffs the artifact kind), so the
// two deployment shapes are benchmarked by the same harness and their
// summaries compare like for like.
func runPool(ctx context.Context, path string, workers int, jsonOut string) {
	start := time.Now()
	be, err := querygraph.OpenBackend(path)
	if err != nil {
		log.Fatal(err)
	}
	defer be.Close()
	var (
		shards int
		source string
	)
	switch b := be.(type) {
	case *querygraph.Pool:
		shards, source = b.NumShards(), "manifest "+path
	case *querygraph.Remote:
		shards, source = b.NumShards(), "topology "+path
	default:
		log.Fatalf("%s did not open as a sharded artifact; pass a manifest.json (qgen -shards) or a shard-fleet topology.json", path)
	}
	qs := be.Queries()
	if len(qs) == 0 {
		log.Fatalf("%s carries no query benchmark", source)
	}
	st := be.Stats()
	fmt.Printf("world: %s (%d shards), %d articles, %d redirects, %d categories, %d links, %d docs, %d queries (ready in %v)\n\n",
		source, shards, st.Articles, st.Redirects, st.Categories, st.Links,
		st.Documents, len(qs), time.Since(start).Round(time.Millisecond))
	if err := runBatch(ctx, be, qs, workers, source, shards, jsonOut); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

// buildWorld assembles the serving client, either by decoding a binary
// snapshot (path != "") or by generating and indexing the synthetic world.
// fresh re-creates an identical cold client — by re-decoding the snapshot
// or re-assembling from the generated world — for experiments that need
// untouched caches.
func buildWorld(path string, seed int64, queries int) (*querygraph.Client, func() (*querygraph.Client, error), error) {
	if path != "" {
		client, err := querygraph.Open(path)
		if err != nil {
			return nil, nil, err
		}
		if len(client.Queries()) == 0 {
			return nil, nil, fmt.Errorf("snapshot %s carries no query benchmark", path)
		}
		fresh := func() (*querygraph.Client, error) { return querygraph.Open(path) }
		return client, fresh, nil
	}
	cfg := querygraph.DefaultWorldConfig()
	if seed != 0 {
		cfg.Seed = seed
	}
	if queries > 0 {
		cfg.Queries = queries
	}
	w, err := querygraph.GenerateWorld(cfg)
	if err != nil {
		return nil, nil, err
	}
	client, err := querygraph.Build(w)
	if err != nil {
		return nil, nil, err
	}
	fresh := func() (*querygraph.Client, error) { return querygraph.Build(w) }
	return client, fresh, nil
}

func worldSource(path string, seed int64) string {
	if path != "" {
		return fmt.Sprintf("snapshot %s", path)
	}
	if seed == 0 {
		seed = querygraph.DefaultWorldConfig().Seed
	}
	return fmt.Sprintf("seed %d", seed)
}

// benchSummary is the machine-readable batch report (-json): one schema,
// one file per run, so CI's uploaded artifacts accumulate a comparable
// trajectory across commits and machines.
type benchSummary struct {
	SchemaVersion int    `json:"schema_version"`
	World         string `json:"world"`
	Queries       int    `json:"queries"`
	Shards        int    `json:"shards,omitempty"`
	Workers       int    `json:"workers"`

	ExpandColdQPS float64 `json:"expand_cold_qps"`
	ExpandWarmQPS float64 `json:"expand_warm_qps"`
	CacheHitRate  float64 `json:"cache_hit_rate"`

	SearchQPS      float64 `json:"search_qps"`
	SearchK        int     `json:"search_k"`
	LatencyP50MS   float64 `json:"latency_p50_ms"`
	LatencyP99MS   float64 `json:"latency_p99_ms"`
	LatencySamples int     `json:"latency_samples"`

	WallTimeMS float64 `json:"wall_time_ms"`
}

// runBatch drives the concurrent serving layer over the benchmark queries
// through the querygraph.Backend contract (either runtime serves it): one
// cold ExpandAll pass, several warm passes that hit the expansion cache,
// repeated batch retrieval passes over the expanded queries, and a
// sequential latency sampling pass for the p50/p99 quantiles. With
// jsonOut != "" the summary is also written as JSON.
func runBatch(ctx context.Context, client querygraph.Backend, qs []querygraph.Query, workers int, world string, shards int, jsonOut string) error {
	const (
		warmPasses   = 3
		searchPasses = 10
	)
	batchStart := time.Now()
	keywords := make([]string, len(qs))
	for i, q := range qs {
		keywords[i] = q.Keywords
	}
	bopts := querygraph.BatchOptions{Workers: workers}

	start := time.Now()
	exps, err := client.ExpandAll(ctx, keywords, bopts)
	if err != nil {
		return err
	}
	cold := time.Since(start)

	start = time.Now()
	for p := 0; p < warmPasses; p++ {
		if _, err := client.ExpandAll(ctx, keywords, bopts); err != nil {
			return err
		}
	}
	warm := time.Since(start)

	start = time.Now()
	searchable := 0
	for p := 0; p < searchPasses; p++ {
		rss, err := client.SearchExpansions(ctx, exps, querygraph.MaxRank, bopts)
		if err != nil {
			return err
		}
		if p == 0 {
			// Unexpandable entries keep their slot as a nil ranking; only
			// the searched ones count toward throughput.
			for _, rs := range rss {
				if rs != nil {
					searchable++
				}
			}
		}
	}
	searched := time.Since(start)

	// Latency quantiles: sequential single-request retrievals, the shape
	// an online user sees (no batch amortization).
	var samples []float64
	for pass := 0; pass < searchPasses && len(samples) < 1000; pass++ {
		for _, exp := range exps {
			t0 := time.Now()
			_, ok, err := client.SearchExpansion(ctx, exp, querygraph.MaxRank)
			if err != nil {
				return err
			}
			if ok {
				samples = append(samples, float64(time.Since(t0).Microseconds())/1000)
			}
		}
	}
	sort.Float64s(samples)
	quantile := func(q float64) float64 {
		if len(samples) == 0 {
			return 0
		}
		i := int(q * float64(len(samples)-1))
		return samples[i]
	}

	qps := func(n int, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(n) / d.Seconds()
	}
	st := client.CacheStats()
	fmt.Printf("batch serving (%d queries, workers=%d means GOMAXPROCS when 0):\n", len(qs), workers)
	fmt.Printf("  ExpandAll cold:    %10.0f queries/sec  (%v)\n",
		qps(len(keywords), cold), cold.Round(time.Microsecond))
	fmt.Printf("  ExpandAll warm:    %10.0f queries/sec  (%v over %d passes)\n",
		qps(warmPasses*len(keywords), warm), warm.Round(time.Microsecond), warmPasses)
	fmt.Printf("  SearchExpansions:  %10.0f queries/sec  (%v over %d passes, k=%d)\n",
		qps(searchPasses*searchable, searched), searched.Round(time.Microsecond), searchPasses, querygraph.MaxRank)
	fmt.Printf("  search latency:    p50 %.3f ms, p99 %.3f ms (%d sequential samples)\n",
		quantile(0.50), quantile(0.99), len(samples))
	fmt.Printf("  expand cache:      %d/%d entries, %.1f%% hit rate (%d hits, %d misses, %d deduped in flight)\n",
		st.Entries, st.Capacity, 100*st.HitRate(), st.Hits, st.Misses, st.Deduped)

	if jsonOut == "" {
		return nil
	}
	summary := benchSummary{
		SchemaVersion:  1,
		World:          world,
		Queries:        len(qs),
		Shards:         shards,
		Workers:        workers,
		ExpandColdQPS:  qps(len(keywords), cold),
		ExpandWarmQPS:  qps(warmPasses*len(keywords), warm),
		CacheHitRate:   st.HitRate(),
		SearchQPS:      qps(searchPasses*searchable, searched),
		SearchK:        querygraph.MaxRank,
		LatencyP50MS:   quantile(0.50),
		LatencyP99MS:   quantile(0.99),
		LatencySamples: len(samples),
		WallTimeMS:     float64(time.Since(batchStart).Microseconds()) / 1000,
	}
	blob, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if jsonOut == "-" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(jsonOut, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote JSON summary to %s\n", jsonOut)
	return nil
}
