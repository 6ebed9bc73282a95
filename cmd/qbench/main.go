// Command qbench regenerates every table and figure of the paper's
// evaluation on the synthetic benchmark and prints them side by side with
// the paper's reported values. It drives everything through the public
// querygraph API — the same surface cmd/qserve serves over HTTP.
//
// Usage:
//
//	qbench [-exp all|table2|table3|table4|fig5|fig6|fig7a|fig7b|fig9|text3|ablation]
//	       [-seed N] [-queries N] [-workers N] [-load FILE.qgs]
//
// With -load, the world is decoded from a binary snapshot written by
// qgen -out world.qgs; -seed and -queries are ignored in -load mode.
// Serving performance — throughput, latency, the expansion cache — is
// measured by the benchmark harness (bash bench/run.sh), not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	querygraph "github.com/querygraph/querygraph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qbench: ")
	var (
		exp     = flag.String("exp", "all", "experiment to run (all, table2, table3, table4, fig5, fig6, fig7a, fig7b, fig9, text3, ablation)")
		seed    = flag.Int64("seed", 0, "world seed (0 = the default benchmark seed)")
		queries = flag.Int("queries", 0, "number of benchmark queries (0 = default 50)")
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		load    = flag.String("load", "", "load a binary world snapshot (qgen -out FILE.qgs) instead of generating")
	)
	flag.Parse()
	ctx := context.Background()

	start := time.Now()
	client, err := buildWorld(*load, *seed, *queries)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	qs := client.Queries()
	st := client.Stats()
	fmt.Printf("world: %s, %d articles, %d redirects, %d categories, %d links, %d docs, %d queries (ready in %v)\n\n",
		worldSource(*load, *seed), st.Articles, st.Redirects, st.Categories, st.Links,
		st.Documents, len(qs), time.Since(start).Round(time.Millisecond))

	var analysis *querygraph.Analysis
	if *exp != "ablation" {
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
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

// buildWorld assembles the serving client, either by decoding a binary
// snapshot (path != "") or by generating and indexing the synthetic world.
func buildWorld(path string, seed int64, queries int) (*querygraph.Client, error) {
	if path != "" {
		client, err := querygraph.Open(path)
		if err != nil {
			return nil, err
		}
		if len(client.Queries()) == 0 {
			return nil, fmt.Errorf("snapshot %s carries no query benchmark", path)
		}
		return client, nil
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
		return nil, err
	}
	return querygraph.Build(w)
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
