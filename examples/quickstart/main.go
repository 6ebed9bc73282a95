// Quickstart: build (or load) a small synthetic world through the public
// querygraph API, expand one query with the cycle-based expander, and
// inspect the proposed expansion features. Serving goes through the
// unified querygraph.Backend contract, so the same code drives a built
// client, a loaded snapshot, or a sharded pool.
//
// Run: go run ./examples/quickstart
//
// The serving state can be persisted and restored through the binary
// snapshot subsystem:
//
//	go run ./examples/quickstart -save world.qgs            # build once
//	go run ./examples/quickstart -load world.qgs            # serve instantly
//	go run ./examples/quickstart -load DIR/manifest.json    # sharded pool
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
	loadPath := flag.String("load", "", "load a serving artifact (.qgs snapshot or shard manifest.json) instead of generating")
	savePath := flag.String("save", "", "after generating, save the serving state to this .qgs file")
	flag.Parse()
	ctx := context.Background()

	var backend querygraph.Backend
	if *loadPath != "" {
		// 1b. Load a previously saved serving state: OpenBackend sniffs
		//     whether the path is a single snapshot or a shard manifest and
		//     returns the matching runtime behind the one Backend contract.
		start := time.Now()
		be, err := querygraph.OpenBackend(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		backend = be
		fmt.Printf("loaded %s in %v\n", *loadPath, time.Since(start).Round(time.Millisecond))
	} else {
		// 1. A deterministic world: Wikipedia-shaped knowledge base, an
		//    ImageCLEF-shaped document collection and a query benchmark.
		cfg := querygraph.DefaultWorldConfig()
		cfg.Topics = 10
		cfg.DocsPerTopic = 30
		cfg.Queries = 10
		world, err := querygraph.GenerateWorld(cfg)
		if err != nil {
			log.Fatal(err)
		}

		// 2. Assemble the client: index the collection, build the engine
		//    and the entity linker.
		client, err := querygraph.Build(world)
		if err != nil {
			log.Fatal(err)
		}
		if *savePath != "" {
			f, err := os.Create(*savePath)
			if err != nil {
				log.Fatal(err)
			}
			if err := client.Save(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("saved serving state to %s\n", *savePath)
		}
		backend = client
	}
	defer backend.Close()
	stats := backend.Stats()
	fmt.Printf("knowledge base: %d articles, %d redirects, %d categories\n",
		stats.Articles, stats.Redirects, stats.Categories)
	fmt.Printf("collection: %d documents\n\n", stats.Documents)
	queries := backend.Queries()
	if len(queries) == 0 {
		log.Fatal("no benchmark queries available")
	}

	// 3. Expand a benchmark query with the paper's findings — mine cycles
	//    of length <= 5 around the query entities and keep the dense ones
	//    with a category ratio around 30% — and run the expanded retrieval
	//    in the same request (K > 0 attaches the top documents).
	query := queries[0]
	fmt.Printf("query: %q\n", query.Keywords)

	start := time.Now()
	resp, err := querygraph.ExpandRequest{Keywords: query.Keywords, K: 10}.Do(ctx, backend)
	took := time.Since(start)
	if err != nil {
		log.Fatal(err)
	}
	expansion := resp.Expansion
	fmt.Printf("linked entities:\n")
	for _, id := range expansion.QueryArticles {
		fmt.Printf("  - %s\n", backend.Title(id))
	}
	fmt.Printf("cycles: %d considered, %d of the lengths measured accepted by the structural filters\n",
		expansion.CyclesConsidered, expansion.CyclesAccepted)
	fmt.Printf("expansion features:\n")
	for _, f := range expansion.Features {
		fmt.Printf("  - %-30s (from a length-%d cycle, density %.2f, category ratio %.2f)\n",
			f.Title, f.CycleLen, f.Density, f.CategoryRatio)
	}

	// 4. The expanded retrieval rode along in the request.
	if !resp.Searched {
		log.Fatal("query not expandable")
	}
	fmt.Printf("\ntop results (doc id, score), expanded in %v:\n", took.Round(time.Microsecond))
	for i, r := range resp.Results {
		relevant := ""
		for _, d := range query.Relevant {
			if d == r.Doc {
				relevant = "  [relevant]"
				break
			}
		}
		fmt.Printf("  %2d. doc %-6d %.3f%s\n", i+1, r.Doc, r.Score, relevant)
	}
}
