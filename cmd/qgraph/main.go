// Command qgraph builds the ground truth and query graph for one benchmark
// query and prints a structural report — the per-query view behind the
// paper's Figures 3 and 4. With -dot it also writes the query graph in
// Graphviz format. Everything goes through the public querygraph API.
//
// Usage: qgraph [-seed N] [-query N] [-dot FILE] [-load FILE.qgs]
//
// With -load, the world is decoded from a binary snapshot written by
// qgen -out world.qgs instead of being regenerated and re-indexed
// (-seed is ignored in that mode).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	querygraph "github.com/querygraph/querygraph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qgraph: ")
	var (
		seed    = flag.Int64("seed", 0, "world seed (0 = default)")
		queryID = flag.Int("query", 0, "benchmark query to inspect")
		dotFile = flag.String("dot", "", "write the query graph as Graphviz DOT to this file")
		load    = flag.String("load", "", "load a binary world snapshot (qgen -out FILE.qgs) instead of generating")
	)
	flag.Parse()
	ctx := context.Background()

	var (
		client *querygraph.Client
		err    error
	)
	if *load != "" {
		// Open through the unified constructor; the structural analysis
		// below needs the single-system runtime, so a sharded manifest is
		// rejected with a pointed message instead of a decode error.
		be, berr := querygraph.OpenBackend(*load)
		if berr != nil {
			log.Fatal(berr)
		}
		var ok bool
		if client, ok = be.(*querygraph.Client); !ok {
			log.Fatalf("%s is a sharded manifest; qgraph's ground-truth analysis needs a single snapshot (qgen -out FILE.qgs)", *load)
		}
	} else {
		cfg := querygraph.DefaultWorldConfig()
		if *seed != 0 {
			cfg.Seed = *seed
		}
		w, gerr := querygraph.GenerateWorld(cfg)
		if gerr != nil {
			log.Fatal(gerr)
		}
		if client, err = querygraph.Build(w); err != nil {
			log.Fatal(err)
		}
	}
	defer client.Close()
	qs := client.Queries()
	if *queryID < 0 || *queryID >= len(qs) {
		log.Fatalf("query %d out of range [0, %d)", *queryID, len(qs))
	}
	q := qs[*queryID]

	gt, err := client.GroundTruth(ctx, q, querygraph.GroundTruthOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("query #%d: %q  (%d relevant documents)\n\n", q.ID, q.Keywords, len(q.Relevant))
	fmt.Printf("L(q.k) — query articles:\n")
	for _, a := range gt.QueryArticles {
		fmt.Printf("  - %s\n", client.Title(a))
	}
	fmt.Printf("\nA' — expansion features (X(q) = L(q.k) ∪ A'):\n")
	for _, a := range gt.Expansion {
		fmt.Printf("  - %s\n", client.Title(a))
	}
	fmt.Printf("\nobjective: baseline O = %.3f  →  X(q) O = %.3f\n", gt.Baseline, gt.Score)
	fmt.Printf("precision: P@1 %.2f  P@5 %.2f  P@10 %.2f  P@15 %.2f\n",
		gt.PrecisionAt[1], gt.PrecisionAt[5], gt.PrecisionAt[10], gt.PrecisionAt[15])
	fmt.Printf("local search: %d iterations, %d evaluations\n\n",
		gt.SearchStats.Iterations, gt.SearchStats.Evaluations)

	qg := gt.Graph
	st := qg.LargestComponentStats()
	fmt.Printf("query graph G(q): %d nodes, %d components\n", qg.Size(), qg.NumComponents())
	fmt.Printf("largest component: %d nodes (%.0f%% of G(q)), %.0f%% categories, TPR %.2f, expansion ratio %.2f\n\n",
		st.Size, 100*st.RelSize, 100*st.CategoryFrac, st.TPR, st.ExpansionRatio)

	cs, err := client.MineCycles(ctx, gt)
	if err != nil {
		log.Fatal(err)
	}
	byLen := map[int][]querygraph.Cycle{}
	for _, c := range cs {
		byLen[c.Length] = append(byLen[c.Length], c)
	}
	lengths := make([]int, 0, len(byLen))
	for l := range byLen {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	fmt.Printf("cycles containing a query article (length ≤ 5): %d\n", len(cs))
	for _, l := range lengths {
		fmt.Printf("  length %d: %d cycles\n", l, len(byLen[l]))
		for i, c := range byLen[l] {
			if i >= 3 {
				fmt.Printf("    ...\n")
				break
			}
			fmt.Printf("    [%s]  (cat ratio %.2f, density %.2f)\n",
				strings.Join(c.Titles, " "), c.CategoryRatio, c.ExtraEdgeDensity)
		}
	}

	if *dotFile != "" {
		f, err := os.Create(*dotFile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := client.WriteQueryGraphDOT(f, gt, fmt.Sprintf("query_%d", q.ID)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *dotFile)
	}
}
