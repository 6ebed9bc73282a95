// Cycleanalysis: the structural study of Section 3 on one query — assemble
// the query graph, enumerate its cycles, and print the per-cycle
// characteristics (length, category ratio, density of extra edges,
// contribution), in the spirit of the paper's Figures 3, 4 and 8.
// Everything runs through the public querygraph API.
//
// Run: go run ./examples/cycleanalysis [-load world.qgs] [query-id]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"slices"
	"strconv"
	"strings"

	querygraph "github.com/querygraph/querygraph"
)

func main() {
	log.SetFlags(0)
	loadPath := flag.String("load", "", "load a binary world snapshot (qgen -out FILE.qgs) instead of generating")
	flag.Parse()
	ctx := context.Background()
	queryID := 3
	if flag.NArg() > 0 {
		id, err := strconv.Atoi(flag.Arg(0))
		if err != nil {
			log.Fatalf("bad query id %q", flag.Arg(0))
		}
		queryID = id
	}

	client, err := buildOrLoad(*loadPath)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	queries := client.Queries()
	if queryID < 0 || queryID >= len(queries) {
		log.Fatalf("query id out of range [0, %d)", len(queries))
	}
	q := queries[queryID]

	gt, err := client.GroundTruth(ctx, q, querygraph.GroundTruthOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query #%d %q\n", q.ID, q.Keywords)
	fmt.Printf("G(q): %d nodes in %d components; baseline O = %.3f\n\n",
		gt.Graph.Size(), gt.Graph.NumComponents(), gt.Baseline)

	cycles, err := client.MineCycles(ctx, gt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-5s  %-55s  %5s  %7s  %8s\n", "len", "cycle", "cats", "density", "contrib")
	for _, c := range cycles {
		// Contribution: add the cycle's articles (ignoring categories, as
		// the paper does) to L(q.k) and re-evaluate. L(q.k) ∪ C is a set,
		// and the cycle holds a query article: each title enters once.
		arts := append(slices.Clone(gt.QueryArticles), c.Articles...)
		slices.Sort(arts)
		arts = slices.Compact(arts)
		after, _, err := client.Evaluate(ctx, q.Keywords, arts, q.Relevant)
		if err != nil {
			log.Fatal(err)
		}
		names := make([]string, len(c.Titles))
		cats := 0
		for i, title := range c.Titles {
			if c.IsCategory[i] {
				names[i] = "[" + title + "]"
				cats++
			} else {
				names[i] = title
			}
		}
		desc := strings.Join(names, " — ")
		if len(desc) > 55 {
			desc = desc[:52] + "..."
		}
		fmt.Printf("%-5d  %-55s  %5d  %7.2f  %+7.1f%%\n",
			c.Length, desc, cats, c.ExtraEdgeDensity,
			querygraph.Contribution(gt.Baseline, after))
	}
	if len(cycles) == 0 {
		fmt.Println("(no cycles around the query articles — try another query)")
	}
}

// buildOrLoad assembles the serving client, decoding a binary snapshot
// when path is given and generating the default world otherwise.
func buildOrLoad(path string) (*querygraph.Client, error) {
	if path != "" {
		return querygraph.Open(path)
	}
	world, err := querygraph.GenerateWorld(querygraph.DefaultWorldConfig())
	if err != nil {
		return nil, err
	}
	return querygraph.Build(world)
}
