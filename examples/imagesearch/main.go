// Imagesearch: the paper's motivating scenario — retrieval quality over an
// ImageCLEF-style image-metadata collection, with and without cycle-based
// query expansion, for every benchmark query. Everything runs through the
// public querygraph API.
//
// Run: go run ./examples/imagesearch [-load world.qgs]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	querygraph "github.com/querygraph/querygraph"
)

func main() {
	log.SetFlags(0)
	loadPath := flag.String("load", "", "load a binary world snapshot (qgen -out FILE.qgs) instead of generating")
	flag.Parse()
	ctx := context.Background()

	var (
		client *querygraph.Client
		err    error
	)
	if *loadPath != "" {
		client, err = querygraph.Open(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		world, gerr := querygraph.GenerateWorld(querygraph.DefaultWorldConfig())
		if gerr != nil {
			log.Fatal(gerr)
		}
		if client, err = querygraph.Build(world); err != nil {
			log.Fatal(err)
		}
	}
	defer client.Close()

	fmt.Printf("%-4s  %-34s  %8s  %8s  %8s\n", "q", "keywords", "baseline", "expanded", "gain")
	var baseSum, expSum float64
	n := 0
	for _, q := range client.Queries() {
		// Unexpanded: exact phrases for the linked entities only.
		entities := client.Link(q.Keywords)
		articles := make([]querygraph.NodeID, len(entities))
		for i, e := range entities {
			articles[i] = e.ID
		}
		baseline, _, err := client.Evaluate(ctx, q.Keywords, articles, q.Relevant)
		if err != nil {
			log.Fatal(err)
		}

		// Expanded: add the features mined from dense, category-balanced
		// cycles around the entities (an ExpandRequest against the Backend
		// contract the client satisfies).
		resp, err := querygraph.ExpandRequest{Keywords: q.Keywords}.Do(ctx, client)
		if err != nil {
			log.Fatal(err)
		}
		expansion := resp.Expansion
		expandedArts := append([]querygraph.NodeID{}, articles...)
		for _, f := range expansion.Features {
			expandedArts = append(expandedArts, f.Node)
		}
		expanded, _, err := client.Evaluate(ctx, q.Keywords, expandedArts, q.Relevant)
		if err != nil {
			log.Fatal(err)
		}

		kw := q.Keywords
		if len(kw) > 34 {
			kw = kw[:31] + "..."
		}
		fmt.Printf("%-4d  %-34s  %8.3f  %8.3f  %+7.1f%%\n",
			q.ID, kw, baseline, expanded, querygraph.Contribution(baseline, expanded))
		baseSum += baseline
		expSum += expanded
		n++
	}
	fmt.Printf("\nmean objective O over %d queries: baseline %.3f, expanded %.3f (%+.1f%%)\n",
		n, baseSum/float64(n), expSum/float64(n),
		querygraph.Contribution(baseSum/float64(n), expSum/float64(n)))
}
