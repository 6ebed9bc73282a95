package querygraph_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"

	querygraph "github.com/querygraph/querygraph"
)

// exampleClient builds a small deterministic world; real deployments call
// querygraph.Open("world.qgs") instead and skip the build entirely.
func exampleClient() *querygraph.Client {
	cfg := querygraph.DefaultWorldConfig()
	cfg.Topics = 10
	cfg.DocsPerTopic = 30
	cfg.Queries = 10
	world, err := querygraph.GenerateWorld(cfg)
	if err != nil {
		panic(err)
	}
	client, err := querygraph.Build(world)
	if err != nil {
		panic(err)
	}
	return client
}

// Build a client from a generated world, expand one benchmark query with
// the paper-tuned cycle miner and run the expanded retrieval.
func Example() {
	client := exampleClient()
	ctx := context.Background()

	query := client.Queries()[0]
	expansion, err := client.Expand(ctx, query.Keywords)
	if err != nil {
		panic(err)
	}
	fmt.Printf("entities linked: %d\n", len(expansion.QueryArticles))
	fmt.Printf("cycles: %d considered, %d accepted\n",
		expansion.CyclesConsidered, expansion.CyclesAccepted)
	fmt.Printf("features proposed: %d\n", len(expansion.Features))

	results, ok, err := client.SearchExpansion(ctx, expansion, 5)
	if err != nil || !ok {
		panic(fmt.Sprint(ok, err))
	}
	fmt.Printf("top results: %d\n", len(results))
	// Output:
	// entities linked: 3
	// cycles: 2383 considered, 117 accepted
	// features proposed: 10
	// top results: 5
}

// Save a serving snapshot and reopen it: the reopened client serves
// bit-identical rankings, which is the build-once / serve-instantly
// deployment path.
func ExampleOpenReader() {
	client := exampleClient()
	ctx := context.Background()

	var snapshot bytes.Buffer
	if err := client.Save(&snapshot); err != nil {
		panic(err)
	}
	reopened, err := querygraph.OpenReader(&snapshot)
	if err != nil {
		panic(err)
	}

	query := client.Queries()[0].Keywords
	a, _ := client.Search(ctx, query, 3)
	b, _ := reopened.Search(ctx, query, 3)
	fmt.Printf("identical rankings: %v\n", fmt.Sprint(a) == fmt.Sprint(b))
	// Output: identical rankings: true
}

// Expansion options are functional and validated: invalid values fail
// loudly with ErrInvalidOptions instead of silently falling back.
func ExampleClient_Expand_options() {
	client := exampleClient()
	ctx := context.Background()
	keywords := client.Queries()[0].Keywords

	_, err := client.Expand(ctx, keywords,
		querygraph.WithCategoryRatioBand(0.9, 0.1))
	fmt.Println("invalid band rejected:", errors.Is(err, querygraph.ErrInvalidOptions))

	// Ranked by frequency, every cycle is measured, so every cycle the
	// filters pass counts as accepted.
	wide, err := client.Expand(ctx, keywords,
		querygraph.WithCategoryRatioBand(0, 1),
		querygraph.WithMinDensity(0),
		querygraph.WithFrequencyRank(true),
		querygraph.WithMaxFeatures(3))
	if err != nil {
		panic(err)
	}
	fmt.Printf("filters off keeps every cycle: %v\n",
		wide.CyclesAccepted == wide.CyclesConsidered)
	fmt.Printf("feature budget respected: %v\n", len(wide.Features) <= 3)
	// Output:
	// invalid band rejected: true
	// filters off keeps every cycle: true
	// feature budget respected: true
}

// A context that is already done never reaches the pipeline.
func ExampleClient_Search_cancellation() {
	client := exampleClient()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	_, err := client.Search(ctx, "venice", 5)
	fmt.Println(errors.Is(err, context.Canceled))
	// Output: true
}

// Any runtime behind the Backend contract serves an ExpandRequest: the
// expansion with its options, and with K > 0 the expanded retrieval.
func ExampleExpandRequest() {
	var backend querygraph.Backend = exampleClient() // or OpenBackend(path)
	defer backend.Close()
	ctx := context.Background()

	resp, err := querygraph.ExpandRequest{
		Keywords: backend.Queries()[0].Keywords,
		Options:  []querygraph.ExpandOption{querygraph.WithMaxFeatures(5)},
		K:        5,
	}.Do(ctx, backend)
	if err != nil {
		panic(err)
	}
	fmt.Printf("features: %d\n", len(resp.Expansion.Features))
	fmt.Printf("expanded retrieval attached: %v\n", resp.Searched && len(resp.Results) == 5)

	// After Close, every query path reports ErrClosed.
	backend.Close()
	_, err = backend.Search(ctx, "anything", 3)
	fmt.Println("closed backend classified:", errors.Is(err, querygraph.ErrClosed))
	// Output:
	// features: 5
	// expanded retrieval attached: true
	// closed backend classified: true
}

// Search accepts the INDRI-style operators the paper's queries use.
func ExampleClient_Search() {
	client := exampleClient()
	ctx := context.Background()

	// A bad query is reported as ErrInvalidQuery with the parser detail.
	_, err := client.Search(ctx, "#combine(unclosed", 5)
	fmt.Println("parse failure classified:", errors.Is(err, querygraph.ErrInvalidQuery))

	// An entity title as an exact phrase.
	title := client.Link(client.Queries()[0].Keywords)[0].Title
	results, err := client.Search(ctx, "#1("+strings.ToLower(title)+")", 5)
	if err != nil {
		panic(err)
	}
	fmt.Printf("phrase query matched: %v\n", len(results) > 0)
	// Output:
	// parse failure classified: true
	// phrase query matched: true
}
