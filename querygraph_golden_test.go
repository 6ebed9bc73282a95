package querygraph

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateQueryGraph = flag.Bool("update", false, "rewrite testdata/querygraph_golden.txt from the code under test")

// TestQueryGraphGolden pins what the analysis reports about G(q) for
// benchmark queries 0, 3 and 7 of the default world: Table 3's
// largest-component stats and component count, the lengths and titles of
// the mined cycles, and the DOT rendering. qgraph prints all three, so a
// change that means to keep its output must keep this file; pass -update
// only when a change means to move them.
func TestQueryGraphGolden(t *testing.T) {
	const file = "testdata/querygraph_golden.txt"
	w, err := GenerateWorld(DefaultWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(w)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	var got bytes.Buffer
	for _, id := range []int{0, 3, 7} {
		q := c.Queries()[id]
		gt, err := c.GroundTruth(ctx, q, GroundTruthOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "query %d %q: %d nodes, %d components\nlargest %+v\n",
			q.ID, q.Keywords, gt.Graph.Size(), gt.Graph.NumComponents(), gt.Graph.LargestComponentStats())
		cs, err := c.MineCycles(ctx, gt)
		if err != nil {
			t.Fatal(err)
		}
		for _, cy := range cs {
			fmt.Fprintf(&got, "cycle %d %q\n", cy.Length, cy.Titles)
		}
		if err := c.WriteQueryGraphDOT(&got, gt, fmt.Sprintf("query_%d", q.ID)); err != nil {
			t.Fatal(err)
		}
	}
	if *updateQueryGraph {
		if err := os.WriteFile(file, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("G(q) analysis differs from %s (rerun with -update if the change is meant):\n%s", file, got.Bytes())
	}
}
