// Allocation counts are meaningless under the race detector.
//go:build !race

package core

import (
	"context"
	"testing"
)

// TestExpandUntracedAllocatesNothingForSpans pins the cost of the phase
// spans on a request nobody traces: keywords that link to nothing end the
// pipeline after its first phase, so what expand allocates beyond the
// linker's own work is the Expansion it returns and nothing else — not the
// span closure, not a timestamp.
func TestExpandUntracedAllocatesNothingForSpans(t *testing.T) {
	s, _ := testSystem(t)
	const kw = "no such entity anywhere"
	ctx, opts := context.Background(), DefaultExpanderOptions()
	link := testing.AllocsPerRun(100, func() { s.LinkKeywords(kw) })
	expand := testing.AllocsPerRun(100, func() {
		if _, err := s.expand(ctx, kw, opts); err != nil {
			t.Fatal(err)
		}
	})
	if expand != link+1 {
		t.Errorf("untraced expand allocates %v per op, want the linker's %v plus the Expansion", expand, link)
	}
}

// TestExpandColdAllocations pins what a cold expansion allocates beyond
// the linker's own work: the Expansion and its features, the ranking's map
// (three allocations as it grows) and slice, the visitor, Poll and Keep
// closures the miner is handed, one Keep more per further walk — 11
// allocations for 9 of the test world's 10 queries — but no ball, no seed
// list, no induced subgraph and nothing per mined cycle, since the miner
// walks the ball straight from the graph into pooled storage, seeds on
// the first view ids, and measures each cycle along its path.
func TestExpandColdAllocations(t *testing.T) {
	const bound = 20
	s, w := testSystem(t)
	ctx, opts := context.Background(), DefaultExpanderOptions()
	for _, q := range w.Queries {
		link := testing.AllocsPerRun(50, func() { s.LinkKeywords(q.Keywords) })
		expand := testing.AllocsPerRun(50, func() {
			if _, err := s.expand(ctx, q.Keywords, opts); err != nil {
				t.Fatal(err)
			}
		})
		if expand-link > bound {
			t.Errorf("cold expand of %q allocates %v per op, the linker %v of them: more than %d beyond the linker's", q.Keywords, expand, link, bound)
		}
	}
}
