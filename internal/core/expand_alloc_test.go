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
