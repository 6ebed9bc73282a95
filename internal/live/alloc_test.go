// Allocation regression tests are meaningless under the race detector —
// its instrumentation allocates on paths that are clean in normal builds.
//go:build !race

package live

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/querygraph/querygraph/internal/corpus"
)

// TestAppendBytes pins what a 64-document Append onto the empty segment
// allocates: ~140 KB of documents, analysis and index. The segment's
// engine never parses a query, so it must not carry a plan cache — one
// sized for serving costs ~210 KB more by itself.
func TestAppendBytes(t *testing.T) {
	imgs := make([]corpus.Image, 64)
	for i := range imgs {
		imgs[i] = img(fmt.Sprintf("d%d", i), fmt.Sprintf("title_%d", i),
			fmt.Sprintf("entity%d with other%d and thing%d near place%d", i, i%7, i%5, i%3))
	}
	const runs, limit = 20, 200 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Append(nil, testCfg, 100, imgs); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > limit {
		t.Fatalf("a 64-document Append allocates %d bytes, want at most %d", perOp, limit)
	}
}
