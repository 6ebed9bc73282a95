package hist

import (
	"sync"
	"testing"
	"time"
)

func TestBucketMonotone(t *testing.T) {
	prev := -1
	for ns := uint64(1); ns < 1<<40; ns = ns*3/2 + 1 {
		idx := BucketOf(ns)
		if idx < prev {
			t.Fatalf("BucketOf not monotone at %dns: %d after %d", ns, idx, prev)
		}
		upper := BucketUpper(idx)
		if upper < ns {
			t.Fatalf("BucketUpper(%d) = %d < value %d", idx, upper, ns)
		}
		// The relative error bound: an edge sits at most one sub-bucket
		// (1/sub of the value, or one unit in the linear range) above it.
		if upper > ns+ns/sub+1<<unit {
			t.Fatalf("BucketUpper(%d) = %d is more than 1/%d above value %d", idx, upper, sub, ns)
		}
		prev = idx
	}
}

// TestAtomicMatchesHist pins that concurrent recording loses nothing: a
// population recorded into an Atomic from many goroutines snapshots to
// exactly the counts, n and sum of a single-threaded tally.
func TestAtomicMatchesHist(t *testing.T) {
	var want Hist
	durations := make([]time.Duration, 5000)
	for i := range durations {
		d := time.Duration((i%1231)*777 + 100)
		durations[i] = d
		want.Counts[BucketOf(uint64(d))]++
		want.N++
		want.Sum += uint64(d)
	}

	var a Atomic
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(durations); i += workers {
				a.Record(durations[i])
			}
		}(w)
	}
	wg.Wait()

	if got := a.Snapshot(); got != want {
		t.Fatalf("Atomic snapshot differs from plain recording: n=%d/%d sum=%d/%d",
			got.N, want.N, got.Sum, want.Sum)
	}
}

// TestExpositionIndices pins the Prometheus boundary scheme: indices are
// strictly increasing, each target is enclosed by its bucket (upper ≥
// target), and the le boundaries are exact bucket uppers so cumulative
// counts stay exact.
func TestExpositionIndices(t *testing.T) {
	if len(DefaultExposition) == 0 {
		t.Fatal("DefaultExposition is empty")
	}
	prev := -1
	for _, idx := range DefaultExposition {
		if idx <= prev {
			t.Fatalf("exposition indices not strictly increasing: %d after %d", idx, prev)
		}
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("exposition index %d out of range", idx)
		}
		prev = idx
	}
	// Snapping invariant: the exposed boundary is an exact bucket edge —
	// everything below it is in buckets ≤ idx, everything at or above it
	// in buckets > idx, so a cumulative bucket sum is an exact count.
	for _, idx := range DefaultExposition {
		upper := BucketUpper(idx)
		if got := BucketOf(upper - 1); got > idx {
			t.Errorf("BucketOf(upper(%d)-1) = %d > %d", idx, got, idx)
		}
		if got := BucketOf(upper); got <= idx {
			t.Errorf("BucketOf(upper(%d)) = %d ≤ %d", idx, got, idx)
		}
	}
	// Duplicate collapse.
	if got := ExpositionIndices([]time.Duration{time.Microsecond, time.Microsecond, time.Second}); len(got) != 2 {
		t.Errorf("duplicate targets not collapsed: %v", got)
	}
}
