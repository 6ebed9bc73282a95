// Package hist implements the HDR-style log-linear latency histogram
// behind /v1/metrics: values are bucketed by octave with sub linear
// sub-buckets per octave, giving a bounded relative error (≤ 1/sub ≈ 3%)
// across the whole range instead of a fixed absolute resolution.
//
// Atomic is the form concurrent request paths record into
// (MetricsObserver keeps one per latency family); its Snapshot is a plain
// Hist, which the Prometheus exposition renders at the exact bucket edges
// ExpositionIndices picks.
//
// The unit is ~1µs (1024ns, a shift instead of a divide); the bucket
// table spans past multi-hour latencies, far beyond any plausible
// request.
package hist

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBits is log2 of the linear sub-buckets per octave.
	subBits = 5
	// sub is the number of linear sub-buckets per octave; the relative
	// error bound of any bucket edge is ≤ 1/sub.
	sub = 1 << subBits
	// numBuckets covers 1024ns << 49 ≈ 6.6 days.
	numBuckets = 50 * sub
	// unit is the ns → ~µs shift applied before bucketing.
	unit = 10
)

// Hist is a snapshot of an Atomic: per-bucket counts, the observation
// count and the exact sum. The struct is comparable, so tests can assert
// a snapshot with ==.
type Hist struct {
	Counts [numBuckets]uint64
	N      uint64
	Sum    uint64 // total ns; 2^64 ns ≈ 584 years, no overflow concern
}

// BucketOf maps a latency in ns to its bucket index. Monotone: the
// linear range [0, sub) flows directly into the first log octave.
func BucketOf(ns uint64) int {
	u := ns >> unit
	if u < sub {
		return int(u)
	}
	exp := bits.Len64(u) - subBits - 1
	idx := exp*sub + int(u>>exp)
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// BucketUpper is the inclusive upper bound of a bucket, in ns — the
// exact `le` boundary the Prometheus exposition uses.
func BucketUpper(idx int) uint64 {
	if idx < sub {
		return uint64(idx+1) << unit
	}
	exp := idx/sub - 1
	within := idx - exp*sub
	return uint64(within+1) << (exp + unit)
}

// Atomic is the concurrent form: many goroutines Record, any goroutine
// Snapshots. Counters are independent atomics, so a snapshot taken
// during recording may be off by in-flight observations (N vs Counts
// can disagree transiently) — fine for monitoring, where the next
// scrape catches up. The zero value is ready to use.
type Atomic struct {
	counts [numBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Uint64
}

// Record adds one observation. Lock-free: three unconditional adds.
func (a *Atomic) Record(d time.Duration) {
	ns := uint64(d)
	a.counts[BucketOf(ns)].Add(1)
	a.n.Add(1)
	a.sum.Add(ns)
}

// Snapshot copies the atomic counters into a plain Hist for exposition.
func (a *Atomic) Snapshot() Hist {
	var h Hist
	for i := range a.counts {
		h.Counts[i] = a.counts[i].Load()
	}
	h.N = a.n.Load()
	h.Sum = a.sum.Load()
	return h
}

// ExpositionIndices maps round-number latency targets to the bucket
// indices whose uppers enclose them — the Prometheus `le` boundaries.
// Snapping `le` to an exact BucketUpper makes each cumulative bucket an
// exact sum of whole histogram buckets (no mid-bucket interpolation):
// everything below the boundary is in buckets ≤ idx, everything at or
// above it in later buckets. Duplicate indices (targets inside one
// bucket) collapse.
func ExpositionIndices(targets []time.Duration) []int {
	idxs := make([]int, 0, len(targets))
	last := -1
	for _, t := range targets {
		i := BucketOf(uint64(t))
		if i != last {
			idxs = append(idxs, i)
			last = i
		}
	}
	return idxs
}

// DefaultExposition is the standard boundary set for serving-latency
// families: ~25µs to ~10s, log-spaced, 18 buckets plus the implicit
// +Inf — wide enough for both in-process search (tens of µs) and
// cross-fleet RPC (ms to s).
var DefaultExposition = ExpositionIndices([]time.Duration{
	25 * time.Microsecond,
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
})
