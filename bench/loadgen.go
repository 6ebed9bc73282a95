package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// The load generator is this one process. Every measured window has one
// caller on one connection; live-pool adds its one writer. That fits the
// two-core machine the benchmark targets.

// loadResult is what one open-loop window produced.
type loadResult struct {
	// Latencies[i] is operation i's completion minus its due time, so the
	// wait a stall imposes on later operations is counted.
	Latencies []time.Duration
	// Lag[i] is how late operation i was sent: its start minus its due time.
	Lag       []time.Duration
	Attempted int
}

// failuresShown limits how many failed operations are printed.
var failuresShown atomic.Int32

// reportFailure prints the first few failed operations of the process, so
// a non-zero error_rate comes with its cause.
func reportFailure(err error) {
	if failuresShown.Add(1) <= 3 {
		fmt.Fprintln(os.Stderr, "bench: operation failed:", err)
	}
}

// openLoop sends operations on a fixed schedule of rate per second for
// dur, regardless of how fast they complete: operation i is due at
// start + i/rate. One goroutine sends them, so a slow operation makes the
// next ones late; that lateness is reported as Lag and counted into
// Latencies. Failures are op's to count.
func openLoop(rate float64, dur time.Duration, op func(seq int) error) loadResult {
	var out loadResult
	start := time.Now()
	total := int(rate * dur.Seconds())
	for seq := 0; seq < total; seq++ {
		due := start.Add(time.Duration(float64(seq) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		err := op(seq)
		out.Latencies = append(out.Latencies, time.Since(due))
		out.Lag = append(out.Lag, sent.Sub(due))
		out.Attempted++
		if err != nil {
			reportFailure(err)
		}
	}
	return out
}

// lapResult is what a lapped window produced. A lap is one pass over a
// fixed cycle of operations; every lap repeats the same requests, so the
// same operation in different laps can be compared.
type lapResult struct {
	// Laps[l][i] is the latency of operation i in lap l. Only the last lap
	// may be shorter than the cycle: the window ended inside it.
	Laps [][]time.Duration
	// Keys[l] names the state the system was in when lap l began; laps with
	// equal keys did equal work.
	Keys      []int
	Attempted int
	Failed    int
	Elapsed   time.Duration
}

// lapLoop has one caller replay operations 0..n-1 in order, lap after
// lap, for dur. key, when not nil, is asked for each lap's key as the lap
// begins; without it every lap has key 0.
func lapLoop(n int, dur time.Duration, key func() int, op func(i int) error) lapResult {
	var out lapResult
	start := time.Now()
	stop := start.Add(dur)
	for {
		k := 0
		if key != nil {
			k = key()
		}
		lap := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if !t0.Before(stop) {
				if len(lap) > 0 {
					out.Laps, out.Keys = append(out.Laps, lap), append(out.Keys, k)
				}
				out.Elapsed = t0.Sub(start)
				return out
			}
			err := op(i)
			lap = append(lap, time.Since(t0))
			out.Attempted++
			if err != nil {
				out.Failed++
				reportFailure(err)
			}
		}
		out.Laps, out.Keys = append(out.Laps, lap), append(out.Keys, k)
	}
}

// complete is the number of laps that ran the whole cycle of n operations.
func (r lapResult) complete(n int) int {
	c := len(r.Laps)
	if c > 0 && len(r.Laps[c-1]) < n {
		c--
	}
	return c
}

// floors returns, sorted ascending, each operation's floor over laps: its
// fastest time, which stands for its undisturbed cost. On a shared host
// other tenants only ever slow an operation down, and they do so in
// bursts that last seconds: measured on the two-core sandbox, identical
// 10 s windows differed by ±20% in median latency and in throughput,
// while the per-operation minimum over the laps stayed within a few
// percent. The minimum is a fair estimate only over laps that did the
// same work, so it is never taken across different keys.
func floors(n int, laps [][]time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = math.MaxInt64
	}
	for _, lap := range laps {
		for i, d := range lap {
			out[i] = min(out[i], d)
		}
	}
	return sortDurations(out)
}

// lapStats is what a lapped window says about one pass over the cycle.
type lapStats struct {
	// P50 and P90 are percentiles over the cycle's operations. P90 is 0
	// when the cycle is too short to leave minBeyond operations beyond it.
	P50, P90 time.Duration
	Lap      time.Duration // one pass, every operation at its floor
}

// stats groups the laps by key, takes each operation's floor within each
// group, and averages the groups' percentiles and lap times weighted by
// the number of laps in each: what a lap cost, undisturbed, in each state
// the system went through, in the proportion it was in them. With one key
// this is the percentiles over, and the sum of, the operations' floors.
func (r lapResult) stats(n int) (lapStats, error) {
	if r.complete(n) == 0 {
		return lapStats{}, fmt.Errorf("the window did not hold one complete lap of %d operations", n)
	}
	groups := make(map[int][][]time.Duration)
	for l, lap := range r.Laps {
		groups[r.Keys[l]] = append(groups[r.Keys[l]], lap)
	}
	var p50, p90, lapTime, weight float64
	for _, laps := range groups {
		covered := false
		for _, lap := range laps {
			covered = covered || len(lap) == n
		}
		if !covered {
			continue // only the window's cut-off lap had this key
		}
		fl := floors(n, laps)
		a, err := percentile(fl, 0.5)
		if err != nil {
			return lapStats{}, err
		}
		b, _ := percentile(fl, 0.9)
		var sum time.Duration
		for _, f := range fl {
			sum += f
		}
		w := float64(len(laps))
		p50, p90, lapTime, weight = p50+w*float64(a), p90+w*float64(b), lapTime+w*float64(sum), weight+w
	}
	return lapStats{P50: time.Duration(p50 / weight), P90: time.Duration(p90 / weight), Lap: time.Duration(lapTime / weight)}, nil
}

// raw returns every sample, sorted ascending.
func (r lapResult) raw() []time.Duration {
	var out []time.Duration
	for _, lap := range r.Laps {
		out = append(out, lap...)
	}
	return sortDurations(out)
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples
// sorted ascending. It refuses a percentile with fewer than minBeyond
// samples beyond it: such a value is set by a handful of outliers and
// does not repeat.
func percentile(sorted []time.Duration, p float64) (time.Duration, error) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

func sortDurations(ds []time.Duration) []time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median is the plain median of a small sample (set-up times, compaction
// times), for which the percentile rule's sample floor does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
