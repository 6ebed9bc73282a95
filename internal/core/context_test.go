package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/querygraph/querygraph/internal/lru"
)

// TestParallelismUsesGOMAXPROCS pins the documented BatchOptions.Workers
// contract: "<= 0 means GOMAXPROCS" — GOMAXPROCS, not NumCPU.
func TestParallelismUsesGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	// Pick a value that differs from NumCPU so the test can tell the two
	// apart on any machine.
	pinned := runtime.NumCPU() + 3
	runtime.GOMAXPROCS(pinned)
	if got := parallelism(0); got != pinned {
		t.Errorf("parallelism(0) = %d, want GOMAXPROCS = %d", got, pinned)
	}
	if got := parallelism(-7); got != pinned {
		t.Errorf("parallelism(-7) = %d, want GOMAXPROCS = %d", got, pinned)
	}
	if got := parallelism(5); got != 5 {
		t.Errorf("parallelism(5) = %d, want the explicit request", got)
	}
}

// TestForEachQueryCancelStopsScheduling proves that cancelling the batch
// context stops the producer: with every in-flight task blocked until
// cancellation, no more than one task per worker ever starts, the
// remaining indices are never scheduled, and the batch reports ctx.Err().
func TestForEachQueryCancelStopsScheduling(t *testing.T) {
	const (
		n       = 100
		workers = 4
	)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	allBusy := make(chan struct{})

	err := func() error {
		defer cancel()
		done := make(chan error, 1)
		go func() {
			done <- forEachQuery(ctx, n, workers, func(int) error {
				if started.Add(1) == workers {
					close(allBusy)
				}
				<-ctx.Done()
				return nil
			})
		}()
		select {
		case <-allBusy:
		case <-time.After(5 * time.Second):
			t.Fatal("workers never became busy")
		}
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("forEachQuery did not return after cancellation")
			return nil
		}
	}()

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The in-flight leak is bounded by the worker count: the producer may
	// have handed out at most one extra index before observing Done.
	if got := started.Load(); got > workers+1 {
		t.Errorf("%d tasks ran after cancellation, want at most %d in flight", got, workers+1)
	}
}

// TestForEachQueryWorkerErrorBeatsCancel keeps the fail-fast contract: a
// worker error recorded before cancellation is what the batch returns.
func TestForEachQueryWorkerErrorBeatsCancel(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := forEachQuery(ctx, 50, 2, func(i int) error {
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the worker error", err)
	}
}

// TestExpandPreCancelledContext: a Client-style call with an already-dead
// context returns ctx.Err() without running the pipeline or touching the
// cache.
func TestExpandPreCancelledContext(t *testing.T) {
	s, w := testSystem(t)
	before := s.expandCalls.Load()
	stBefore := s.ExpandCacheStats()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Expand(ctx, w.Queries[0].Keywords, DefaultExpanderOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Expand err = %v, want context.Canceled", err)
	}
	if _, err := s.ExpandNaive(ctx, w.Queries[0].Keywords, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExpandNaive err = %v, want context.Canceled", err)
	}
	if _, err := s.ExpandAll(ctx, []string{w.Queries[0].Keywords}, DefaultExpanderOptions(), BatchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExpandAll err = %v, want context.Canceled", err)
	}
	if _, err := s.BuildGroundTruth(ctx, QueriesFromWorld(w)[0], gtConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildGroundTruth err = %v, want context.Canceled", err)
	}

	if got := s.expandCalls.Load(); got != before {
		t.Errorf("pipeline ran %d times under a pre-cancelled context", got-before)
	}
	stAfter := s.ExpandCacheStats()
	if stAfter.Misses != stBefore.Misses || stAfter.Hits != stBefore.Hits {
		t.Errorf("cache was consulted under a pre-cancelled context: %+v -> %+v", stBefore, stAfter)
	}
}

// TestSingleFlightWaiterAbandonsOnCancel: a follower whose context dies
// mid-wait returns ctx.Err() immediately, while the leader completes and
// its result still lands in the cache for later lookups.
func TestSingleFlightWaiterAbandonsOnCancel(t *testing.T) {
	c := newExpandCache(64)
	k := expandKey{keywords: "slow query"}
	want := &Expansion{Keywords: "slow query"}
	release := make(chan struct{})

	leaderErr := make(chan error, 1)
	go func() {
		exp, _, err := c.getOrDo(context.Background(), k, func() (*Expansion, error) {
			<-release
			return want, nil
		})
		if err == nil && exp != want {
			err = errors.New("leader got a foreign result")
		}
		leaderErr <- err
	}()

	// Wait until the leader holds the flight entry, then join as follower.
	deadline := time.Now().Add(5 * time.Second)
	for {
		i := lru.Index(k.keywords)
		c.lru[i].Lock()
		_, inFlight := c.flight[i][k]
		c.lru[i].Unlock()
		if inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never registered the flight")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	followerErr := make(chan error, 1)
	go func() {
		_, _, err := c.getOrDo(ctx, k, func() (*Expansion, error) {
			return nil, errors.New("follower must never run the pipeline")
		})
		followerErr <- err
	}()
	// Let the follower actually join the flight before cancelling.
	for c.deduped.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-followerErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower still waiting on the leader")
	}

	// The leader is unaffected and publishes its result.
	close(release)
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if got, ok := c.get(k); !ok || got != want {
		t.Fatalf("leader result not cached after follower abandoned (ok=%v)", ok)
	}
}

// TestExpandAllCancelledMidBatch cancels a live batch and checks both the
// returned error and that the batch stopped early (bounded work).
func TestExpandAllCancelledMidBatch(t *testing.T) {
	_, w := testSystem(t)
	// A fresh system so this test owns the pipeline counter.
	fresh, err := FromWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	const repeat = 400
	keywords := make([]string, 0, repeat*len(w.Queries))
	for i := 0; i < repeat; i++ {
		for _, q := range w.Queries {
			// Unique keys so every task is a cold pipeline run.
			keywords = append(keywords, q.Keywords+" variant "+string(rune('a'+i%26))+string(rune('a'+(i/26)%26)))
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel as soon as some work has happened.
		deadline := time.Now().Add(5 * time.Second)
		for fresh.expandCalls.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	_, err = fresh.ExpandAll(ctx, keywords, DefaultExpanderOptions(), BatchOptions{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran := fresh.expandCalls.Load(); ran == 0 || ran >= uint64(len(keywords)) {
		t.Errorf("pipeline ran %d/%d times; cancellation should stop the batch early but after some work", ran, len(keywords))
	}
}
