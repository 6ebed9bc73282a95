package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/querygraph/querygraph/internal/synth"
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
			done <- ForEach(ctx, n, workers, func(int) error {
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
			t.Fatal("ForEach did not return after cancellation")
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
	err := ForEach(ctx, 50, 2, func(i int) error {
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the worker error", err)
	}
}

// TestForEachReportsLowestFailingIndex: when several indices fail, the
// error returned is the lowest one's even if a higher one failed first.
func TestForEachReportsLowestFailingIndex(t *testing.T) {
	slow, fast := errors.New("index 2"), errors.New("index 4")
	err := ForEach(context.Background(), 10, 4, func(i int) error {
		switch i {
		case 2:
			time.Sleep(20 * time.Millisecond)
			return slow
		case 4:
			return fast
		}
		return nil
	})
	if err != slow {
		t.Fatalf("err = %v, want the lowest failing index's", err)
	}
}

// TestForEachQueryStopsSchedulingAfterError is the regression test for the
// batch fail-fast fix: with one worker, an error on the first index must
// stop the producer after at most one already-scheduled index.
func TestForEachQueryStopsSchedulingAfterError(t *testing.T) {
	var calls atomic.Int64
	err := ForEach(context.Background(), 100, 1, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return errTest
		}
		return nil
	})
	if err != errTest {
		t.Fatalf("err = %v, want errTest", err)
	}
	// The worker records the error before receiving the next index, and
	// the producer re-checks the failure flag before every send, so at
	// most one extra index (already past the check) can run.
	if n := calls.Load(); n > 2 {
		t.Errorf("fn ran %d times after an immediate error, want <= 2", n)
	}
}

// TestForEachRecoversPanic: a panicking item fails the batch with its
// index and stack as an ordinary error — the process survives — and
// scheduling stops as for any other error: ForEach returns only once
// every worker has, and one worker runs at most one index past the panic.
func TestForEachRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		err := ForEach(context.Background(), 100, workers, func(i int) error {
			calls.Add(1)
			if i == 3 {
				panic("boom")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: a panicking item did not fail the batch", workers)
		}
		for _, want := range []string{"item 3 panicked: boom", "TestForEachRecoversPanic"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("workers=%d: err = %q, want it to contain %q", workers, err, want)
			}
		}
		if n := calls.Load(); workers == 1 && n > 5 {
			t.Errorf("fn ran %d times, want at most one index past the panic at 3", n)
		}
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
	if _, err := expandAll(ctx, s, []string{w.Queries[0].Keywords}, DefaultExpanderOptions(), 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("expandAll err = %v, want context.Canceled", err)
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

// countdownCtx is a context whose Err turns context.Canceled at one exact
// call and stays so: cancellation placed at a chosen poll of a run, with no
// clock involved.
type countdownCtx struct {
	context.Context
	left int // calls of Err still answered nil
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestExpandStopsAtThePollThatCancels: an expansion asks its ctx at the
// gate, after each phase, once per 256 cycles the miner records and, in
// the rank, before each length and once per 256 cycles it reads, and
// whichever poll first hears of cancellation is the last thing the run
// does. Cancelling at every poll of a long enumeration in turn — most of
// them inside the miner, and under frequency rank many in the rank — each
// call returns context.Canceled having polled no further, nothing is
// cached, every run is counted once, and the cache then serves the answer
// a fresh system gives.
func TestExpandStopsAtThePollThatCancels(t *testing.T) {
	_, w := testSystem(t)
	for _, byFrequency := range []bool{false, true} {
		kw, opts := w.Queries[0].Keywords, DefaultExpanderOptions()
		opts.MaxCycleLen, opts.MaxNeighborhood = 8, 20 // thousands of cycles among 20 nodes
		opts.RankByFrequency = byFrequency
		t.Run(fmt.Sprintf("byFrequency=%v", byFrequency), func(t *testing.T) { checkStopsAtThePollThatCancels(t, w, kw, opts) })
	}
}

// checkStopsAtThePollThatCancels cancels an expansion of kw under opts at
// each of its polls in turn.
func checkStopsAtThePollThatCancels(t *testing.T, w *synth.World, kw string, opts ExpanderOptions) {

	// An uncancelled run on a system of its own: the answer, and how many
	// polls a whole run makes.
	ref, err := FromWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	whole := &countdownCtx{Context: context.Background(), left: math.MaxInt}
	want, err := ref.Expand(whole, kw, opts)
	if err != nil {
		t.Fatal(err)
	}
	polls, inMiner := math.MaxInt-whole.left, want.CyclesConsidered/256
	if inMiner < 4 || polls <= inMiner {
		t.Fatalf("%d cycles and %d polls: the miner must poll, and often enough to be cancelled mid-enumeration", want.CyclesConsidered, polls)
	}

	s, err := FromWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	// Every poll aborts, the one that ends the rank phase included: a
	// deadline that passes during the ranking is not answered late.
	for n := 1; n <= polls; n++ {
		ctx := &countdownCtx{Context: context.Background(), left: n - 1}
		if exp, err := s.Expand(ctx, kw, opts); exp != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d of %d: Expand = %v, %v; want context.Canceled", n, polls, exp, err)
		}
		if ctx.left != -1 {
			t.Fatalf("cancelled at poll %d of %d: the run polled %d more times", n, polls, -1-ctx.left)
		}
	}
	// The gate's poll comes before the cache; every other aborted run is
	// one miss and one pipeline run.
	aborted := uint64(polls)
	if st, runs := s.ExpandCacheStats(), s.expandCalls.Load(); st.Entries != 0 || st.Hits != 0 || st.Misses != aborted-1 || runs != aborted-1 {
		t.Errorf("after %d aborted calls: %+v and %d pipeline runs, want no entry, no hit, %d misses and runs", aborted, st, runs, aborted-1)
	}
	got, err := s.Expand(context.Background(), kw, opts)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after the aborted calls Expand = %+v, %v; want a fresh system's %+v", got, err, want)
	}
	if st := s.ExpandCacheStats(); st.Entries != 1 || st.Misses != aborted {
		t.Errorf("the completed call left %+v, want 1 entry and %d misses", st, aborted)
	}
}

// lateTimerCtx is a context with a deadline that the clock passes at its
// left-th call of Deadline, while Err keeps answering nil, as a real
// context's does until the runtime fires its timer.
type lateTimerCtx struct {
	context.Context
	left int // calls of Deadline still answered with a deadline ahead
}

func (c *lateTimerCtx) Deadline() (time.Time, bool) {
	if c.left--; c.left < 0 {
		return time.Time{}, true
	}
	return time.Now().Add(time.Hour), true
}

// TestExpandStopsAtTheDeadlineBeforeItsTimer: every poll of an expansion
// compares the deadline with the clock, so a run stops at the first poll
// after its deadline even when ctx.Err has not said so yet, and answers
// context.DeadlineExceeded. The deadline passes at each poll in turn, from
// the first phase boundary's to the rank's last; the gate asks Err alone.
func TestExpandStopsAtTheDeadlineBeforeItsTimer(t *testing.T) {
	_, w := testSystem(t)
	kw, opts := w.Queries[0].Keywords, DefaultExpanderOptions()
	opts.MaxCycleLen, opts.MaxNeighborhood = 8, 20
	s, err := FromWorld(w, WithExpandCache(0))
	if err != nil {
		t.Fatal(err)
	}
	whole := &lateTimerCtx{Context: context.Background(), left: math.MaxInt}
	want, err := s.Expand(whole, kw, opts)
	if err != nil {
		t.Fatal(err)
	}
	polls := math.MaxInt - whole.left
	if polls <= want.CyclesConsidered/256 || want.CyclesConsidered < 4*256 {
		t.Fatalf("%d cycles and %d polls: the miner must poll the deadline mid-enumeration", want.CyclesConsidered, polls)
	}
	for n := 1; n <= polls; n++ {
		ctx := &lateTimerCtx{Context: context.Background(), left: n - 1}
		if exp, err := s.Expand(ctx, kw, opts); exp != nil || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline passed at poll %d of %d: Expand = %v, %v; want context.DeadlineExceeded", n, polls, exp, err)
		}
		if ctx.left != -1 {
			t.Fatalf("deadline passed at poll %d of %d: the run polled %d more times", n, polls, -1-ctx.left)
		}
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
	_, err = expandAll(ctx, fresh, keywords, DefaultExpanderOptions(), 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran := fresh.expandCalls.Load(); ran == 0 || ran >= uint64(len(keywords)) {
		t.Errorf("pipeline ran %d/%d times; cancellation should stop the batch early but after some work", ran, len(keywords))
	}
}
