package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	querygraph "github.com/querygraph/querygraph"
)

// childMain runs one of the benchmark's own child processes: it reads its
// spec as JSON from stdin and writes its result as JSON to stdout.
func childMain(kind string) int {
	var (
		out any
		err error
	)
	switch kind {
	case "fixture":
		var spec fixtureSpec
		if err = json.NewDecoder(os.Stdin).Decode(&spec); err == nil {
			out, err = struct{}{}, generateFixture(spec)
		}
	case "workload":
		var spec childSpec
		if err = json.NewDecoder(os.Stdin).Decode(&spec); err == nil {
			out, err = runMeasuringChild(spec)
		}
	default:
		err = fmt.Errorf("unknown child kind %q", kind)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", kind, err)
		return 1
	}
	return 0
}

func runMeasuringChild(spec childSpec) (*childOut, error) {
	fx, err := loadFixture(spec.FixtureDir)
	if err != nil {
		return nil, err
	}
	e, err := newEnv(&options{seed: spec.Seed}, spec.Scale, fx, "", spec.TmpDir)
	if err != nil {
		return nil, err
	}
	e.window = spec.Window
	var out *childOut
	switch spec.Workload {
	case "expand-cold-client":
		out, err = e.childExpandCold(spec.SetupOnly)
	case "live-pool":
		out, err = e.childLivePool(spec.SetupOnly)
	default:
		return nil, fmt.Errorf("workload %q does not run in a measuring child", spec.Workload)
	}
	if err != nil {
		return nil, err
	}
	if out.PeakRSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}
	return out, nil
}

func gcPauseMS() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.PauseTotalNs) / 1e6
}

func (e *env) childExpandCold(setupOnly bool) (*childOut, error) {
	ctx := context.Background()
	start := time.Now()
	client, err := querygraph.Open(e.fx.snapshot(), querygraph.WithExpandCache(0))
	if err != nil {
		return nil, err
	}
	defer client.Close()
	queries := client.Queries()
	if len(queries) == 0 {
		return nil, fmt.Errorf("fixture %s carries no benchmark queries", e.fx.Meta.Name)
	}
	if _, err := (querygraph.ExpandRequest{Keywords: queries[0].Keywords, K: rankDepth}).Do(ctx, client); err != nil {
		return nil, err
	}
	out := &childOut{SetupS: time.Since(start).Seconds()}
	if setupOnly {
		return out, nil
	}
	if out.Answers, err = collect(ctx, client, e.gateQ, e.gateKW); err != nil {
		return nil, err
	}

	// The lap is a run of the world's benchmark queries from a seeded
	// start; its answers give the quality metric.
	first := rand.New(rand.NewSource(e.o.seed)).Intn(len(queries))
	n := e.sc.ColdLapOps
	precision := make([]float64, n)
	op := func(i int) error {
		q := queries[(first+i)%len(queries)]
		resp, err := querygraph.ExpandRequest{Keywords: q.Keywords, K: rankDepth}.Do(ctx, client)
		if err != nil {
			return err
		}
		ranked := make([]int32, len(resp.Results))
		for j, r := range resp.Results {
			ranked[j] = r.Doc
		}
		precision[i], err = querygraph.PrecisionAt(ranked, q.Relevant, rankDepth)
		return err
	}
	lapLoop(n, e.sc.Warmup, nil, op)
	pause := gcPauseMS()
	lr := lapLoop(n, e.window, nil, op)
	pause = gcPauseMS() - pause

	res := newWorkloadResult()
	if err := res.addLaps(lr, n); err != nil {
		return nil, err
	}
	sum := 0.0
	for _, p := range precision {
		sum += p
	}
	res.Metrics["quality_p_at_15"] = e2e("quality_p_at_15", sum/float64(n), n)
	res.Diagnostics["go.gc_pause_ms"] = Metric{Value: pause, Unit: "ms"}
	out.Result = res
	return out, nil
}

// compactCheck is how many of the gate's queries live-pool's writer
// answers before and after each compaction; the rankings must not move.
const compactCheck = 8

func (e *env) childLivePool(setupOnly bool) (*childOut, error) {
	ctx := context.Background()
	// Compaction republishes the manifest in place, so the pool serves a
	// private copy of the fixture's partition.
	dir, err := os.MkdirTemp(e.tmpDir, "live-pool-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(e.fx.shardDir(), dir); err != nil {
		return nil, err
	}
	start := time.Now()
	pool, err := querygraph.OpenPool(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	if _, err := pool.Search(ctx, e.gateQ[0], rankDepth); err != nil {
		return nil, err
	}
	out := &childOut{SetupS: time.Since(start).Seconds()}
	if setupOnly {
		return out, nil
	}
	if out.Answers, err = collect(ctx, pool, e.gateQ, e.gateKW); err != nil {
		return nil, err
	}

	// The writer's schedule starts with the warm-up, so the first
	// compaction falls inside the window at the same place on every run;
	// its samples are those of the batches due inside the window.
	var (
		wg      sync.WaitGroup
		written loadResult
		rate    = e.sc.IngestRate / float64(e.sc.IngestBatch) // batches per second
		warm    = int(rate * e.sc.Warmup.Seconds())
		w       = &liveWriter{e: e, pool: pool, rng: rand.New(rand.NewSource(e.o.seed)), warm: warm}
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		written = openLoop(rate, e.sc.Warmup+e.window, w.batch)
	}()
	lap := e.pools.lap(e.o.seed, e.sc.LapOps, mixLiveReader)
	var dst []querygraph.Result
	op := func(i int) error {
		rs, err := pool.SearchInto(ctx, lap[i], rankDepth, dst)
		dst = rs
		return err
	}
	lapLoop(len(lap), e.sc.Warmup, nil, op)
	pause := gcPauseMS()
	lr := lapLoop(len(lap), e.window, w.state, op)
	pause = gcPauseMS() - pause
	wg.Wait()
	if w.err != nil {
		return nil, w.err
	}

	res := newWorkloadResult()
	if err := res.addLaps(lr, len(lap)); err != nil {
		return nil, err
	}
	res.Attempted += written.Attempted - warm + w.checks
	res.Failed += w.mismatches
	// One Ingest costs more the fuller the delta is, so the median over a
	// window mixes unlike batches and moves with how long the compactions
	// took. The batches that found the delta half full did equal work.
	if len(w.halfFull) > 0 {
		res.Metrics["ingest_p50_ms"] = e2e("ingest_p50_ms", median(w.halfFull), len(w.halfFull))
	}
	if len(w.compacts) > 0 {
		res.Metrics["compact_s"] = e2e("compact_s", median(w.compacts), len(w.compacts))
	}
	// What a producer on the schedule saw: how late its batches started
	// (the writer stalls while it compacts) and when they were in, from
	// their due time. p90, not p99: the window holds under 1 000 batches,
	// too few for ten beyond a p99.
	for name, samples := range map[string][]time.Duration{"live.ingest_late_p90_ms": written.Lag[warm:], "live.ingest_from_due_p90_ms": written.Latencies[warm:]} {
		if v, err := percentile(sortDurations(samples), 0.9); err == nil {
			res.Diagnostics[name] = Metric{Value: msOf(v), Unit: "ms", Samples: len(samples)}
		}
	}
	res.Diagnostics["live.ingested_docs"] = Metric{Value: float64((written.Attempted - warm) * e.sc.IngestBatch), Unit: "count"}
	res.Diagnostics["go.gc_pause_ms"] = Metric{Value: pause, Unit: "ms"}
	out.Result = res
	return out, nil
}

// fillBands is how finely live-pool's reader tells delta sizes apart: the
// laps that began with the delta in the same half of the compaction
// threshold count as having done the same work. No finer: a floor needs a
// few dozen laps to rest on, and after a compaction the writer catches up
// with its schedule through the lower half in a second or two (README,
// "How a window is measured").
const fillBands = 2

// liveWriter is live-pool's single writer: openLoop calls batch on the
// ingest schedule, and batch compacts whenever the delta reaches the
// threshold. The reader asks state which laps are comparable.
type liveWriter struct {
	e    *env
	pool *querygraph.Pool
	rng  *rand.Rand
	warm int // the first batch whose samples are kept

	// deltaDocs and compacting are what the reader may look at.
	deltaDocs  atomic.Int64
	compacting atomic.Bool

	halfFull   []float64 // ms per Ingest into a half-full delta
	compacts   []float64 // seconds per Compact
	checks     int       // rankings compared across a compaction
	mismatches int
	err        error // the first failure; later batches are skipped
}

// state is the lap key of live-pool's reader: which half of the
// compaction threshold the delta fills, or fillBands while a compaction
// runs.
func (w *liveWriter) state() int {
	if w.compacting.Load() {
		return fillBands
	}
	return min(int(w.deltaDocs.Load())*fillBands/w.e.sc.CompactAt, fillBands-1)
}

// batch ingests batch number seq and, when that fills the delta, checks a
// sample of rankings, compacts, and checks that they did not move.
func (w *liveWriter) batch(seq int) error {
	if w.err != nil {
		return w.err
	}
	ctx, sc := context.Background(), w.e.sc
	docs := ingestDocs(w.rng, w.e.fx.Inputs.Topics, w.e.o.seed, seq*sc.IngestBatch, sc.IngestBatch)
	sent := time.Now()
	st, err := w.pool.Ingest(ctx, docs)
	took := time.Since(sent)
	if err != nil {
		w.err = fmt.Errorf("ingest batch %d: %w", seq, err)
		return w.err
	}
	w.deltaDocs.Store(int64(st.DeltaDocs))
	if before := st.DeltaDocs - sc.IngestBatch; seq >= w.warm && before >= sc.CompactAt/2 && before < sc.CompactAt*5/8 {
		w.halfFull = append(w.halfFull, msOf(took))
	}
	if st.DeltaDocs < sc.CompactAt {
		return nil
	}
	check := w.e.gateQ[:min(compactCheck, len(w.e.gateQ))]
	before, err := collect(ctx, w.pool, check, nil)
	if err != nil {
		w.err = err
		return err
	}
	w.compacting.Store(true)
	sent = time.Now()
	_, err = w.pool.Compact(ctx)
	took = time.Since(sent)
	w.deltaDocs.Store(0)
	w.compacting.Store(false)
	if err != nil {
		w.err = fmt.Errorf("compact: %w", err)
		return w.err
	}
	after, err := collect(ctx, w.pool, check, nil)
	if err != nil {
		w.err = err
		return err
	}
	if seq >= w.warm {
		w.compacts = append(w.compacts, took.Seconds())
		w.checks += after.size()
		w.mismatches += after.mismatches(before)
	}
	return nil
}
