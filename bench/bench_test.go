package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary when the
// benchmark re-executes itself as a child process.
func TestMain(m *testing.M) {
	if kind := os.Getenv(childEnv); kind != "" {
		os.Exit(childMain(kind))
	}
	code := m.Run()
	stopAll()
	os.Exit(code)
}

// benchmarkFile is the whole of BENCHMARK.json.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestQuickRun drives the whole benchmark — fixture child, spawned qserve
// and qshard, measuring children, traced pass — on the 1 500-document
// world, then checks the result against BENCHMARK.json and itself.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers")
	}
	work := t.TempDir()
	out := filepath.Join(work, "quick.json")
	o := &options{seed: 7, seconds: 1, repeat: 1, quick: true, out: out, work: work, root: ".."}
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
	res, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &decl); err != nil {
		t.Fatal(err)
	}

	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program runs %d", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		got := res.Workloads[w.Name]
		if got == nil {
			t.Errorf("workload %s: declared, not run", w.Name)
			continue
		}
		if !got.Correct || got.Failed != 0 || got.Metrics["error_rate"].Value != 0 {
			t.Errorf("workload %s: correct=%v failed=%d of %d", w.Name, got.Correct, got.Failed, got.Attempted)
		}
		if got.Fingerprint != res.Workloads[workloads[0].name].Fingerprint {
			t.Errorf("workload %s: fingerprint %s differs from %s's", w.Name, got.Fingerprint, workloads[0].name)
		}
		for _, d := range decl.EndToEnd {
			m, ok := got.Metrics[d.Name]
			if !ok || m.Value <= 0 {
				t.Errorf("workload %s: end-to-end metric %s = %v (present=%v)", w.Name, d.Name, m.Value, ok)
			}
			def, _ := endToEndDef(d.Name)
			if def.Unit != d.Unit || def.Better != d.Better || def.Bound != d.Bound {
				t.Errorf("%s: BENCHMARK.json says %s/%s/%g, the program %s/%s/%g", d.Name, d.Unit, d.Better, d.Bound, def.Unit, def.Better, def.Bound)
			}
		}
	}
	live := res.Workloads["live-pool"]
	for _, name := range []string{"compact_s", "ingest_p50_ms"} {
		if m, ok := live.Metrics[name]; !ok || m.Value <= 0 {
			t.Errorf("live-pool: %s = %v (present=%v)", name, m.Value, ok)
		}
	}
	if _, ok := res.Workloads["expand-cold-client"].Metrics["quality_p_at_15"]; !ok {
		t.Error("expand-cold-client: no quality_p_at_15")
	}
	for _, d := range decl.PerLayer {
		m, ok := res.PerLayer[d.Name]
		if !ok {
			t.Errorf("per-layer metric %s: declared, not produced", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("per-layer metric %s: unit %s, declared %s", d.Name, m.Unit, d.Unit)
		}
	}
	if got := res.PerLayer["rpc.rounds_per_search"].Value; got != 4 {
		t.Errorf("rpc.rounds_per_search = %v, want 4 (two phases on two shards)", got)
	}

	// A result agrees with itself; a worse copy regresses.
	var report bytes.Buffer
	if n, err := compare(&report, res, res); err != nil || n != 0 {
		t.Errorf("A/A compare: %d regressed, err %v\n%s", n, err, report.String())
	}
	worse := *res
	worse.Workloads = map[string]*WorkloadResult{}
	for name, w := range res.Workloads {
		c := *w
		c.Metrics = map[string]Metric{}
		for k, m := range w.Metrics {
			c.Metrics[k] = m
		}
		worse.Workloads[name] = &c
	}
	m := worse.Workloads["serve-remote"].Metrics["latency_p50_ms"]
	m.Value *= 2
	worse.Workloads["serve-remote"].Metrics["latency_p50_ms"] = m
	report.Reset()
	if n, err := compare(&report, res, &worse); err != nil || n != 1 {
		t.Errorf("compare with one doubled latency: %d regressed, err %v\n%s", n, err, report.String())
	}
}

func TestBenchmarkFileShape(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(blob, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	var decl benchmarkFile
	if err := json.Unmarshal(blob, &decl); err != nil {
		t.Fatal(err)
	}
	setup := false
	for _, d := range decl.EndToEnd {
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Error("BENCHMARK.json lacks setup_s in seconds, lower is better")
	}
	for _, w := range decl.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// 2 ms per operation, 1 000 due per second: the schedule slips by ~1 ms
	// per operation, and the slip must show up both as latency (timed from
	// the due time) and as generator lag.
	const opTime = 2 * time.Millisecond
	seen := 0
	lr := openLoop(1000, 50*time.Millisecond, func(seq int) error {
		if seq != seen {
			t.Errorf("operation %d sent as number %d", seq, seen)
		}
		seen++
		time.Sleep(opTime)
		return nil
	})
	if lr.Attempted != 50 || len(lr.Latencies) != 50 || len(lr.Lag) != 50 {
		t.Fatalf("attempted %d, %d latencies, %d lags; want 50 each", lr.Attempted, len(lr.Latencies), len(lr.Lag))
	}
	last := len(lr.Latencies) - 1
	if lr.Latencies[last] < 10*opTime {
		t.Errorf("last latency %v: a request queued behind 49 slow ones must be charged the wait from its due time", lr.Latencies[last])
	}
	if lr.Lag[last] < 5*opTime || lr.Lag[0] > lr.Lag[last] {
		t.Errorf("lag went %v -> %v: the generator ran late and must say so", lr.Lag[0], lr.Lag[last])
	}
	if got := lr.Latencies[last] - lr.Lag[last]; got < opTime || got > 20*opTime {
		t.Errorf("latency minus lag = %v, want about the operation's own %v", got, opTime)
	}
}

func TestLapLoopReplaysTheCycle(t *testing.T) {
	calls := 0
	lr := lapLoop(4, 20*time.Millisecond, nil, func(i int) error {
		if i != calls%4 {
			t.Errorf("operation %d issued at call %d: laps must replay 0..3 in order", i, calls)
		}
		calls++
		time.Sleep(time.Millisecond)
		return nil
	})
	if lr.Attempted != calls || lr.complete(4) != calls/4 || len(lr.Laps) != (calls+3)/4 || len(lr.Keys) != len(lr.Laps) {
		t.Fatalf("%d calls, %d attempted, %d laps of which %d complete, %d keys", calls, lr.Attempted, len(lr.Laps), lr.complete(4), len(lr.Keys))
	}
	for l, lap := range lr.Laps[:lr.complete(4)] {
		if len(lap) != 4 {
			t.Errorf("lap %d holds %d operations", l, len(lap))
		}
	}
	if got := floors(4, lr.Laps); len(got) != 4 || got[0] < time.Millisecond || got[0] > got[3] {
		t.Errorf("floors %v: want 4 sorted values of at least the operation's 1ms", got)
	}
}

// lapsOf builds laps of n operations: lap l costs cost[l] per operation,
// except that operation 0 of the first lap of each cost is disturbed.
func lapsOf(n int, cost ...time.Duration) [][]time.Duration {
	seen := make(map[time.Duration]bool)
	laps := make([][]time.Duration, len(cost))
	for l, c := range cost {
		laps[l] = make([]time.Duration, n)
		for i := range laps[l] {
			laps[l][i] = c
		}
		if !seen[c] {
			seen[c], laps[l][0] = true, 50*c
		}
	}
	return laps
}

func TestLapStatsTakeFloorsWithinAKey(t *testing.T) {
	const n = 100
	// Three laps in state 0 cost 1 ms per operation, one lap in state 1
	// costs 3 ms: a floor across the states would report 1 ms and lose the
	// costly state; per state, weighted by laps, it is (3*1 + 1*3)/4.
	lr := lapResult{Laps: lapsOf(n, time.Millisecond, time.Millisecond, 3*time.Millisecond, time.Millisecond), Keys: []int{0, 0, 1, 0}}
	st, err := lr.stats(n)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1500 * time.Microsecond; st.P50 != want || st.P90 != want {
		t.Errorf("p50 %v p90 %v, want %v", st.P50, st.P90, want)
	}
	// State 1 has one lap only, so its disturbed operation stays in.
	if want := (3*n*time.Millisecond + (n-1)*3*time.Millisecond + 150*time.Millisecond) / 4; st.Lap != want {
		t.Errorf("lap %v, want %v", st.Lap, want)
	}

	// One key: plain floors, and a cut-off last lap still counts.
	lr = lapResult{Laps: append(lapsOf(n, time.Millisecond, time.Millisecond), []time.Duration{time.Microsecond}), Keys: []int{0, 0, 0}}
	if st, err = lr.stats(n); err != nil || st.P50 != time.Millisecond || st.Lap != (n-1)*time.Millisecond+time.Microsecond {
		t.Errorf("one key: %+v, %v", st, err)
	}

	// A percentile over the floors obeys the sample rule like any other.
	if st, err := (lapResult{Laps: lapsOf(99, time.Millisecond), Keys: []int{0}}).stats(99); err != nil || st.P90 != 0 || st.P50 == 0 {
		t.Errorf("99 floors: %+v, %v; want a p50 and no p90, ten must lie beyond it", st, err)
	}
	if _, err := (lapResult{Laps: lapsOf(19, time.Millisecond), Keys: []int{0}}).stats(19); err == nil {
		t.Error("p50 over 19 floors: want a refusal")
	}
	if _, err := (lapResult{Laps: [][]time.Duration{{1, 2}}, Keys: []int{0}}).stats(n); err == nil {
		t.Error("no complete lap: want an error")
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	samples := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		n    int
		p    float64
		want time.Duration // 0 = refused
	}{
		{19, 0.5, 0}, {20, 0.5, 10}, {99, 0.9, 0}, {100, 0.9, 90}, {999, 0.99, 0}, {1000, 0.99, 990},
	} {
		got, err := percentile(samples(c.n), c.p)
		if (err != nil) != (c.want == 0) || got != c.want {
			t.Errorf("p%g of %d samples = %v, %v; want %v", c.p*100, c.n, got, err, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
	r := newRecorder()
	outer := r.begin("outer", 0)
	r.time("inner", outer, func() { time.Sleep(2 * time.Millisecond) })
	r.end(outer)
	total, _ := r.meanNS("outer", 1)
	inner, n := r.meanNS("inner", 1)
	if n != 1 || inner < 2e6 || math.Abs(total-inner-r.meanSelfNS("outer")) > 1 {
		t.Errorf("outer %v = inner %v + self %v does not hold", total, inner, r.meanSelfNS("outer"))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestCompareFollowsFlags(t *testing.T) {
	// run.sh puts -root before whatever the user typed.
	_, rest, err := parseFlags([]string{"-root", "/somewhere", "compare", "A.json", "B.json"})
	if err != nil || len(rest) != 3 || rest[0] != "compare" {
		t.Errorf("rest %v, err %v", rest, err)
	}
}

func TestJudge(t *testing.T) {
	lower, _ := endToEndDef("latency_p50_ms")
	higher, _ := endToEndDef("throughput_ops_s")
	exact, _ := endToEndDef("error_rate")
	steady := []float64{100, 101, 99, 100}
	noisy := []float64{60, 100, 140, 180}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b Metric
		want string
	}{
		{"within bound", lower, Metric{Value: 100}, Metric{Value: 100 * (1 + lower.Bound/2)}, verdictOK},
		{"slower", lower, Metric{Value: 100}, Metric{Value: 100 * (1 + 2*lower.Bound)}, verdictRegressed},
		{"faster", lower, Metric{Value: 100}, Metric{Value: 50}, verdictOK},
		{"less throughput", higher, Metric{Value: 100}, Metric{Value: 100 * (1 - 2*higher.Bound)}, verdictRegressed},
		{"more throughput", higher, Metric{Value: 100}, Metric{Value: 150}, verdictOK},
		{"noise wider than bound", lower, Metric{Value: 100, Runs: steady}, Metric{Value: 120, Runs: noisy}, verdictUnresolved},
		{"any error regresses", exact, Metric{Value: 0}, Metric{Value: 0.001}, verdictRegressed},
		{"no error", exact, Metric{Value: 0}, Metric{Value: 0}, verdictOK},
	} {
		if got, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
