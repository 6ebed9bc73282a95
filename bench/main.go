// Command bench is the repository's one measuring stick: a fixture world,
// four named workloads that each load a different layer, end-to-end
// metrics with regression bounds, a correctness gate, and a traced pass
// that times each layer's public functions from the outside.
//
//	bench [-seed N] [-seconds S] [-repeat N] [-out FILE]   every workload, then the traced pass
//	bench -workload NAME -seed N -seconds S -trace 0|1     one workload, as BENCHMARK.json declares
//	bench compare A.json B.json                            apply each metric's bound and direction
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	quick    bool
	repeat   int
	out      string
	work     string
	root     string
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	if kind := os.Getenv(childEnv); kind != "" {
		return childMain(kind)
	}
	o, rest, err := parseFlags(args)
	if err != nil {
		return 2
	}
	if len(rest) > 0 {
		return compareMain(rest[1:], os.Stdout)
	}
	defer stopAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// parseFlags returns the options and, for `bench [flags] compare A B`,
// the arguments from "compare" on.
func parseFlags(args []string) (*options, []string, error) {
	o := &options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run this one workload and end with the one-line JSON result BENCHMARK.json describes (default: every workload, then the traced pass)")
	fs.Int64Var(&o.seed, "seed", 3, "workload seed: query strings, request laps, gate sample, ingested documents")
	fs.IntVar(&o.seconds, "seconds", 20, "length of each workload's measured window (BENCHMARK.json's run_seconds)")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the traced pass and reports the per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "1 500-document world and short windows: exercises every code path in seconds, measures nothing worth keeping")
	fs.IntVar(&o.repeat, "repeat", 1, "run this many sets and report each metric's median and quartiles")
	fs.StringVar(&o.out, "out", "", "write the schema_version 2 result file here")
	fs.StringVar(&o.work, "work", "", "work directory for binaries, fixtures and logs (default ROOT/.bench_build)")
	fs.StringVar(&o.root, "root", "..", "repository root; the default suits 'go run .' in bench/, run.sh passes it")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if (fs.NArg() > 0 && fs.Arg(0) != "compare") || o.seconds < 1 || o.repeat < 1 || (o.trace != 0 && o.trace != 1) {
		fs.Usage()
		return nil, nil, fmt.Errorf("bad arguments")
	}
	if _, ok := workloadNamed(o.workload); o.workload != "" && !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return nil, nil, fmt.Errorf("bad arguments")
	}
	return o, fs.Args(), nil
}

// run prepares the work directory, the serving binaries and the fixture,
// then runs what the options ask for.
func run(o *options, w io.Writer) error {
	var err error
	if o.root, err = filepath.Abs(o.root); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(o.root, "cmd", "qserve")); err != nil {
		return fmt.Errorf("%s is not the repository root (pass -root): %w", o.root, err)
	}
	if o.work == "" {
		o.work = filepath.Join(o.root, ".bench_build")
	}
	if o.work, err = filepath.Abs(o.work); err != nil {
		return err
	}
	binDir := filepath.Join(o.work, "bin")
	if err := buildServers(o.root, binDir); err != nil {
		return err
	}
	// Logs, topologies and private manifest copies of this run; removed
	// when the run succeeds, kept for inspection when it does not.
	tmpDir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return err
	}
	sc := scaleFor(o.quick)
	fx, err := ensureFixture(o.work, sc)
	if err != nil {
		return err
	}
	if o.workload != "" {
		err = runDriver(o, sc, fx, binDir, tmpDir, w)
	} else {
		err = runFull(o, sc, fx, binDir, tmpDir, w)
	}
	if err != nil {
		return fmt.Errorf("%w (logs kept in %s)", err, tmpDir)
	}
	return os.RemoveAll(tmpDir)
}

// runFull runs every workload and the traced pass, -repeat times.
func runFull(o *options, sc scale, fx *fixture, binDir, tmpDir string, w io.Writer) error {
	var sets []*Result
	for i := 0; i < o.repeat; i++ {
		e, err := newEnv(o, sc, fx, binDir, tmpDir)
		if err != nil {
			return err
		}
		r := newResult(o, fx)
		for _, wl := range workloads {
			fmt.Fprintf(os.Stderr, "bench: set %d/%d: %s\n", i+1, o.repeat, wl.name)
			res, err := wl.run(e)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			res.Why = wl.why
			r.Workloads[wl.name] = res
		}
		fmt.Fprintf(os.Stderr, "bench: set %d/%d: traced pass\n", i+1, o.repeat)
		layers, _, failed, err := runTracedPass(e)
		if err != nil {
			return err
		}
		if failed > 0 {
			return fmt.Errorf("traced pass: %d answers differ between layers that must agree", failed)
		}
		r.PerLayer = layers
		// The workload-run diagnostic the per-layer list names.
		if m, ok := r.Workloads["live-pool"].Diagnostics["live.ingest_late_p90_ms"]; ok {
			r.PerLayer["live.ingest_late_p90_ms"] = m
		}
		sets = append(sets, r)
	}
	res := mergeResults(sets)
	printResult(w, res)
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			return err
		}
	}
	for name, wl := range res.Workloads {
		if !wl.Correct || wl.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed (correct=%v)", name, wl.Failed, wl.Attempted, wl.Correct)
		}
	}
	return nil
}

// declared is the part of BENCHMARK.json the driver mode reads: which
// metrics a run must print.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// contractLine is the one-line result the acceptance driver parses.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDriver runs one workload (-trace 0) or the traced pass (-trace 1)
// and ends with the one-line JSON object holding exactly the metrics
// BENCHMARK.json declares.
func runDriver(o *options, sc scale, fx *fixture, binDir, tmpDir string, w io.Writer) error {
	var decl declared
	if err := readJSON(filepath.Join(o.root, "BENCHMARK.json"), &decl); err != nil {
		return err
	}
	e, err := newEnv(o, sc, fx, binDir, tmpDir)
	if err != nil {
		return err
	}
	line := contractLine{Metrics: make(map[string]contractMetric)}
	var (
		have map[string]Metric
		want []struct{ Name, Unit string }
	)
	r := newResult(o, fx)
	if o.trace == 0 {
		wl, _ := workloadNamed(o.workload)
		res, err := wl.run(e)
		if err != nil {
			return err
		}
		res.Why = wl.why
		r.Workloads[o.workload] = res
		line.Correct, line.Attempted, line.Failed = res.Correct, res.Attempted, res.Failed
		have, want = res.Metrics, decl.EndToEnd
	} else {
		layers, attempted, failed, err := runTracedPass(e)
		if err != nil {
			return err
		}
		r.PerLayer = layers
		line.Correct, line.Attempted, line.Failed = failed == 0, attempted, failed
		have, want = layers, decl.PerLayer
	}
	printResult(w, r)
	for _, d := range want {
		m, ok := have[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json declares %s, which this run did not produce", d.Name)
		}
		line.Metrics[d.Name] = contractMetric{Value: m.Value, Unit: d.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
