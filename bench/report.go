package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
)

// schemaVersion is the version of the result file this program writes
// and compares; it supersedes the three BENCH_N.json shapes.
const schemaVersion = 2

// metricDef declares one end-to-end metric: its unit, which direction is
// better, and the share of the baseline by which it may worsen before a
// change counts as a regression (0 = any worsening regresses).
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEnd lists the end-to-end metrics. Every workload reports the same
// names; one it cannot produce is omitted for it. `bench compare` gates
// all of them. BENCHMARK.json repeats, with the same bounds, the ones
// every workload produces and that are never 0: its driver wants every
// metric it names from every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"error_rate", "ratio", "lower", 0},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"ingest_p50_ms", "ms", "lower", 0.25},
	{"compact_s", "s", "lower", 0.25},
	{"quality_p_at_15", "ratio", "higher", 0},
}

func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// Metric is one reported number. Runs holds the per-set values when the
// result aggregates several sets (-repeat); Value is then their median.
type Metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Better  string    `json:"better,omitempty"`
	Bound   *float64  `json:"bound,omitempty"`
	Runs    []float64 `json:"runs,omitempty"`
}

// e2e builds an end-to-end metric from its declaration.
func e2e(name string, value float64, samples int) Metric {
	d, ok := endToEndDef(name)
	if !ok {
		panic("bench: undeclared end-to-end metric " + name)
	}
	bound := d.Bound
	return Metric{Value: value, Unit: d.Unit, Samples: samples, Better: d.Better, Bound: &bound}
}

// WorkloadResult is one workload's outcome.
type WorkloadResult struct {
	Why         string            `json:"why"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Correct     bool              `json:"correct"`
	Fingerprint string            `json:"results_fingerprint"`
	Metrics     map[string]Metric `json:"metrics"`
	Diagnostics map[string]Metric `json:"diagnostics,omitempty"`
}

type hostInfo struct {
	Cores int    `json:"cores"`
	Go    string `json:"go"`
	OS    string `json:"os"`
	Arch  string `json:"arch"`
}

// Result is the schema_version 2 result file: what `bench -out` writes,
// `bench compare` reads and results/baseline.json holds. Raw spans are
// not part of it.
type Result struct {
	SchemaVersion int                        `json:"schema_version"`
	Host          hostInfo                   `json:"host"`
	Seed          int64                      `json:"seed"`
	Seconds       int                        `json:"seconds"`
	Sets          int                        `json:"sets"`
	Fixture       fixtureMeta                `json:"fixture"`
	Workloads     map[string]*WorkloadResult `json:"workloads"`
	PerLayer      map[string]Metric          `json:"per_layer,omitempty"`
}

func newResult(o *options, fx *fixture) *Result {
	return &Result{
		SchemaVersion: schemaVersion,
		Host:          hostInfo{Cores: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH},
		Seed:          o.seed,
		Seconds:       o.seconds,
		Sets:          1,
		Fixture:       fx.Meta,
		Workloads:     make(map[string]*WorkloadResult),
	}
}

// quartiles returns the first, second and third quartile of xs by the
// exclusive method (what Python's statistics.quantiles(xs, n=4) gives),
// so spreads computed here match the ones the acceptance driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range of xs as a share of their median; 0
// when there are too few values to have one.
func spread(xs []float64) float64 {
	if len(xs) < 3 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// mergeMetrics folds the same metric of several sets into one: Value is
// the median, Runs the per-set values.
func mergeMetrics(sets []map[string]Metric) map[string]Metric {
	out := make(map[string]Metric)
	for _, set := range sets {
		for name, m := range set {
			agg, ok := out[name]
			if !ok {
				agg = m
				agg.Samples = 0
			}
			agg.Samples += m.Samples
			agg.Runs = append(agg.Runs, m.Value)
			out[name] = agg
		}
	}
	for name, m := range out {
		m.Value = median(m.Runs)
		out[name] = m
	}
	return out
}

// mergeResults aggregates the sets of a -repeat run.
func mergeResults(sets []*Result) *Result {
	if len(sets) == 1 {
		return sets[0]
	}
	out := *sets[0]
	out.Sets = len(sets)
	out.Workloads = make(map[string]*WorkloadResult)
	var layers []map[string]Metric
	for _, set := range sets {
		layers = append(layers, set.PerLayer)
	}
	out.PerLayer = mergeMetrics(layers)
	for name, first := range sets[0].Workloads {
		w := &WorkloadResult{Why: first.Why, Correct: true, Fingerprint: first.Fingerprint}
		var metrics, diags []map[string]Metric
		for _, set := range sets {
			s := set.Workloads[name]
			w.Attempted += s.Attempted
			w.Failed += s.Failed
			w.Correct = w.Correct && s.Correct
			if s.Fingerprint != first.Fingerprint {
				w.Fingerprint = "differs-between-sets"
				w.Correct = false
			}
			metrics = append(metrics, s.Metrics)
			diags = append(diags, s.Diagnostics)
		}
		w.Metrics, w.Diagnostics = mergeMetrics(metrics), mergeMetrics(diags)
		out.Workloads[name] = w
	}
	return &out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printMetric(w io.Writer, name string, m Metric) {
	fmt.Fprintf(w, "  %-36s %14.4f %-6s", name, m.Value, m.Unit)
	if m.Samples > 0 {
		fmt.Fprintf(w, " n=%-8d", m.Samples)
	}
	if m.Bound != nil {
		fmt.Fprintf(w, " bound=%g%% (%s is better)", *m.Bound*100, m.Better)
	}
	if len(m.Runs) >= 3 {
		q1, _, q3 := quartiles(m.Runs)
		fmt.Fprintf(w, " sets=%d q1=%.4f q3=%.4f spread=%.1f%%", len(m.Runs), q1, q3, spread(m.Runs)*100)
	}
	fmt.Fprintln(w)
}

// printResult writes the human-readable report: every metric by name
// with unit, sample count and bound.
func printResult(w io.Writer, r *Result) {
	fmt.Fprintf(w, "fixture %s seed=%d config=%s sha256=%s\n", r.Fixture.Name, r.Fixture.WorldSeed, r.Fixture.ConfigHash, r.Fixture.SnapshotSHA256)
	st := r.Fixture.Stats
	fmt.Fprintf(w, "  %d articles, %d categories, %d links, %d documents, %d benchmark queries, high-df term %q (df %d)\n",
		st.Articles, st.Categories, st.Links, st.Documents, st.BenchmarkQueries, r.Fixture.HighDFTerm, r.Fixture.HighDF)
	fmt.Fprintf(w, "host %d cores %s %s/%s, workload seed %d, %d s windows, %d set(s)\n",
		r.Host.Cores, r.Host.Go, r.Host.OS, r.Host.Arch, r.Seed, r.Seconds, r.Sets)
	for _, wl := range workloads {
		res := r.Workloads[wl.name]
		if res == nil {
			continue
		}
		fmt.Fprintf(w, "\nworkload %s: attempted=%d failed=%d correct=%v results_fingerprint=%s\n",
			wl.name, res.Attempted, res.Failed, res.Correct, res.Fingerprint)
		for _, d := range endToEnd {
			if m, ok := res.Metrics[d.Name]; ok {
				printMetric(w, d.Name, m)
			}
		}
		for _, name := range sortedKeys(res.Diagnostics) {
			printMetric(w, "("+name+")", res.Diagnostics[name])
		}
	}
	if len(r.PerLayer) > 0 {
		fmt.Fprintf(w, "\nper-layer (traced pass)\n")
		for _, name := range sortedKeys(r.PerLayer) {
			printMetric(w, name, r.PerLayer[name])
		}
	}
}
