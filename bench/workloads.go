package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	querygraph "github.com/querygraph/querygraph"
	"github.com/querygraph/querygraph/internal/rpc"
	"github.com/querygraph/querygraph/internal/shard"
)

// setupRuns is how many times a run sets the system under test up;
// setup_s is the median, so one slow process start does not decide it.
const setupRuns = 5

// readyTimeout bounds the wait for a spawned server's first answer.
const readyTimeout = 60 * time.Second

// workload is one named traffic shape. why records the reason it exists:
// which layers do the work on it and which do none.
type workload struct {
	name, why string
	run       func(*env) (*WorkloadResult, error)
}

var workloads = []workload{
	{"search-http-pool", "qserve over a 2-shard Pool, 70/10/20 entity/expanded/common searches: HTTP, query parse and plan, postings walk, scoring and merge do all the work, expansion none", runSearchHTTP},
	{"expand-cold-client", "in-process Client with the expansion cache off: every request runs link, BFS, induce, enumerate, measure, rank and one expanded retrieval; HTTP and RPC do nothing", runInProcess("expand-cold-client")},
	{"serve-remote", "2 qshard processes behind an in-process coordinator, 70% entity searches and 30% cache-hit expansions: per-op work is tiny, so RPC framing and round trips dominate", runServeRemote},
	{"live-pool", "in-process Pool with a 2 000 docs/s writer compacting every 16 384 documents beside a reader: base+delta scoring, fold, republish and hot swap share the read path", runInProcess("live-pool")},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The class mixes, in percent, indexed by query class.
var (
	mixSearchHTTP = [numClasses]int{classEntity: 70, classExpanded: 10, classCommon: 20}
	// live-pool's reader keeps the common class at 20% so p90 falls
	// inside that class and not on the boundary between two.
	mixLiveReader = [numClasses]int{classEntity: 80, classCommon: 20}
)

// remoteSearchShare is serve-remote's share of searches; the rest are
// expansions of the hot keywords.
const remoteSearchShare = 70

// env is what a workload runs in.
type env struct {
	o      *options
	sc     scale
	fx     *fixture
	pools  *queryPools
	binDir string // qserve, qshard
	tmpDir string // logs, topologies, private manifest copies
	// spansPath is where the traced pass writes its raw spans; it outlives
	// the run's tmpDir.
	spansPath string
	window    time.Duration

	gateQ, gateKW []string
	ref           *answers
}

func newEnv(o *options, sc scale, fx *fixture, binDir, tmpDir string) (*env, error) {
	pools, err := buildPools(fx, sc, o.seed)
	if err != nil {
		return nil, err
	}
	return &env{
		o: o, sc: sc, fx: fx, pools: pools, binDir: binDir, tmpDir: tmpDir,
		spansPath: filepath.Join(o.work, "spans.json"),
		window:    time.Duration(o.seconds) * time.Second,
		gateQ:     pools.gateQueries(o.seed),
		gateKW:    fx.Inputs.Keywords[:min(gateKeywords, len(fx.Inputs.Keywords))],
	}, nil
}

// reference answers the gate's sample with the in-process Client on the
// fixture's snapshot: the answers every runtime must reproduce.
func (e *env) reference(ctx context.Context) (answers, error) {
	if e.ref != nil {
		return *e.ref, nil
	}
	client, err := querygraph.Open(e.fx.snapshot())
	if err != nil {
		return answers{}, err
	}
	defer client.Close()
	ref, err := collect(ctx, client, e.gateQ, e.gateKW)
	if err != nil {
		return answers{}, err
	}
	e.ref = &ref
	return ref, nil
}

func newWorkloadResult() *WorkloadResult {
	return &WorkloadResult{Metrics: make(map[string]Metric), Diagnostics: make(map[string]Metric)}
}

// applyGate compares a runtime's answers with the reference and folds the
// outcome into the result.
func (e *env) applyGate(ctx context.Context, res *WorkloadResult, got answers) error {
	ref, err := e.reference(ctx)
	if err != nil {
		return err
	}
	bad := got.mismatches(ref)
	res.Attempted += got.size()
	res.Failed += bad
	res.Correct = bad == 0 && got.size() == ref.size()
	res.Fingerprint = got.fingerprint()
	return nil
}

// finish derives the metrics every workload reports from its counters.
func (res *WorkloadResult) finish(setups []float64, peakRSSMB float64) {
	res.Metrics["setup_s"] = e2e("setup_s", median(setups), len(setups))
	res.Metrics["peak_rss_mb"] = e2e("peak_rss_mb", peakRSSMB, 1)
	res.Metrics["error_rate"] = e2e("error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)
}

// addLaps records a lapped window of a cycle of n operations. The gated
// numbers come from lapResult.stats: the latency percentiles over the
// cycle's operations, each at its floor, and the throughput of one caller
// whose every operation takes its floor. Their sample count is n, the
// number of floors behind a percentile; a cycle too short for a p90 (ten
// floors must lie beyond it) reports none. The same percentiles over the
// raw samples, and the raw throughput, are diagnostics.
func (res *WorkloadResult) addLaps(lr lapResult, n int) error {
	res.Attempted += lr.Attempted
	res.Failed += lr.Failed
	st, err := lr.stats(n)
	if err != nil {
		return err
	}
	res.Metrics["throughput_ops_s"] = e2e("throughput_ops_s", float64(n)/st.Lap.Seconds(), n)
	res.Metrics["latency_p50_ms"] = e2e("latency_p50_ms", msOf(st.P50), n)
	if st.P90 > 0 {
		res.Metrics["latency_p90_ms"] = e2e("latency_p90_ms", msOf(st.P90), n)
	}
	raw := lr.raw()
	res.Diagnostics["raw_throughput_ops_s"] = Metric{Value: float64(lr.Attempted-lr.Failed) / lr.Elapsed.Seconds(), Unit: "ops/s", Samples: lr.Attempted}
	// A raw percentile is left out when too few samples lie beyond it.
	for name, p := range map[string]float64{"raw_latency_p50_ms": 0.5, "raw_latency_p90_ms": 0.9, "raw_latency_p99_ms": 0.99} {
		if v, err := percentile(raw, p); err == nil {
			res.Diagnostics[name] = Metric{Value: msOf(v), Unit: "ms", Samples: len(raw)}
		}
	}
	res.Diagnostics["laps"] = Metric{Value: float64(lr.complete(n)), Unit: "count"}
	return nil
}

// --- search-http-pool ----------------------------------------------------

// httpClient is the load generator's side of qserve: one caller on one
// keep-alive connection.
type httpClient struct {
	base string
	c    *http.Client
	buf  bytes.Buffer
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{base: base, c: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// post sends one JSON request and returns the response body, which is
// valid until the next post. A non-2xx status is an error.
func (h *httpClient) post(path string, body []byte) ([]byte, error) {
	resp, err := h.c.Post(h.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	h.buf.Reset()
	if _, err := io.Copy(&h.buf, resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, h.buf.Bytes())
	}
	return h.buf.Bytes(), nil
}

type wireResult struct {
	Doc   int32   `json:"doc"`
	Score float64 `json:"score"`
}

func fromWire(rs []wireResult) []querygraph.Result {
	out := make([]querygraph.Result, len(rs))
	for i, r := range rs {
		out[i] = querygraph.Result{Doc: r.Doc, Score: r.Score}
	}
	return out
}

// decodeSearch parses a /v1/search response body.
func decodeSearch(raw []byte) ([]querygraph.Result, error) {
	var resp struct {
		Results []wireResult `json:"results"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	return fromWire(resp.Results), nil
}

func searchBody(query string) []byte {
	b, _ := json.Marshal(map[string]any{"query": query, "k": rankDepth})
	return b
}

// collect answers the gate's sample over HTTP.
func (h *httpClient) collect(queries, keywords []string) (answers, error) {
	a := answers{Searches: make(map[string][]querygraph.Result), Expands: make(map[string]expandAnswer)}
	for _, q := range queries {
		raw, err := h.post("/v1/search", searchBody(q))
		if err != nil {
			return a, err
		}
		if a.Searches[q], err = decodeSearch(raw); err != nil {
			return a, err
		}
	}
	for _, kw := range keywords {
		body, _ := json.Marshal(map[string]any{"keywords": kw, "k": rankDepth})
		raw, err := h.post("/v1/expand", body)
		if err != nil {
			return a, err
		}
		var resp struct {
			Features []struct {
				Title string `json:"title"`
			} `json:"features"`
			Results []wireResult `json:"results"`
		}
		if err := json.Unmarshal(raw, &resp); err != nil {
			return a, err
		}
		ea := expandAnswer{Features: make([]string, len(resp.Features)), Results: fromWire(resp.Results)}
		for i, f := range resp.Features {
			ea.Features[i] = f.Title
		}
		a.Expands[kw] = ea
	}
	return a, nil
}

// startQserve spawns qserve on a free loopback port with its shipped
// default flags plus extra, and returns once it answered its first
// search: the returned duration is spawn to first successful request.
func (e *env) startQserve(load string, extra ...string) (*proc, string, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, "", 0, err
	}
	start := time.Now()
	p, err := spawnServer(e.tmpDir, filepath.Join(e.binDir, "qserve"), append([]string{"-load", load, "-addr", addr}, extra...)...)
	if err != nil {
		return nil, "", 0, err
	}
	probe := newHTTPClient("http://" + addr)
	defer probe.close()
	body := searchBody(e.gateQ[0])
	if err := waitReady(p, readyTimeout, func() error {
		_, err := probe.post("/v1/search", body)
		return err
	}); err != nil {
		p.stop()
		return nil, "", 0, err
	}
	return p, "http://" + addr, time.Since(start), nil
}

// lapBodies draws a lap of searches and pre-encodes their request bodies.
func (e *env) lapBodies(mix [numClasses]int) [][]byte {
	lap := e.pools.lap(e.o.seed, e.sc.LapOps, mix)
	bodies := make([][]byte, len(lap))
	for i, q := range lap {
		bodies[i] = searchBody(q)
	}
	return bodies
}

func runSearchHTTP(e *env) (*WorkloadResult, error) {
	ctx := context.Background()
	res := newWorkloadResult()
	var (
		srv    *proc
		base   string
		setups []float64
	)
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			srv.stop()
		}
		p, b, took, err := e.startQserve(e.fx.manifest())
		if err != nil {
			return nil, err
		}
		srv, base = p, b
		setups = append(setups, took.Seconds())
	}
	defer srv.stop()
	hc := newHTTPClient(base)
	defer hc.close()

	got, err := hc.collect(e.gateQ, e.gateKW)
	if err != nil {
		return nil, err
	}
	if err := e.applyGate(ctx, res, got); err != nil {
		return nil, err
	}

	// One caller replays a fixed cycle of requests; see addLaps.
	bodies := e.lapBodies(mixSearchHTTP)
	op := func(i int) error {
		_, err := hc.post("/v1/search", bodies[i])
		return err
	}
	lapLoop(len(bodies), e.sc.Warmup, nil, op)
	if err := res.addLaps(lapLoop(len(bodies), e.window, nil, op), len(bodies)); err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.finish(setups, rss)
	return res, nil
}

// --- serve-remote --------------------------------------------------------

// fleet is a set of spawned qshard processes and the topology naming them.
type fleet struct {
	shards   []*proc
	topology string
}

func (f *fleet) stop() {
	for _, p := range f.shards {
		p.stop()
	}
}

func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range f.shards {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// startFleet spawns one qshard per shard of the fixture's manifest with
// shipped default flags, waits until each answers a handshake, and writes
// the topology file.
func (e *env) startFleet() (*fleet, error) {
	m, err := shard.ReadManifest(e.fx.manifest())
	if err != nil {
		return nil, err
	}
	f := &fleet{topology: filepath.Join(e.tmpDir, "topology.json")}
	topo := querygraph.Topology{Version: 1}
	for _, sh := range m.Shards {
		addr, err := freeAddr()
		if err != nil {
			f.stop()
			return nil, err
		}
		p, err := spawnServer(e.tmpDir, filepath.Join(e.binDir, "qshard"), "-load", filepath.Join(e.fx.shardDir(), sh.Path), "-addr", addr)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.shards = append(f.shards, p)
		topo.Shards = append(topo.Shards, querygraph.TopologyShard{ID: sh.ID, Addrs: []string{addr}})
	}
	for i, p := range f.shards {
		addr := topo.Shards[i].Addrs[0]
		if err := waitReady(p, readyTimeout, func() error {
			conn, err := rpc.Dial(addr, time.Second)
			if err != nil {
				return err
			}
			defer conn.Close()
			_, err = conn.Do(rpc.OpHealthz, nil, time.Now().Add(time.Second), 0)
			return err
		}); err != nil {
			f.stop()
			return nil, err
		}
	}
	if err := writeJSON(f.topology, topo); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func runServeRemote(e *env) (*WorkloadResult, error) {
	ctx := context.Background()
	res := newWorkloadResult()
	var (
		fl     *fleet
		remote *querygraph.Remote
		setups []float64
	)
	teardown := func() {
		if remote != nil {
			remote.Close()
		}
		if fl != nil {
			fl.stop()
		}
		remote, fl = nil, nil
	}
	defer teardown()
	for i := 0; i < setupRuns; i++ {
		teardown()
		start := time.Now()
		var err error
		if fl, err = e.startFleet(); err != nil {
			return nil, err
		}
		if remote, err = querygraph.OpenTopology(fl.topology); err != nil {
			return nil, err
		}
		if _, err := remote.Search(ctx, e.gateQ[0], rankDepth); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	got, err := collect(ctx, remote, e.gateQ, e.gateKW)
	if err != nil {
		return nil, err
	}
	if err := e.applyGate(ctx, res, got); err != nil {
		return nil, err
	}

	// The hot keywords are expanded once before the window, so inside it
	// every expansion is a hit in the serving shard's cache.
	hot := e.fx.Inputs.Keywords[:min(e.sc.HotKeywords, len(e.fx.Inputs.Keywords))]
	if _, err := remote.ExpandAll(ctx, hot, querygraph.BatchOptions{}); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.o.seed))
	type remoteOp struct {
		expand bool
		text   string
	}
	// Exact shares, seeded strings and order: see queryPools.lap.
	lap := make([]remoteOp, 0, e.sc.LapOps)
	for _, q := range e.pools.entities(rng, e.sc.LapOps*remoteSearchShare/100) {
		lap = append(lap, remoteOp{text: q})
	}
	for len(lap) < e.sc.LapOps {
		lap = append(lap, remoteOp{expand: true, text: hot[rng.Intn(len(hot))]})
	}
	rng.Shuffle(len(lap), func(i, j int) { lap[i], lap[j] = lap[j], lap[i] })
	var dst []querygraph.Result
	op := func(i int) error {
		r := lap[i]
		if r.expand {
			_, err := querygraph.ExpandRequest{Keywords: r.text, K: rankDepth}.Do(ctx, remote)
			return err
		}
		rs, err := remote.SearchInto(ctx, r.text, rankDepth, dst)
		dst = rs
		return err
	}
	lapLoop(len(lap), e.sc.Warmup, nil, op)
	if err := res.addLaps(lapLoop(len(lap), e.window, nil, op), len(lap)); err != nil {
		return nil, err
	}
	res.Diagnostics["core.cache_hit_rate"] = Metric{Value: remote.CacheStats().HitRate(), Unit: "ratio"}
	rss, err := fl.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.finish(setups, rss)
	return res, nil
}

// --- in-process workloads ------------------------------------------------

// childSpec tells a measuring child what to run. The child re-derives the
// query strings from the fixture and the seed, exactly as the parent does.
type childSpec struct {
	Workload   string        `json:"workload"`
	FixtureDir string        `json:"fixture_dir"`
	TmpDir     string        `json:"tmp_dir"`
	Scale      scale         `json:"scale"`
	Seed       int64         `json:"seed"`
	Window     time.Duration `json:"window"`
	// SetupOnly stops the child after its first successful request: the
	// parent uses such children for the extra set-up samples, so the
	// measuring child's peak memory holds one set-up only.
	SetupOnly bool `json:"setup_only"`
}

type childOut struct {
	SetupS    float64         `json:"setup_s"`
	PeakRSSMB float64         `json:"peak_rss_mb"`
	Answers   answers         `json:"answers"`
	Result    *WorkloadResult `json:"result"`
}

// runInProcess runs an in-process workload in measuring children of this
// binary, which hold no fixture-generation or reference-client memory.
func runInProcess(name string) func(*env) (*WorkloadResult, error) {
	return func(e *env) (*WorkloadResult, error) { return e.runChildWorkload(name) }
}

func (e *env) runChildWorkload(name string) (*WorkloadResult, error) {
	ctx := context.Background()
	var (
		out    childOut
		setups []float64
	)
	for i := 0; i < setupRuns; i++ {
		out = childOut{}
		spec := childSpec{Workload: name, FixtureDir: e.fx.Dir, TmpDir: e.tmpDir, Scale: e.sc, Seed: e.o.seed,
			Window: e.window, SetupOnly: i < setupRuns-1}
		if err := runChild("workload", spec, &out); err != nil {
			return nil, err
		}
		setups = append(setups, out.SetupS)
	}
	res := out.Result
	if err := e.applyGate(ctx, res, out.Answers); err != nil {
		return nil, err
	}
	res.finish(setups, out.PeakRSSMB)
	return res, nil
}

// copyDir copies the regular files of src into dst (created if needed).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		err = writeFileWith(filepath.Join(dst, ent.Name()), func(w io.Writer) error {
			_, err := io.Copy(w, in)
			return err
		})
		in.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
