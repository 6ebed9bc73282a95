package querygraph

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/querygraph/querygraph/internal/cycles"
	"github.com/querygraph/querygraph/internal/graph"
)

// testClient builds one small world per test binary; the client is
// read-only afterwards (except for its internal cache, which is safe for
// concurrent use).
var (
	clientOnce sync.Once
	testC      *Client
)

func client(t *testing.T) *Client {
	t.Helper()
	clientOnce.Do(func() {
		cfg := DefaultWorldConfig()
		cfg.Topics = 8
		cfg.ArticlesPerTopic = 12
		cfg.DocsPerTopic = 20
		cfg.Queries = 10
		cfg.NoiseVocab = 80
		w, err := GenerateWorld(cfg)
		if err != nil {
			panic(err)
		}
		c, err := Build(w)
		if err != nil {
			panic(err)
		}
		testC = c
	})
	return testC
}

func TestOpenReaderBadSnapshot(t *testing.T) {
	_, err := OpenReader(strings.NewReader("definitely not a snapshot"))
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("err = %v, want ErrBadSnapshot", err)
	}
	// Truncated but correctly-prefixed bytes are also a bad snapshot.
	c := client(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = OpenReader(bytes.NewReader(buf.Bytes()[:buf.Len()/2]))
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncated snapshot err = %v, want ErrBadSnapshot", err)
	}
	// So is one saved under another engine configuration: mu 1234 in the
	// meta section, which follows the 10-byte header as tag 'M', length 11,
	// payload, checksum.
	other := bytes.Clone(buf.Bytes())
	meta := other[12:23]
	binary.LittleEndian.PutUint64(meta, math.Float64bits(1234))
	binary.LittleEndian.PutUint32(other[23:], crc32.ChecksumIEEE(meta))
	_, err = OpenReader(bytes.NewReader(other))
	if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "meta section: engine configuration") {
		t.Fatalf("mu 1234 snapshot err = %v, want ErrBadSnapshot naming the engine configuration", err)
	}
}

func TestOpenMissingFilePassesThroughOSError(t *testing.T) {
	_, err := Open("/definitely/not/a/real/path.qgs")
	if err == nil || errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("err = %v, want a plain file-system error", err)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want os.ErrNotExist", err)
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	ctx := context.Background()
	c := client(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(loaded.Queries()), len(c.Queries()); got != want {
		t.Fatalf("loaded %d benchmark queries, want %d", got, want)
	}
	q := c.Queries()[0]
	r1, err := c.Search(ctx, q.Keywords, MaxRank)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := loaded.Search(ctx, q.Keywords, MaxRank)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("loaded client ranks differently:\nbuilt:  %v\nloaded: %v", r1, r2)
	}
}

// TestPreCancelledContext is the acceptance contract: a Client call with
// an already-cancelled context returns ctx.Err() without running the
// pipeline.
func TestPreCancelledContext(t *testing.T) {
	c := client(t)
	q := c.Queries()[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	before := c.CacheStats()
	calls := []struct {
		name string
		run  func() error
	}{
		{"Search", func() error { _, err := c.Search(ctx, q.Keywords, 5); return err }},
		{"SearchAll", func() error { _, err := searchAll(ctx, c, []string{q.Keywords}, 5, BatchOptions{}); return err }},
		{"Expand", func() error { _, err := c.Expand(ctx, q.Keywords); return err }},
		{"ExpandAll", func() error { _, err := c.ExpandAll(ctx, []string{q.Keywords}, BatchOptions{}); return err }},
		{"SearchExpansion", func() error { _, _, err := c.SearchExpansion(ctx, &Expansion{Keywords: q.Keywords}, 5); return err }},
		{"SearchExpansions", func() error { _, err := searchExpansions(ctx, c, nil, 5, BatchOptions{}); return err }},
		{"Evaluate", func() error { _, _, err := c.Evaluate(ctx, q.Keywords, nil, q.Relevant); return err }},
		{"GroundTruth", func() error { _, err := c.GroundTruth(ctx, q, GroundTruthOptions{}); return err }},
		{"GroundTruths", func() error { _, err := c.GroundTruths(ctx, c.Queries(), GroundTruthOptions{}); return err }},
		{"Analyze", func() error { _, err := c.Analyze(ctx, AnalyzeOptions{}); return err }},
		{"CompareExpanders", func() error { _, err := c.CompareExpanders(ctx, AblationOptions{}); return err }},
		{"MineCycles", func() error { _, err := c.MineCycles(ctx, &GroundTruth{}); return err }},
	}
	for _, call := range calls {
		if err := call.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", call.name, err)
		}
	}
	after := c.CacheStats()
	if before != after {
		t.Errorf("pre-cancelled calls touched the expansion cache: %+v -> %+v", before, after)
	}
}

func TestSearchInvalidQuery(t *testing.T) {
	c := client(t)
	ctx := context.Background()
	search := func(q string) func() error {
		return func() error { _, err := c.Search(ctx, q, 5); return err }
	}
	for _, call := range []struct {
		name string
		run  func() error
	}{
		{"Search unclosed #combine", search("#combine(unclosed")},
		{"Search unclosed #1", search("#1(")},
		{"Search empty", search("")},
		{"SearchAll with one bad query", func() error {
			_, err := searchAll(ctx, c, []string{"fine", "#combine("}, 5, BatchOptions{})
			return err
		}},
		// A ground truth without a query graph is no query to mine or draw.
		{"MineCycles nil ground truth", func() error { _, err := c.MineCycles(ctx, nil); return err }},
		{"MineCycles empty ground truth", func() error { _, err := c.MineCycles(ctx, &GroundTruth{}); return err }},
		{"WriteQueryGraphDOT nil ground truth", func() error { return c.WriteQueryGraphDOT(io.Discard, nil, "q") }},
		{"WriteQueryGraphDOT empty ground truth", func() error { return c.WriteQueryGraphDOT(io.Discard, &GroundTruth{}, "q") }},
	} {
		if err := call.run(); !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("%s: err = %v, want ErrInvalidQuery", call.name, err)
		}
	}
}

// TestSearchAllMatchesSequentialOrder: a batch ranks every query exactly
// as Search does, in input order, at any worker count; an empty batch is
// an empty answer, not an error.
func TestSearchAllMatchesSequentialOrder(t *testing.T) {
	c := client(t)
	ctx := context.Background()
	var queries []string
	for _, q := range c.Queries() {
		queries = append(queries, q.Keywords, q.Keywords+" "+q.Keywords)
	}
	want := make([][]Result, len(queries))
	for i, q := range queries {
		rs, err := c.Search(ctx, q, MaxRank)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rs
	}
	for _, workers := range []int{0, 1, 3} {
		got, err := searchAll(ctx, c, queries, MaxRank, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: batch results differ from sequential", workers)
		}
	}
	if out, err := searchAll(ctx, c, nil, MaxRank, BatchOptions{}); err != nil || out == nil || len(out) != 0 {
		t.Fatalf("empty batch = %#v, %v; want an empty non-nil answer", out, err)
	}
}

// TestSearchAllEmptyResultContract: a query that matches nothing keeps its
// slot as an empty non-nil ranking, as Search answers it.
func TestSearchAllEmptyResultContract(t *testing.T) {
	c := client(t)
	out, err := searchAll(context.Background(), c, []string{c.Queries()[0].Keywords, "zzzunknownterm"}, MaxRank, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out[1] == nil || len(out[1]) != 0 {
		t.Fatalf("no-match batch entry = %#v, want empty non-nil slice", out[1])
	}
}

// TestSearchAllErrorPropagation: a batch of searches reports the first
// bad index, at any worker count, and no rankings.
func TestSearchAllErrorPropagation(t *testing.T) {
	c := client(t)
	good := c.Queries()[0].Keywords
	queries := []string{good, good, "#combine(", good, "#1(", good}
	for _, workers := range []int{1, 4} {
		rss, err := searchAll(context.Background(), c, queries, MaxRank, BatchOptions{Workers: workers})
		if rss != nil || !errors.Is(err, ErrInvalidQuery) || !strings.HasPrefix(err.Error(), "query 2: ") {
			t.Errorf("workers=%d: SearchAll = %v, %v; want no rankings and query 2's ErrInvalidQuery", workers, rss, err)
		}
	}
}

// TestBatchItemPanicIsAnError: an item that panics on a batch worker — a
// nil expansion here, contained by its request's envelope — fails its
// batch with an internal error naming it, instead of ending the process,
// and the client serves on.
func TestBatchItemPanicIsAnError(t *testing.T) {
	c := client(t)
	ctx := context.Background()
	exp, err := c.Expand(ctx, c.Queries()[0].Keywords)
	if err != nil {
		t.Fatal(err)
	}
	rss, err := searchExpansions(ctx, c, []*Expansion{exp, nil}, MaxRank, BatchOptions{})
	if rss != nil || ErrorClass(err) != "internal" || !strings.HasPrefix(err.Error(), "expansion 1: ") ||
		!strings.Contains(err.Error(), "panicked") {
		t.Fatalf("SearchExpansions with a nil expansion = %v, %v; want an internal error naming expansion 1", rss, err)
	}
	if _, err := searchExpansions(ctx, c, []*Expansion{exp}, MaxRank, BatchOptions{}); err != nil {
		t.Errorf("batch after the panic: %v", err)
	}
}

func TestExpandOptionValidation(t *testing.T) {
	c := client(t)
	ctx := context.Background()
	kw := c.Queries()[0].Keywords
	bad := []struct {
		name string
		opt  ExpandOption
	}{
		{"inverted band", WithCategoryRatioBand(0.6, 0.2)},
		{"band above 1", WithCategoryRatioBand(0.2, 1.5)},
		{"negative band", WithCategoryRatioBand(-0.1, 0.5)},
		{"cycle len too small", WithMaxCycleLen(1)},
		{"cycle len too large", WithMaxCycleLen(9)},
		{"zero radius", WithRadius(0)},
		{"zero neighborhood", WithMaxNeighborhood(0)},
		{"neighborhood above the miner's bound", WithMaxNeighborhood(4097)},
		{"density above 1", WithMinDensity(1.5)},
		{"negative density", WithMinDensity(-0.5)},
		{"zero features", WithMaxFeatures(0)},
		{"NaN band floor", WithCategoryRatioBand(math.NaN(), 0.5)},
		{"NaN band ceiling", WithCategoryRatioBand(0.2, math.NaN())},
		{"NaN density", WithMinDensity(math.NaN())},
	}
	for _, tc := range bad {
		if _, err := c.Expand(ctx, kw, tc.opt); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: err = %v, want ErrInvalidOptions", tc.name, err)
		}
		if _, err := c.ExpandAll(ctx, []string{kw}, BatchOptions{}, tc.opt); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s (batch): err = %v, want ErrInvalidOptions", tc.name, err)
		}
	}
	// The neighborhood bound holds on a Pool too, and the bound itself is a
	// valid cap on both.
	pool, _ := shardedPool(t, c, 2)
	defer pool.Close()
	for _, be := range []Backend{c, pool} {
		if _, err := be.Expand(ctx, kw, WithMaxNeighborhood(4097)); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%T: neighborhood 4097: err = %v, want ErrInvalidOptions", be, err)
		}
		if _, err := be.Expand(ctx, kw, WithMaxNeighborhood(4096)); err != nil {
			t.Errorf("%T: neighborhood 4096: %v", be, err)
		}
	}
}

// TestExpandUnboundedRadius: Validate accepts WithRadius(math.MaxInt), and
// it must mean what a radius beyond the graph's diameter means, not a ball
// of the query articles alone (the ball's level test once wrapped there).
func TestExpandUnboundedRadius(t *testing.T) {
	c := client(t)
	ctx := context.Background()
	features := 0
	for _, q := range c.Queries() {
		far, err := c.Expand(ctx, q.Keywords, WithRadius(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		unbounded, err := c.Expand(ctx, q.Keywords, WithRadius(math.MaxInt))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(unbounded, far) {
			t.Errorf("%q: radius math.MaxInt expands to %v (%d cycles), radius 2^20 to %v (%d cycles)",
				q.Keywords, unbounded.FeatureTitles(), unbounded.CyclesConsidered, far.FeatureTitles(), far.CyclesConsidered)
		}
		features += len(far.Features)
	}
	if features == 0 {
		t.Fatal("no query expanded to anything: the test compares nothing")
	}
}

// TestExplicitBandSurvivesNormalization pins the satellite fix: an
// explicit all-zero category-ratio band used to be indistinguishable from
// "unset" and was silently replaced by the paper band; through the public
// options it survives as given.
func TestExplicitBandSurvivesNormalization(t *testing.T) {
	got, err := normalizeExpandOptions([]ExpandOption{WithCategoryRatioBand(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if got.MinCategoryRatio != 0 || got.MaxCategoryRatio != 0 {
		t.Fatalf("band = [%g, %g], want explicit [0, 0]", got.MinCategoryRatio, got.MaxCategoryRatio)
	}
	// [0, 0.5] — the half-explicit case — also survives.
	got, err = normalizeExpandOptions([]ExpandOption{WithCategoryRatioBand(0, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if got.MinCategoryRatio != 0 || got.MaxCategoryRatio != 0.5 {
		t.Fatalf("band = [%g, %g], want [0, 0.5]", got.MinCategoryRatio, got.MaxCategoryRatio)
	}
	// No options at all resolve to the paper defaults, two-cycles kept.
	got, err = normalizeExpandOptions(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.MinCategoryRatio != 0.2 || got.MaxCategoryRatio != 0.5 || !got.KeepTwoCycles {
		t.Fatalf("defaults = %+v, want the paper band [0.2, 0.5] with two-cycles kept", got)
	}
	// WithMinDensity(0) disables the filter rather than re-enabling the
	// 0.25 default.
	got, err = normalizeExpandOptions([]ExpandOption{WithMinDensity(0)})
	if err != nil {
		t.Fatal(err)
	}
	if got.MinDensity > 0 {
		t.Fatalf("MinDensity = %g after WithMinDensity(0), want the filter disabled", got.MinDensity)
	}
}

func TestExpandAndSearchExpansion(t *testing.T) {
	c := client(t)
	ctx := context.Background()
	for _, q := range c.Queries() {
		exp, err := c.Expand(ctx, q.Keywords)
		if err != nil {
			t.Fatalf("Expand(%q): %v", q.Keywords, err)
		}
		if exp.Keywords != q.Keywords {
			t.Fatalf("expansion echoes %q, want %q", exp.Keywords, q.Keywords)
		}
		rs, ok, err := c.SearchExpansion(ctx, exp, MaxRank)
		if err != nil {
			t.Fatalf("SearchExpansion(%q): %v", q.Keywords, err)
		}
		if ok && len(rs) == 0 {
			t.Errorf("SearchExpansion(%q): ok with zero results", q.Keywords)
		}
	}
}

func TestExpandAllMatchesExpand(t *testing.T) {
	c := client(t)
	ctx := context.Background()
	keywords := make([]string, 0, len(c.Queries()))
	for _, q := range c.Queries() {
		keywords = append(keywords, q.Keywords)
	}
	batch, err := c.ExpandAll(ctx, keywords, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, kw := range keywords {
		one, err := c.Expand(ctx, kw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i].FeatureTitles(), one.FeatureTitles()) {
			t.Errorf("batch[%d] features diverge from single expand", i)
		}
	}
}

func TestSearchExpansionsAlignment(t *testing.T) {
	c := client(t)
	ctx := context.Background()
	qs := c.Queries()
	exps := make([]*Expansion, 0, len(qs)+1)
	for _, q := range qs[:3] {
		exp, err := c.Expand(ctx, q.Keywords)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, exp)
	}
	// An unexpandable entry must keep its slot (nil ranking), not shift
	// the batch.
	exps = append(exps, &Expansion{Keywords: ""})
	rs, err := searchExpansions(ctx, c, exps, MaxRank, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(exps) {
		t.Fatalf("got %d rankings for %d expansions", len(rs), len(exps))
	}
	if rs[len(rs)-1] != nil {
		t.Errorf("unexpandable entry got a ranking")
	}
	for i := range exps[:3] {
		single, ok, err := c.SearchExpansion(ctx, exps[i], MaxRank)
		if err != nil || !ok {
			t.Fatalf("single search %d: ok=%v err=%v", i, ok, err)
		}
		if !reflect.DeepEqual(rs[i], single) {
			t.Errorf("batch ranking %d diverges from single", i)
		}
	}
}

func TestAnalyzeNoBenchmark(t *testing.T) {
	c := client(t)
	// The same system, served as a client whose snapshot carried no benchmark.
	bare := newClient(c.view().sys(), nil, clientConfig{})
	ctx := context.Background()
	if _, err := bare.Analyze(ctx, AnalyzeOptions{}); !errors.Is(err, ErrNoBenchmark) {
		t.Errorf("Analyze err = %v, want ErrNoBenchmark", err)
	}
	if _, err := bare.CompareExpanders(ctx, AblationOptions{}); !errors.Is(err, ErrNoBenchmark) {
		t.Errorf("CompareExpanders err = %v, want ErrNoBenchmark", err)
	}
}

func TestGroundTruthAndCycles(t *testing.T) {
	c := client(t)
	ctx := context.Background()
	gt, err := c.GroundTruth(ctx, c.Queries()[0], GroundTruthOptions{Seed: 1, MaxIterations: 8, MaxEvaluations: 800})
	if err != nil {
		t.Fatal(err)
	}
	if gt.Graph == nil || gt.Graph.Size() == 0 {
		t.Fatal("ground truth carries no query graph")
	}
	cs, err := c.MineCycles(ctx, gt)
	if err != nil {
		t.Fatal(err)
	}
	for _, cy := range cs {
		if cy.Length < 2 || cy.Length > 5 {
			t.Errorf("cycle length %d outside [2, 5]", cy.Length)
		}
		if len(cy.Titles) != cy.Length || len(cy.IsCategory) != cy.Length {
			t.Errorf("cycle metadata misaligned: %d titles / %d flags for length %d",
				len(cy.Titles), len(cy.IsCategory), cy.Length)
		}
		for _, title := range cy.Titles {
			if title == "" {
				t.Error("cycle node with empty title")
			}
		}
	}
	var dot bytes.Buffer
	if err := c.WriteQueryGraphDOT(&dot, gt, "q0"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "q0") {
		t.Error("DOT output misses the graph name")
	}
}

// TestQueryGraphOfAnotherWorld is the regression test of MineCycles and
// WriteQueryGraphDOT naming G(q)'s nodes from the Client asked instead of
// from the snapshot the ground truth was built on: a ground truth of the
// default world, handed to a Client of a smaller one, came back with the
// smaller world's names, or blank ones where it has no such node.
func TestQueryGraphOfAnotherWorld(t *testing.T) {
	ctx := context.Background()
	build := func(cfg WorldConfig) *Client {
		w, err := GenerateWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Build(w)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	own := build(DefaultWorldConfig())
	small := DefaultWorldConfig()
	small.Topics = 3
	other := build(small)
	gt, err := own.GroundTruth(ctx, own.Queries()[0], GroundTruthOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := own.MineCycles(ctx, gt)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || want[0].Titles[0] == "" {
		t.Fatalf("the ground truth's own Client mines %+v: the test would pass on any MineCycles", want)
	}
	got, err := other.MineCycles(ctx, gt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MineCycles on another world's Client:\n got %+v\nwant %+v", got, want)
	}
	var gotDOT, wantDOT bytes.Buffer
	if err := own.WriteQueryGraphDOT(&wantDOT, gt, "q"); err != nil {
		t.Fatal(err)
	}
	if err := other.WriteQueryGraphDOT(&gotDOT, gt, "q"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotDOT.Bytes(), wantDOT.Bytes()) {
		t.Errorf("WriteQueryGraphDOT on another world's Client:\n%s\nwant\n%s", gotDOT.Bytes(), wantDOT.Bytes())
	}
}

// TestMineCyclesOrder pins what MineCycles returns, element by element:
// the oracle's cycles of the query graph through a query article — the
// sorted cycles.Enumerate, each measured by cycles.Measure.
func TestMineCyclesOrder(t *testing.T) {
	c := client(t)
	ctx := context.Background()
	snap := c.view().sys().Snapshot
	total := 0
	for _, q := range c.Queries()[:6] {
		gt, err := c.GroundTruth(ctx, q, GroundTruthOptions{Seed: 1, MaxIterations: 8, MaxEvaluations: 800})
		if err != nil {
			t.Fatal(err)
		}
		sub := snap.Graph().Induce(gt.Graph.Nodes)
		seeds := []graph.NodeID{}
		for _, qa := range gt.QueryArticles {
			if sid, ok := sub.ToSub[qa]; ok {
				seeds = append(seeds, sid)
			}
		}
		oracle, err := cycles.Enumerate(sub.Graph, seeds, 5, graph.ExcludeRedirects)
		if err != nil {
			t.Fatal(err)
		}
		want := []Cycle{}
		for _, cy := range oracle {
			m, err := cycles.Measure(sub.Graph, cy, graph.ExcludeRedirects)
			if err != nil {
				t.Fatal(err)
			}
			w := Cycle{Length: m.Length, CategoryRatio: m.CategoryRatio, ExtraEdgeDensity: m.ExtraEdgeDensity}
			for _, n := range cy.Nodes {
				w.Titles = append(w.Titles, snap.Name(sub.ToParent[n]))
				w.IsCategory = append(w.IsCategory, sub.Kind(n) == graph.Category)
			}
			for _, n := range cycles.AppendArticles(nil, sub.Graph, cy) {
				w.Articles = append(w.Articles, sub.ToParent[n])
			}
			want = append(want, w)
		}
		got, err := c.MineCycles(ctx, gt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %d: MineCycles differs from the oracle:\n got %+v\nwant %+v", q.ID, got, want)
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatal("no query graph has a cycle: the test would pass on any MineCycles")
	}
}

// TestMineCyclesUnlinkableKeywords is the regression test of MineCycles
// yielding every cycle of the query graph when the keywords link to no
// article: a ground truth built from the relevant documents alone has a
// query graph (the expansion articles and their categories) but no query
// article, so no cycle contains one, for MineCycles and Analyze alike.
func TestMineCyclesUnlinkableKeywords(t *testing.T) {
	ctx := context.Background()
	served := client(t)
	unlinkable := make([]Query, len(served.Queries()))
	for i, q := range served.Queries() {
		q.Keywords = "qqqq zzzz"
		unlinkable[i] = q
	}
	c := newClient(served.view().sys(), unlinkable, clientConfig{})
	gtOpts := GroundTruthOptions{Seed: 1, MaxIterations: 8, MaxEvaluations: 800}

	graphs := 0
	for _, q := range unlinkable {
		gt, err := c.GroundTruth(ctx, q, gtOpts)
		if err != nil {
			t.Fatal(err)
		}
		if len(gt.QueryArticles) != 0 {
			t.Fatalf("query %d: %q links to %v", q.ID, q.Keywords, gt.QueryArticles)
		}
		if gt.Graph.Size() > 0 {
			graphs++
		}
		cs, err := c.MineCycles(ctx, gt)
		if err != nil {
			t.Fatal(err)
		}
		if len(cs) != 0 {
			t.Errorf("query %d: %d cycles through a query article, and there is no query article", q.ID, len(cs))
		}
	}
	if graphs == 0 {
		t.Fatal("no ground truth has a query graph: the test would pass on any MineCycles")
	}
	a, err := c.Analyze(ctx, AnalyzeOptions{GroundTruth: gtOpts})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != 0 {
		t.Errorf("Analyze counts %d cycles through query articles that do not exist", a.TotalCycles)
	}
}

func TestLinkAndEvaluate(t *testing.T) {
	c := client(t)
	ctx := context.Background()
	q := c.Queries()[0]
	ents := c.Link(q.Keywords)
	if len(ents) == 0 {
		t.Fatalf("Link(%q) found no entities", q.Keywords)
	}
	ids := make([]NodeID, len(ents))
	for i, e := range ents {
		ids[i] = e.ID
		if e.Title == "" || c.Title(e.ID) != e.Title {
			t.Errorf("entity %v title mismatch", e.ID)
		}
	}
	score, ranked, err := c.Evaluate(ctx, q.Keywords, ids, q.Relevant)
	if err != nil {
		t.Fatal(err)
	}
	if score < 0 || score > 1 {
		t.Errorf("objective %g outside [0, 1]", score)
	}
	if len(ranked) > MaxRank {
		t.Errorf("ranked %d docs, want at most %d", len(ranked), MaxRank)
	}
}
