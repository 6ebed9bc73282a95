package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/querygraph/querygraph/internal/cycles"
	"github.com/querygraph/querygraph/internal/eval"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/groundtruth"
	"github.com/querygraph/querygraph/internal/stats"
	"github.com/querygraph/querygraph/internal/synth"
)

// testWorld builds one small world per test binary (generation plus
// indexing is the expensive part; the world is read-only afterwards).
var (
	worldOnce sync.Once
	world     *synth.World
	system    *System
)

func testSystem(t *testing.T) (*System, *synth.World) {
	t.Helper()
	worldOnce.Do(func() {
		cfg := synth.Default()
		cfg.Topics = 8
		cfg.ArticlesPerTopic = 12
		cfg.DocsPerTopic = 20
		cfg.Queries = 10
		cfg.NoiseVocab = 80
		w, err := synth.Generate(cfg)
		if err != nil {
			panic(err)
		}
		s, err := FromWorld(w)
		if err != nil {
			panic(err)
		}
		world = w
		system = s
	})
	return system, world
}

func gtConfig() GroundTruthConfig {
	return GroundTruthConfig{
		Search: groundtruth.Config{Seed: 42, MaxIterations: 12, MaxEvaluations: 1500},
	}
}

func TestNewSystemValidation(t *testing.T) {
	_, w := testSystem(t)
	if _, err := NewSystem(nil, w.Collection); err == nil {
		t.Error("nil snapshot should fail")
	}
	if _, err := NewSystem(w.Snapshot, nil); err == nil {
		t.Error("nil collection should fail")
	}
}

func TestLinkKeywordsFindsEntities(t *testing.T) {
	s, w := testSystem(t)
	for _, q := range w.Queries[:4] {
		got := s.LinkKeywords(q.Keywords)
		set := make(map[graph.NodeID]bool)
		for _, id := range got {
			set[id] = true
		}
		for _, want := range q.Entities {
			if !set[want] {
				t.Errorf("query %d: entity %q missing from L(q.k)", q.ID, w.Snapshot.Name(want))
			}
		}
	}
}

func TestLinkDocuments(t *testing.T) {
	s, w := testSystem(t)
	q := w.Queries[0]
	arts, err := s.LinkDocuments(q.Relevant)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) == 0 {
		t.Fatal("L(q.D) is empty")
	}
	for i := 1; i < len(arts); i++ {
		if arts[i-1] >= arts[i] {
			t.Fatal("L(q.D) not sorted/unique")
		}
	}
	if _, err := s.LinkDocuments([]int32{99999}); err == nil {
		t.Error("unknown doc should fail")
	}
}

func TestEvaluateArticlesBaseline(t *testing.T) {
	s, w := testSystem(t)
	q := w.Queries[0]
	relevant := eval.NewRelevance(q.Relevant)
	arts := s.LinkKeywords(q.Keywords)
	score, ranked, err := s.EvaluateArticles(q.Keywords, arts, relevant)
	if err != nil {
		t.Fatal(err)
	}
	if score < 0 || score > 1 {
		t.Errorf("O = %g out of range", score)
	}
	if len(ranked) == 0 {
		t.Error("no documents retrieved for a topical query")
	}
	if len(ranked) > MaxRank {
		t.Errorf("retrieved %d > MaxRank", len(ranked))
	}
	// No articles and no keywords: zero by definition.
	zero, _, err := s.EvaluateArticles("", nil, relevant)
	if err != nil || zero != 0 {
		t.Errorf("empty evaluation = %g, %v", zero, err)
	}
}

func TestBuildGroundTruth(t *testing.T) {
	s, w := testSystem(t)
	q := QueriesFromWorld(w)[0]
	gt, err := s.BuildGroundTruth(context.Background(), q, gtConfig())
	if err != nil {
		t.Fatal(err)
	}
	if gt.Score < gt.Baseline {
		t.Errorf("X(q) score %g below baseline %g", gt.Score, gt.Baseline)
	}
	// Expansion must be a subset of the candidates minus query articles.
	candSet := make(map[graph.NodeID]bool)
	for _, c := range gt.Candidates {
		candSet[c] = true
	}
	for _, e := range gt.Expansion {
		if !candSet[e] {
			t.Errorf("expansion article %d not in L(q.D)", e)
		}
		for _, qa := range gt.QueryArticles {
			if e == qa {
				t.Errorf("query article %d selected as expansion", e)
			}
		}
	}
	for _, r := range eval.DefaultRanks {
		p, ok := gt.PrecisionAt[r]
		if !ok || p < 0 || p > 1 {
			t.Errorf("P@%d = %g, ok=%v", r, p, ok)
		}
	}
	if gt.Graph == nil || gt.Graph.Size() == 0 {
		t.Error("query graph missing")
	}
}

func TestBuildAllGroundTruthsDeterministicAndOrdered(t *testing.T) {
	s, w := testSystem(t)
	queries := QueriesFromWorld(w)[:4]
	a, err := s.BuildAllGroundTruths(context.Background(), queries, gtConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.BuildAllGroundTruths(context.Background(), queries, gtConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(queries) {
		t.Fatalf("got %d ground truths", len(a))
	}
	for i := range a {
		if a[i].Query.ID != queries[i].ID {
			t.Errorf("order broken at %d", i)
		}
		if !reflect.DeepEqual(a[i].Expansion, b[i].Expansion) {
			t.Errorf("query %d: nondeterministic expansion %v vs %v",
				queries[i].ID, a[i].Expansion, b[i].Expansion)
		}
		if a[i].Score != b[i].Score {
			t.Errorf("query %d: nondeterministic score", queries[i].ID)
		}
	}
}

func TestAnalyzeProducesAllExperiments(t *testing.T) {
	s, w := testSystem(t)
	queries := QueriesFromWorld(w)[:6]
	gts, err := s.BuildAllGroundTruths(context.Background(), queries, gtConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Analyze(context.Background(), gts, AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Table 2 has the four rank summaries within [0,1].
	for _, r := range eval.DefaultRanks {
		sum, ok := a.Table2[r]
		if !ok {
			t.Fatalf("Table2 missing rank %d", r)
		}
		if sum.Min < 0 || sum.Max > 1 {
			t.Errorf("Table2[%d] out of range: %+v", r, sum)
		}
	}
	// Table 3 fractions within [0,1]; categories dominate articles on
	// average (the paper's core observation).
	if a.Table3.ArticleFrac.Mean+a.Table3.CategoryFrac.Mean < 0.99 {
		t.Errorf("article+category fractions should sum to ~1: %+v", a.Table3)
	}
	if a.Table3.CategoryFrac.Median <= a.Table3.ArticleFrac.Median {
		t.Errorf("categories should dominate the largest component: %+v vs %+v",
			a.Table3.CategoryFrac, a.Table3.ArticleFrac)
	}
	// Table 4 has all configs with precisions within [0,1].
	if len(a.Table4) != len(Table4Configs) {
		t.Fatalf("Table4 rows = %d", len(a.Table4))
	}
	for _, row := range a.Table4 {
		for r, p := range row.PrecisionAt {
			if p < 0 || p > 1 {
				t.Errorf("Table4[%s] P@%d = %g", row.Config.Label, r, p)
			}
		}
	}
	// Figures populated.
	if len(a.Fig6) == 0 {
		t.Error("no cycles found in any query graph")
	}
	for l, c := range a.Fig6 {
		if c < 0 || l < 2 || l > 5 {
			t.Errorf("Fig6[%d] = %g", l, c)
		}
	}
	for l, ratio := range a.Fig7a {
		if l < 3 || ratio < 0 || ratio > 1 {
			t.Errorf("Fig7a[%d] = %g", l, ratio)
		}
	}
	for l, d := range a.Fig7b {
		if l < 3 || d < 0 || d > 1 {
			t.Errorf("Fig7b[%d] = %g", l, d)
		}
	}
	if a.Text.MeanQueryGraphSize <= 0 || a.Text.ReciprocalLinkRatio <= 0 {
		t.Errorf("text facts = %+v", a.Text)
	}
	if a.TotalCycles == 0 {
		t.Error("TotalCycles = 0")
	}
}

// TestAnalyzeEvaluatesArticleSets is the regression test of Analyze
// counting the query articles twice: every mined cycle holds a query
// article, and the query a cycle is judged by is written from L(q.k) ∪ C,
// a set, so each title enters it once. Figure 5 and Table 4's all-lengths
// row must equal their definitions computed over sets, with Enumerate as
// the oracle of which cycles there are.
func TestAnalyzeEvaluatesArticleSets(t *testing.T) {
	s, w := testSystem(t)
	ctx := context.Background()
	gts, err := s.BuildAllGroundTruths(ctx, QueriesFromWorld(w)[:6], gtConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Analyze(ctx, gts, AnalysisConfig{})
	if err != nil {
		t.Fatal(err)
	}
	set := func(gt *GroundTruth, arts []graph.NodeID) []graph.NodeID {
		all := append(slices.Clone(gt.QueryArticles), arts...)
		slices.Sort(all)
		return slices.Compact(all)
	}
	contrib := map[int][]float64{}
	precision := map[int][]float64{} // Table 4's "2 & 3 & 4 & 5", per rank
	for _, gt := range gts {
		sub, relevant := s.Snapshot.Graph().Induce(gt.Graph.Nodes), eval.NewRelevance(gt.Query.Relevant)
		cs, err := cycles.Enumerate(sub.Graph, positions(sub.ToParent, gt.QueryArticles), 5, graph.ExcludeRedirects)
		if err != nil {
			t.Fatal(err)
		}
		var union []graph.NodeID
		for _, c := range cs {
			var arts []graph.NodeID
			for _, n := range cycles.AppendArticles(nil, sub.Graph, c) {
				arts = append(arts, sub.ToParent[n])
			}
			union = append(union, arts...)
			after, _, err := s.EvaluateArticles(gt.Query.Keywords, set(gt, arts), relevant)
			if err != nil {
				t.Fatal(err)
			}
			contrib[c.Len()] = append(contrib[c.Len()], eval.Contribution(gt.Baseline, after))
		}
		_, ranked, err := s.EvaluateArticles(gt.Query.Keywords, set(gt, union), relevant)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range eval.DefaultRanks {
			p, err := eval.PrecisionAtR(ranked, relevant, r)
			if err != nil {
				t.Fatal(err)
			}
			precision[r] = append(precision[r], p)
		}
	}
	if len(contrib) == 0 {
		t.Fatal("no query graph has a cycle: the test would pass on any Analyze")
	}
	for l, vs := range contrib {
		if got, want := a.Fig5[l], stats.Mean(vs); math.Abs(got-want) > 1e-9 {
			t.Errorf("Fig5[%d] = %.4f, want %.4f", l, got, want)
		}
	}
	all := a.Table4[len(a.Table4)-1]
	for r, vs := range precision {
		if got, want := all.PrecisionAt[r], stats.Mean(vs); math.Abs(got-want) > 1e-9 {
			t.Errorf("Table4[%s] P@%d = %.4f, want %.4f", all.Config.Label, r, got, want)
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	s, _ := testSystem(t)
	if _, err := s.Analyze(context.Background(), nil, AnalysisConfig{}); err == nil {
		t.Error("empty analysis should fail")
	}
}

func TestExpand(t *testing.T) {
	s, w := testSystem(t)
	q := w.Queries[0]
	exp, err := s.Expand(context.Background(), q.Keywords, DefaultExpanderOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.QueryArticles) == 0 {
		t.Fatal("no query articles linked")
	}
	if exp.CyclesConsidered == 0 {
		t.Error("no cycles considered")
	}
	inQuery := make(map[graph.NodeID]bool)
	for _, qa := range exp.QueryArticles {
		inQuery[qa] = true
	}
	seen := make(map[graph.NodeID]bool)
	for _, f := range exp.Features {
		if inQuery[f.Node] {
			t.Errorf("feature %q is a query article", f.Title)
		}
		if seen[f.Node] {
			t.Errorf("duplicate feature %q", f.Title)
		}
		seen[f.Node] = true
		if f.Title == "" {
			t.Error("feature without title")
		}
	}
	// Determinism.
	exp2, err := s.Expand(context.Background(), q.Keywords, DefaultExpanderOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exp.FeatureTitles(), exp2.FeatureTitles()) {
		t.Errorf("nondeterministic expansion: %v vs %v",
			exp.FeatureTitles(), exp2.FeatureTitles())
	}
}

func TestExpandRespectsMaxFeatures(t *testing.T) {
	s, w := testSystem(t)
	opts := DefaultExpanderOptions()
	opts.MaxFeatures = 2
	exp, err := s.Expand(context.Background(), w.Queries[1].Keywords, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Features) > 2 {
		t.Errorf("features = %d, cap ignored", len(exp.Features))
	}
}

func TestExpandUnknownKeywords(t *testing.T) {
	s, _ := testSystem(t)
	exp, err := s.Expand(context.Background(), "completely unknown gibberish terms", DefaultExpanderOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.QueryArticles) != 0 || len(exp.Features) != 0 {
		t.Errorf("expansion of unlinkable query = %+v", exp)
	}
}

func TestExpandInvalidOptions(t *testing.T) {
	s, w := testSystem(t)
	opts := DefaultExpanderOptions()
	opts.MinCategoryRatio = 0.9
	opts.MaxCategoryRatio = 0.1
	if _, err := s.Expand(context.Background(), w.Queries[0].Keywords, opts); err == nil {
		t.Error("inverted ratio band should fail")
	}
	// Nothing is defaulted: the zero value is an invalid configuration, not
	// a spelling of DefaultExpanderOptions.
	if _, err := s.Expand(context.Background(), w.Queries[0].Keywords, ExpanderOptions{}); err == nil {
		t.Error("zero-value options should fail, not be silently defaulted")
	}
}

// TestValidateRejectsNaN: a NaN in any of the filter's float bounds is an
// invalid configuration. Every comparison with NaN is false, so a NaN
// bound would pass every cycle, and a key holding it never equals itself:
// each request would run the pipeline and leave a cache entry no lookup
// can find. Expand refuses it before the cache.
func TestValidateRejectsNaN(t *testing.T) {
	_, w := testSystem(t)
	s, err := FromWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, tc := range []struct {
		field string
		set   func(*ExpanderOptions)
	}{
		{"MinCategoryRatio", func(o *ExpanderOptions) { o.MinCategoryRatio = nan }},
		{"MaxCategoryRatio", func(o *ExpanderOptions) { o.MaxCategoryRatio = nan }},
		{"MinDensity", func(o *ExpanderOptions) { o.MinDensity = nan }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			opts := DefaultExpanderOptions()
			tc.set(&opts)
			if err := opts.Validate(); err == nil {
				t.Fatalf("Validate accepted %s NaN", tc.field)
			}
			for i := 0; i < 3; i++ {
				if exp, err := s.Expand(context.Background(), w.Queries[0].Keywords, opts); exp != nil || err == nil {
					t.Fatalf("Expand with %s NaN = %v, %v; want an error", tc.field, exp, err)
				}
			}
			if st, runs := s.ExpandCacheStats(), s.expandCalls.Load(); st.Entries != 0 || st.Misses != 0 || runs != 0 {
				t.Errorf("Expand with %s NaN reached the cache or the pipeline: %+v, %d runs", tc.field, st, runs)
			}
		})
	}
}

func TestExpandImprovesRetrieval(t *testing.T) {
	// The headline behavior: averaged over queries, cycle-based expansion
	// must not hurt and should improve the objective.
	s, w := testSystem(t)
	var base, expd float64
	n := 0
	for _, q := range w.Queries {
		relevant := eval.NewRelevance(q.Relevant)
		qArts := s.LinkKeywords(q.Keywords)
		b, _, err := s.EvaluateArticles(q.Keywords, qArts, relevant)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := s.Expand(context.Background(), q.Keywords, DefaultExpanderOptions())
		if err != nil {
			t.Fatal(err)
		}
		arts := append([]graph.NodeID{}, qArts...)
		for _, f := range exp.Features {
			arts = append(arts, f.Node)
		}
		e, _, err := s.EvaluateArticles(q.Keywords, arts, relevant)
		if err != nil {
			t.Fatal(err)
		}
		base += b
		expd += e
		n++
	}
	base /= float64(n)
	expd /= float64(n)
	if expd < base {
		t.Errorf("expansion hurt retrieval: baseline %g, expanded %g", base, expd)
	}
	t.Logf("mean O: baseline %.4f, expanded %.4f", base, expd)
}

func TestExpandNaive(t *testing.T) {
	s, w := testSystem(t)
	exp, err := s.ExpandNaive(context.Background(), w.Queries[0].Keywords, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Features) == 0 {
		t.Error("naive expansion found nothing")
	}
	if len(exp.Features) > 5 {
		t.Error("cap ignored")
	}
	// Default cap applies for non-positive maxFeatures.
	exp, err = s.ExpandNaive(context.Background(), w.Queries[0].Keywords, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Features) > 10 {
		t.Error("default cap ignored")
	}
}

func TestExpansionQueryBuild(t *testing.T) {
	s, w := testSystem(t)
	exp, err := s.Expand(context.Background(), w.Queries[0].Keywords, DefaultExpanderOptions())
	if err != nil {
		t.Fatal(err)
	}
	node, ok, err := exp.Query(s)
	if err != nil || !ok {
		t.Fatalf("expanded query not buildable: %v", err)
	}
	unknown := &Expansion{Keywords: exp.Keywords, QueryArticles: []graph.NodeID{graph.NodeID(s.Snapshot.Graph().NumNodes())}}
	if _, _, err := unknown.Query(s); err == nil {
		t.Error("an expansion naming an article the graph does not have built a query")
	}
	rs, err := s.Engine.Search(node, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Error("expanded query retrieved nothing")
	}
}

func TestForEachQueryErrorPropagation(t *testing.T) {
	err := ForEach(context.Background(), 10, 3, func(i int) error {
		if i == 7 {
			return errTest
		}
		return nil
	})
	if err != errTest {
		t.Errorf("err = %v, want errTest", err)
	}
	if err := ForEach(context.Background(), 0, 3, func(int) error { return errTest }); err != nil {
		t.Error("zero tasks should not run fn")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }
