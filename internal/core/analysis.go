package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/querygraph/querygraph/internal/eval"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/querygraph"
	"github.com/querygraph/querygraph/internal/stats"
)

// Table4Configs are the cycle-length configurations of the paper's Table 4.
var Table4Configs = []Table4Config{
	{Label: "2", Lengths: []int{2}},
	{Label: "3", Lengths: []int{3}},
	{Label: "4", Lengths: []int{4}},
	{Label: "5", Lengths: []int{5}},
	{Label: "2 & 3", Lengths: []int{2, 3}},
	{Label: "2 & 3 & 4", Lengths: []int{2, 3, 4}},
	{Label: "2 & 3 & 4 & 5", Lengths: []int{2, 3, 4, 5}},
}

// Table4Config is one row spec of Table 4.
type Table4Config struct {
	Label   string
	Lengths []int
}

// Table4Row is one measured row of Table 4: average precision when the
// expansion features are the articles of cycles with the given lengths.
type Table4Row struct {
	Config      Table4Config
	PrecisionAt map[int]float64
}

// Table3Stats summarizes the largest-connected-component measurements over
// all queries (the columns of Table 3).
type Table3Stats struct {
	RelSize        stats.Summary
	QueryNodeFrac  stats.Summary
	ArticleFrac    stats.Summary
	CategoryFrac   stats.Summary
	ExpansionRatio stats.Summary
}

// TextFacts are the standalone structural numbers quoted in the paper's
// Section 3 text.
type TextFacts struct {
	// MeanTPR is the average triangle participation ratio of the largest
	// connected components (paper: ≈ 0.3).
	MeanTPR float64
	// ReciprocalLinkRatio is the fraction of linked article pairs connected
	// in both directions, over the whole knowledge base (paper: 11.47%).
	ReciprocalLinkRatio float64
	// MeanQueryGraphSize is the average node count of G(q) (paper: 208.22).
	MeanQueryGraphSize float64
	// MeanComponents is the average number of connected components.
	MeanComponents float64
	// MaxExpansionDistance is the largest observed query-to-feature hop
	// distance (paper: features appear up to distance 3).
	MaxExpansionDistance int
}

// Analysis is the complete reproduction of the paper's evaluation.
type Analysis struct {
	// Table2 maps rank cutoff -> five-number summary of ground-truth
	// precision across queries.
	Table2 map[int]stats.Summary
	// Table3 summarizes the query-graph component statistics.
	Table3 Table3Stats
	// Table4 rows, in Table4Configs order.
	Table4 []Table4Row
	// Fig5 maps cycle length -> average contribution in percent.
	Fig5 map[int]float64
	// Fig6 maps cycle length -> average number of cycles per query.
	Fig6 map[int]float64
	// Fig7a maps cycle length (>= 3) -> average category ratio.
	Fig7a map[int]float64
	// Fig7aTrend is the trend line over the Fig7a points (the paper notes
	// its slope is almost zero).
	Fig7aTrend stats.TrendLine
	// Fig7b maps cycle length (>= 3) -> average density of extra edges.
	Fig7b map[int]float64
	// Fig9 is the binned scatter of density vs. contribution, with its
	// trend line (the paper: denser cycles contribute more).
	Fig9      []stats.Bin
	Fig9Trend stats.TrendLine
	// Text holds the standalone Section 3 numbers.
	Text TextFacts
	// TotalCycles is the number of cycles analyzed across all queries.
	TotalCycles int
}

// AnalysisConfig controls Analyze.
type AnalysisConfig struct {
	// MaxCycleLen caps enumeration (default 5, the paper's bound).
	MaxCycleLen int
	// Fig9Bins is the bucket count of the density/contribution scatter
	// (default 10).
	Fig9Bins int
	// Workers bounds the per-query fan-out; <= 0 means GOMAXPROCS.
	Workers int
}

func (c AnalysisConfig) withDefaults() AnalysisConfig {
	if c.MaxCycleLen <= 0 {
		c.MaxCycleLen = 5
	}
	if c.Fig9Bins <= 0 {
		c.Fig9Bins = 10
	}
	return c
}

// queryCycles is the per-query cycle evaluation.
type queryCycles struct {
	countByLen   map[int]int
	contribByLen map[int][]float64
	ratioByLen   map[int][]float64
	densityByLen map[int][]float64
	// points are (density, contribution) pairs for cycles of length >= 3.
	points [][2]float64
	// articlesByLen collects, per cycle length, the union of article nodes
	// (parent IDs) appearing in cycles of that length.
	articlesByLen map[int]map[graph.NodeID]struct{}
}

// analyzeQueryCycles enumerates and measures the cycles of one query graph,
// evaluating each cycle's contribution against the query's baseline.
func (s *System) analyzeQueryCycles(ctx context.Context, gt *GroundTruth, maxLen int) (*queryCycles, error) {
	qc := &queryCycles{
		countByLen:    make(map[int]int),
		contribByLen:  make(map[int][]float64),
		ratioByLen:    make(map[int][]float64),
		densityByLen:  make(map[int][]float64),
		articlesByLen: make(map[int]map[graph.NodeID]struct{}),
	}
	relevant := eval.NewRelevance(gt.Query.Relevant)
	for mc, err := range MineCycles(ctx, gt.Graph.Sub, gt.QueryArticles, maxLen) {
		if err != nil {
			return nil, fmt.Errorf("core: query %d cycles: %w", gt.Query.ID, err)
		}
		// The cycle's articles are candidates on top of the query articles,
		// which are already in L(q.k).
		m, arts := mc.Metrics, mc.Articles
		set := qc.articlesByLen[m.Length]
		if set == nil {
			set = make(map[graph.NodeID]struct{})
			qc.articlesByLen[m.Length] = set
		}
		for _, a := range arts {
			set[a] = struct{}{}
		}

		after, _, err := s.EvaluateArticles(gt.Query.Keywords,
			append(append([]graph.NodeID{}, gt.QueryArticles...), arts...), relevant)
		if err != nil {
			return nil, err
		}
		contrib := eval.Contribution(gt.Baseline, after)

		qc.countByLen[m.Length]++
		qc.contribByLen[m.Length] = append(qc.contribByLen[m.Length], contrib)
		if m.Length >= 3 {
			qc.ratioByLen[m.Length] = append(qc.ratioByLen[m.Length], m.CategoryRatio)
			qc.densityByLen[m.Length] = append(qc.densityByLen[m.Length], m.ExtraEdgeDensity)
			qc.points = append(qc.points, [2]float64{m.ExtraEdgeDensity, contrib})
		}
	}
	return qc, nil
}

// Analyze reproduces the paper's full evaluation over the per-query ground
// truths. Cancelling ctx stops scheduling the per-query cycle analysis and
// returns ctx.Err().
func (s *System) Analyze(ctx context.Context, gts []*GroundTruth, cfg AnalysisConfig) (*Analysis, error) {
	if len(gts) == 0 {
		return nil, fmt.Errorf("core: no ground truths to analyze")
	}
	cfg = cfg.withDefaults()

	// Per-query cycle analysis, fanned out.
	perQuery := make([]*queryCycles, len(gts))
	compStats := make([]querygraph.ComponentStats, len(gts))
	err := ForEach(ctx, len(gts), cfg.Workers, func(i int) (err error) {
		compStats[i] = gts[i].Graph.LargestComponentStats()
		perQuery[i], err = s.analyzeQueryCycles(ctx, gts[i], cfg.MaxCycleLen)
		return err
	})
	if err != nil {
		return nil, err
	}

	a := &Analysis{
		Table2: make(map[int]stats.Summary),
		Fig5:   make(map[int]float64),
		Fig6:   make(map[int]float64),
		Fig7a:  make(map[int]float64),
		Fig7b:  make(map[int]float64),
	}

	// Table 2: ground-truth precision summaries.
	for _, r := range eval.DefaultRanks {
		vals := make([]float64, len(gts))
		for i, gt := range gts {
			vals[i] = gt.PrecisionAt[r]
		}
		sum, err := stats.Summarize(vals)
		if err != nil {
			return nil, err
		}
		a.Table2[r] = sum
	}

	// Table 3: component statistics summaries.
	collect := func(f func(querygraph.ComponentStats) float64) (stats.Summary, error) {
		vals := make([]float64, len(compStats))
		for i, cs := range compStats {
			vals[i] = f(cs)
		}
		return stats.Summarize(vals)
	}
	if a.Table3.RelSize, err = collect(func(c querygraph.ComponentStats) float64 { return c.RelSize }); err != nil {
		return nil, err
	}
	if a.Table3.QueryNodeFrac, err = collect(func(c querygraph.ComponentStats) float64 { return c.QueryNodeFrac }); err != nil {
		return nil, err
	}
	if a.Table3.ArticleFrac, err = collect(func(c querygraph.ComponentStats) float64 { return c.ArticleFrac }); err != nil {
		return nil, err
	}
	if a.Table3.CategoryFrac, err = collect(func(c querygraph.ComponentStats) float64 { return c.CategoryFrac }); err != nil {
		return nil, err
	}
	if a.Table3.ExpansionRatio, err = collect(func(c querygraph.ComponentStats) float64 { return c.ExpansionRatio }); err != nil {
		return nil, err
	}

	// Figures 5–7 aggregation across all cycles / queries.
	contribAll := make(map[int][]float64)
	ratioAll := make(map[int][]float64)
	densityAll := make(map[int][]float64)
	countTotal := make(map[int]int)
	var points [][2]float64
	for _, qc := range perQuery {
		for l, c := range qc.countByLen {
			countTotal[l] += c
		}
		for l, vs := range qc.contribByLen {
			contribAll[l] = append(contribAll[l], vs...)
		}
		for l, vs := range qc.ratioByLen {
			ratioAll[l] = append(ratioAll[l], vs...)
		}
		for l, vs := range qc.densityByLen {
			densityAll[l] = append(densityAll[l], vs...)
		}
		points = append(points, qc.points...)
	}
	for l, vs := range contribAll {
		a.Fig5[l] = stats.Mean(vs)
		a.TotalCycles += len(vs)
	}
	for l, c := range countTotal {
		a.Fig6[l] = float64(c) / float64(len(gts))
	}
	for l, vs := range ratioAll {
		a.Fig7a[l] = stats.Mean(vs)
	}
	for l, vs := range densityAll {
		a.Fig7b[l] = stats.Mean(vs)
	}
	// Trend of Fig7a (the paper: slope ≈ 0).
	if len(a.Fig7a) >= 2 {
		var xs, ys []float64
		for _, l := range sortedKeys(a.Fig7a) {
			xs = append(xs, float64(l))
			ys = append(ys, a.Fig7a[l])
		}
		if tl, err := stats.Fit(xs, ys); err == nil {
			a.Fig7aTrend = tl
		}
	}

	// Figure 9: binned density vs contribution with trend line.
	if len(points) > 0 {
		xs := make([]float64, len(points))
		ys := make([]float64, len(points))
		for i, p := range points {
			xs[i], ys[i] = p[0], p[1]
		}
		bins, err := stats.BinnedMeans(xs, ys, cfg.Fig9Bins)
		if err != nil {
			return nil, err
		}
		a.Fig9 = bins
		if tl, err := stats.Fit(xs, ys); err == nil {
			a.Fig9Trend = tl
		}
	}

	// Table 4: precision per cycle-length configuration.
	for _, tc := range Table4Configs {
		row := Table4Row{Config: tc, PrecisionAt: make(map[int]float64)}
		perRank := make(map[int][]float64)
		for i, gt := range gts {
			union := make(map[graph.NodeID]struct{})
			for _, l := range tc.Lengths {
				for aNode := range perQuery[i].articlesByLen[l] {
					union[aNode] = struct{}{}
				}
			}
			arts := append([]graph.NodeID{}, gt.QueryArticles...)
			for aNode := range union {
				arts = append(arts, aNode)
			}
			sort.Slice(arts, func(x, y int) bool { return arts[x] < arts[y] })
			relevant := eval.NewRelevance(gt.Query.Relevant)
			_, ranked, err := s.EvaluateArticles(gt.Query.Keywords, arts, relevant)
			if err != nil {
				return nil, err
			}
			for _, r := range eval.DefaultRanks {
				p, err := eval.PrecisionAtR(ranked, relevant, r)
				if err != nil {
					return nil, err
				}
				perRank[r] = append(perRank[r], p)
			}
		}
		for r, vs := range perRank {
			row.PrecisionAt[r] = stats.Mean(vs)
		}
		a.Table4 = append(a.Table4, row)
	}

	// Text facts.
	var tprSum, sizeSum, compSum float64
	maxDist := 0
	for i, gt := range gts {
		tprSum += compStats[i].TPR
		sizeSum += float64(gt.Graph.Size())
		compSum += float64(gt.Graph.NumComponents())
		if compStats[i].MaxExpansionDistance > maxDist {
			maxDist = compStats[i].MaxExpansionDistance
		}
	}
	a.Text = TextFacts{
		MeanTPR:              tprSum / float64(len(gts)),
		ReciprocalLinkRatio:  s.Snapshot.ReciprocalLinkRatio(),
		MeanQueryGraphSize:   sizeSum / float64(len(gts)),
		MeanComponents:       compSum / float64(len(gts)),
		MaxExpansionDistance: maxDist,
	}
	return a, nil
}

func sortedKeys(m map[int]float64) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
