package core

import (
	"context"
	"fmt"
	"slices"

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
	// Workers bounds the per-query fan-out; <= 0 means GOMAXPROCS.
	Workers int
}

// The paper's analysis constants: cycles of 2 to analysisMaxLen edges
// (enumeration cost grows exponentially with length), and Figure 9's
// density/contribution scatter in fig9Bins buckets.
const (
	analysisMaxLen = 5
	fig9Bins       = 10
)

// cycleRecord is one mined cycle of a query graph with its contribution:
// how much adding its articles to L(q.k) improves the query's baseline.
type cycleRecord struct {
	MinedCycle
	contrib float64
}

// analyzeQueryCycles mines and measures the cycles of one query graph,
// evaluating each cycle's contribution against the query's baseline, and
// returns one record per cycle in walk order.
func (s *System) analyzeQueryCycles(ctx context.Context, gt *GroundTruth) ([]cycleRecord, error) {
	relevant := eval.NewRelevance(gt.Query.Relevant)
	var recs []cycleRecord
	for mc, err := range MineCycles(ctx, gt.Graph.Snap.Graph(), gt.Graph.Nodes, gt.QueryArticles) {
		if err != nil {
			return nil, fmt.Errorf("core: query %d cycles: %w", gt.Query.ID, err)
		}
		after, _, err := s.EvaluateArticles(gt.Query.Keywords, articleSet(gt.QueryArticles, mc.Articles), relevant)
		if err != nil {
			return nil, err
		}
		recs = append(recs, cycleRecord{mc, eval.Contribution(gt.Baseline, after)})
	}
	return recs, nil
}

// articleSet returns L(q.k) ∪ arts, ascending and each article once: a
// mined cycle always holds a query article, and its title must enter the
// expanded query once, as in the ground truth's objective.
func articleSet(queryArts, arts []graph.NodeID) []graph.NodeID {
	set := append(slices.Clone(queryArts), arts...)
	slices.Sort(set)
	return slices.Compact(set)
}

// Analyze reproduces the paper's full evaluation over the per-query ground
// truths. Cancelling ctx stops scheduling the per-query cycle analysis and
// returns ctx.Err().
func (s *System) Analyze(ctx context.Context, gts []*GroundTruth, cfg AnalysisConfig) (*Analysis, error) {
	if len(gts) == 0 {
		return nil, fmt.Errorf("core: no ground truths to analyze")
	}

	// Per-query cycle analysis, fanned out.
	perQuery := make([][]cycleRecord, len(gts))
	compStats := make([]querygraph.ComponentStats, len(gts))
	err := ForEach(ctx, len(gts), cfg.Workers, func(i int) (err error) {
		compStats[i] = gts[i].Graph.LargestComponentStats()
		perQuery[i], err = s.analyzeQueryCycles(ctx, gts[i])
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

	// Figures 5–7 and 9 over every cycle of every query, by length; the
	// category ratio and density only of cycles of length >= 3.
	var contrib, ratio, density [analysisMaxLen + 1][]float64
	var fig7aX, fig7aY, fig9X, fig9Y []float64
	for _, recs := range perQuery {
		for _, r := range recs {
			l := r.Metrics.Length
			contrib[l] = append(contrib[l], r.contrib)
			if l >= 3 {
				ratio[l] = append(ratio[l], r.Metrics.CategoryRatio)
				density[l] = append(density[l], r.Metrics.ExtraEdgeDensity)
				fig9X = append(fig9X, r.Metrics.ExtraEdgeDensity)
				fig9Y = append(fig9Y, r.contrib)
			}
		}
	}
	for l, vs := range contrib {
		if len(vs) == 0 {
			continue
		}
		a.Fig5[l] = stats.Mean(vs)
		a.Fig6[l] = float64(len(vs)) / float64(len(gts))
		a.TotalCycles += len(vs)
		if l >= 3 {
			a.Fig7a[l] = stats.Mean(ratio[l])
			a.Fig7b[l] = stats.Mean(density[l])
			fig7aX, fig7aY = append(fig7aX, float64(l)), append(fig7aY, a.Fig7a[l])
		}
	}
	// Trend of Fig7a (the paper: slope ≈ 0).
	if len(fig7aX) >= 2 {
		if tl, err := stats.Fit(fig7aX, fig7aY); err == nil {
			a.Fig7aTrend = tl
		}
	}

	// Figure 9: binned density vs contribution with trend line.
	if len(fig9X) > 0 {
		bins, err := stats.BinnedMeans(fig9X, fig9Y, fig9Bins)
		if err != nil {
			return nil, err
		}
		a.Fig9 = bins
		if tl, err := stats.Fit(fig9X, fig9Y); err == nil {
			a.Fig9Trend = tl
		}
	}

	// Table 4: precision per cycle-length configuration.
	for _, tc := range Table4Configs {
		row := Table4Row{Config: tc, PrecisionAt: make(map[int]float64)}
		perRank := make(map[int][]float64)
		for i, gt := range gts {
			var union []graph.NodeID
			for _, r := range perQuery[i] {
				if slices.Contains(tc.Lengths, r.Metrics.Length) {
					union = append(union, r.Articles...)
				}
			}
			arts := articleSet(gt.QueryArticles, union)
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
