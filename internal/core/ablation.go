package core

import (
	"context"
	"fmt"

	"github.com/querygraph/querygraph/internal/eval"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/stats"
)

// AblationRow is one expansion strategy measured over the query set.
type AblationRow struct {
	Label string
	// MeanO is the mean objective O over all queries.
	MeanO float64
	// PrecisionAt maps rank cutoffs to mean precision.
	PrecisionAt map[int]float64
	// MeanFeatures is the average number of expansion features used.
	MeanFeatures float64
}

// AblationConfig controls the expander comparison.
type AblationConfig struct {
	// MaxFeatures caps every strategy's feature count for a fair fight
	// (default 10).
	MaxFeatures int
	// Workers bounds the per-query fan-out.
	Workers int
}

// CompareExpanders measures the online expansion strategies the design
// document calls ablations A1 and A2:
//
//	baseline            — the unexpanded keyword entities;
//	naive-links         — 1-hop link neighbors (the related-work style);
//	cycles (paper)      — the Expander with the paper-tuned filters;
//	cycles, no filter   — the Expander with the category-ratio and density
//	                      filters disabled, isolating their effect;
//	cycles + frequency  — ranking features by their frequency across
//	                      accepted cycles (the paper's §4 open question);
//	cycles + aliases    — adding redirect titles of selected features (the
//	                      paper's §4 redirect proposal).
func (s *System) CompareExpanders(ctx context.Context, queries []Query, cfg AblationConfig) ([]AblationRow, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("core: no queries for ablation")
	}
	if cfg.MaxFeatures <= 0 {
		cfg.MaxFeatures = 10
	}

	noFilter := DefaultExpanderOptions()
	noFilter.MinCategoryRatio = 0
	noFilter.MaxCategoryRatio = 1
	noFilter.MinDensity = 0
	noFilter.MaxFeatures = cfg.MaxFeatures
	tuned := DefaultExpanderOptions()
	tuned.MaxFeatures = cfg.MaxFeatures
	byFreq := tuned
	byFreq.RankByFrequency = true
	withAliases := tuned
	withAliases.IncludeRedirectAliases = true

	// cycles is the paper's expander under opts, as a strategy.
	cycles := func(opts ExpanderOptions) func(Query) ([]graph.NodeID, error) {
		return func(q Query) ([]graph.NodeID, error) {
			exp, err := s.Expand(ctx, q.Keywords, opts)
			if err != nil {
				return nil, err
			}
			return featureNodes(exp), nil
		}
	}
	strategies := []struct {
		label  string
		expand func(q Query) ([]graph.NodeID, error)
	}{
		{"baseline (no expansion)", func(Query) ([]graph.NodeID, error) { return nil, nil }},
		{"naive 1-hop links", func(q Query) ([]graph.NodeID, error) {
			exp, err := s.ExpandNaive(ctx, q.Keywords, cfg.MaxFeatures)
			if err != nil {
				return nil, err
			}
			return featureNodes(exp), nil
		}},
		{"dense cycles (paper)", cycles(tuned)},
		{"cycles, filters off", cycles(noFilter)},
		{"cycles + frequency rank (§4)", cycles(byFreq)},
		{"cycles + redirect aliases (§4)", cycles(withAliases)},
	}

	var rows []AblationRow
	for _, strat := range strategies {
		os := make([]float64, len(queries))
		precs := make(map[int][]float64, len(eval.DefaultRanks))
		feats := make([]float64, len(queries))
		for _, r := range eval.DefaultRanks {
			precs[r] = make([]float64, len(queries))
		}
		err := ForEach(ctx, len(queries), cfg.Workers, func(i int) error {
			q := queries[i]
			relevant := eval.NewRelevance(q.Relevant)
			features, err := strat.expand(q)
			if err != nil {
				return err
			}
			arts := append(s.LinkKeywords(q.Keywords), features...)
			o, ranked, err := s.EvaluateArticles(q.Keywords, arts, relevant)
			if err != nil {
				return err
			}
			os[i] = o
			feats[i] = float64(len(features))
			for _, r := range eval.DefaultRanks {
				p, err := eval.PrecisionAtR(ranked, relevant, r)
				if err != nil {
					return err
				}
				precs[r][i] = p
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: ablation %q: %w", strat.label, err)
		}
		row := AblationRow{
			Label:        strat.label,
			MeanO:        stats.Mean(os),
			MeanFeatures: stats.Mean(feats),
			PrecisionAt:  make(map[int]float64, len(precs)),
		}
		for r, vs := range precs {
			row.PrecisionAt[r] = stats.Mean(vs)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func featureNodes(exp *Expansion) []graph.NodeID {
	out := make([]graph.NodeID, len(exp.Features))
	for i, f := range exp.Features {
		out[i] = f.Node
	}
	return out
}
