package core

import (
	"context"
	"fmt"

	"github.com/querygraph/querygraph/internal/eval"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/groundtruth"
	"github.com/querygraph/querygraph/internal/querygraph"
)

// GroundTruth is the per-query artifact of the paper's Section 2: the
// linked sets, the local-search result X(q) and the assembled query graph.
type GroundTruth struct {
	Query Query
	// QueryArticles is L(q.k).
	QueryArticles []graph.NodeID
	// Candidates is L(q.D), the local search's pool.
	Candidates []graph.NodeID
	// Expansion is A' ⊆ L(q.D): the chosen expansion articles.
	Expansion []graph.NodeID
	// Baseline is O(L(q.k), q.D) — retrieval quality without expansion.
	Baseline float64
	// Score is O(L(q.k) ∪ A', q.D).
	Score float64
	// PrecisionAt maps each rank cutoff (1, 5, 10, 15) to the ground
	// truth's precision (the rows of Table 2).
	PrecisionAt map[int]float64
	// Graph is the assembled G(q).
	Graph *querygraph.QueryGraph
	// SearchStats carries the local-search effort counters.
	SearchStats groundtruth.Result
}

// GroundTruthConfig controls ground-truth construction.
type GroundTruthConfig struct {
	// Search configures the ADD/REMOVE/SWAP local search. The per-query
	// seed is Search.Seed + the query ID, so queries are independent and
	// the whole build is reproducible.
	Search groundtruth.Config
	// Workers bounds the parallel fan-out over queries; <= 0 means
	// GOMAXPROCS.
	Workers int
}

// BuildGroundTruth runs the full Section 2 pipeline for one query:
// entity-link the keywords and the relevant documents, search for X(q), and
// assemble the query graph. A done ctx returns ctx.Err() before any work.
func (s *System) BuildGroundTruth(ctx context.Context, q Query, cfg GroundTruthConfig) (*GroundTruth, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	relevant := eval.NewRelevance(q.Relevant)
	queryArts := s.LinkKeywords(q.Keywords)
	candidates, err := s.LinkDocuments(q.Relevant)
	if err != nil {
		return nil, fmt.Errorf("core: query %d: %w", q.ID, err)
	}
	// The pool is L(q.D) minus the query articles themselves (adding a
	// query article is a no-op for the union L(q.k) ∪ A').
	pool := make([]graph.NodeID, 0, len(candidates))
	inQuery := make(map[graph.NodeID]struct{}, len(queryArts))
	for _, a := range queryArts {
		inQuery[a] = struct{}{}
	}
	for _, c := range candidates {
		if _, dup := inQuery[c]; !dup {
			pool = append(pool, c)
		}
	}

	baseline, _, err := s.EvaluateArticles(q.Keywords, queryArts, relevant)
	if err != nil {
		return nil, err
	}

	objective := func(selected []graph.NodeID) (float64, error) {
		arts := append(append([]graph.NodeID{}, queryArts...), selected...)
		score, _, err := s.EvaluateArticles(q.Keywords, arts, relevant)
		return score, err
	}
	searchCfg := cfg.Search
	searchCfg.Seed += int64(q.ID)
	res, err := groundtruth.Search(pool, objective, searchCfg)
	if err != nil {
		return nil, fmt.Errorf("core: query %d: %w", q.ID, err)
	}

	// Final precision profile of X(q) = L(q.k) ∪ A'.
	all := append(append([]graph.NodeID{}, queryArts...), res.Selected...)
	_, ranked, err := s.EvaluateArticles(q.Keywords, all, relevant)
	if err != nil {
		return nil, err
	}
	precisionAt := make(map[int]float64, len(eval.DefaultRanks))
	for _, r := range eval.DefaultRanks {
		p, err := eval.PrecisionAtR(ranked, relevant, r)
		if err != nil {
			return nil, err
		}
		precisionAt[r] = p
	}

	qg, err := querygraph.Assemble(s.Snapshot, queryArts, res.Selected)
	if err != nil {
		return nil, fmt.Errorf("core: query %d: %w", q.ID, err)
	}
	return &GroundTruth{
		Query:         q,
		QueryArticles: queryArts,
		Candidates:    candidates,
		Expansion:     res.Selected,
		Baseline:      baseline,
		Score:         res.Score,
		PrecisionAt:   precisionAt,
		Graph:         qg,
		SearchStats:   res,
	}, nil
}

// BuildAllGroundTruths fans the per-query pipeline out over a bounded
// worker pool and returns the artifacts in query order. Cancelling ctx
// stops scheduling further queries and returns ctx.Err().
func (s *System) BuildAllGroundTruths(ctx context.Context, queries []Query, cfg GroundTruthConfig) ([]*GroundTruth, error) {
	out := make([]*GroundTruth, len(queries))
	err := ForEach(ctx, len(queries), cfg.Workers, func(i int) (err error) {
		out[i], err = s.BuildGroundTruth(ctx, queries[i], cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
