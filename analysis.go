package querygraph

import (
	"context"
	"fmt"
	"io"
	"slices"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/cycles"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/groundtruth"
)

// GroundTruthOptions controls the Section 2 ground-truth construction.
// The zero value is valid: seed 0, default search budgets, GOMAXPROCS
// workers.
type GroundTruthOptions struct {
	// Seed drives the ADD/REMOVE/SWAP local search; the effective
	// per-query seed is Seed + the query id, so queries are independent
	// and the whole build is reproducible.
	Seed int64
	// MaxIterations caps improvement rounds (<= 0 means the default 64).
	MaxIterations int
	// MaxEvaluations caps objective calls (<= 0 means the default 20000).
	MaxEvaluations int
	// Workers bounds the parallel fan-out over queries; <= 0 means
	// GOMAXPROCS.
	Workers int
}

func (o GroundTruthOptions) coreConfig() core.GroundTruthConfig {
	return core.GroundTruthConfig{
		Search: groundtruth.Config{
			Seed:           o.Seed,
			MaxIterations:  o.MaxIterations,
			MaxEvaluations: o.MaxEvaluations,
		},
		Workers: o.Workers,
	}
}

// GroundTruth runs the full Section 2 pipeline for one query: entity-link
// the keywords and the relevant documents, search for X(q), and assemble
// the query graph. A done ctx returns ctx.Err() before any work.
func (c *Client) GroundTruth(ctx context.Context, q Query, opts GroundTruthOptions) (*GroundTruth, error) {
	g, err := c.pin(ctx)
	if err != nil {
		return nil, err
	}
	defer g.release()
	return g.sys().BuildGroundTruth(ctx, q, opts.coreConfig())
}

// GroundTruths fans the per-query pipeline out over a bounded worker pool
// and returns the artifacts in query order. Cancelling ctx stops
// scheduling and returns ctx.Err().
func (c *Client) GroundTruths(ctx context.Context, qs []Query, opts GroundTruthOptions) ([]*GroundTruth, error) {
	g, err := c.pin(ctx)
	if err != nil {
		return nil, err
	}
	defer g.release()
	return g.sys().BuildAllGroundTruths(ctx, qs, opts.coreConfig())
}

// AnalyzeOptions controls Analyze. The zero value reproduces the paper's
// configuration over the loaded benchmark; the analysis itself always
// mines cycles of 2 to 5 edges and bins Figure 9 in 10 density buckets,
// as the paper does.
type AnalyzeOptions struct {
	// GroundTruth configures the Section 2 construction the analysis is
	// built on.
	GroundTruth GroundTruthOptions
	// Workers bounds the per-query fan-out; <= 0 means GOMAXPROCS.
	Workers int
}

// Analyze reproduces the paper's complete evaluation — every measurement
// behind Tables 2-4 and Figures 5, 6, 7a, 7b and 9 — over the client's
// loaded query benchmark: it builds the per-query ground truths, then runs
// the cycle analysis. Returns ErrNoBenchmark when the client has no
// benchmark queries; cancelling ctx stops the per-query fan-out and
// returns ctx.Err().
func (c *Client) Analyze(ctx context.Context, opts AnalyzeOptions) (*Analysis, error) {
	g, err := c.pin(ctx)
	if err != nil {
		return nil, err
	}
	defer g.release()
	if len(g.set.Queries()) == 0 {
		return nil, ErrNoBenchmark
	}
	gtOpts := opts.GroundTruth
	if gtOpts.Workers <= 0 {
		gtOpts.Workers = opts.Workers
	}
	gts, err := c.GroundTruths(ctx, g.set.Queries(), gtOpts)
	if err != nil {
		return nil, err
	}
	return g.sys().Analyze(ctx, gts, core.AnalysisConfig{Workers: opts.Workers})
}

// AblationOptions controls CompareExpanders.
type AblationOptions struct {
	// MaxFeatures caps every strategy's feature count for a fair fight
	// (<= 0 means 10).
	MaxFeatures int
	// Workers bounds the per-query fan-out; <= 0 means GOMAXPROCS.
	Workers int
}

// CompareExpanders measures the expansion strategies of the design
// document's ablations over the loaded benchmark: no expansion, naive
// 1-hop links, the paper-tuned cycle expander, the expander with filters
// off, frequency ranking and redirect aliases. Returns ErrNoBenchmark when
// the client has no benchmark queries.
func (c *Client) CompareExpanders(ctx context.Context, opts AblationOptions) ([]AblationRow, error) {
	g, err := c.pin(ctx)
	if err != nil {
		return nil, err
	}
	defer g.release()
	if len(g.set.Queries()) == 0 {
		return nil, ErrNoBenchmark
	}
	return g.sys().CompareExpanders(ctx, g.set.Queries(), core.AblationConfig{
		MaxFeatures: opts.MaxFeatures,
		Workers:     opts.Workers,
	})
}

// Cycle is one mined cycle of a query graph, in the paper's Section 3
// vocabulary.
type Cycle struct {
	// Length is the number of edges (== nodes) of the cycle.
	Length int
	// Titles are the node titles in cycle order; IsCategory flags which
	// of them are categories.
	Titles     []string
	IsCategory []bool
	// Articles are the knowledge-base ids of the cycle's article nodes —
	// the candidate expansion features it proposes.
	Articles []NodeID
	// CategoryRatio is the fraction of category nodes; ExtraEdgeDensity
	// is the density of edges beyond the cycle itself.
	CategoryRatio    float64
	ExtraEdgeDensity float64
}

// MineCycles mines the cycles of a ground truth's query graph, up to the
// paper's 5 edges, that contain a query article, and measures each one.
// They come ordered by length, then by node sequence. G(q) and its titles
// are read from the snapshot the ground truth was built on, whichever
// Client is asked. A done ctx returns ctx.Err() before any work.
func (c *Client) MineCycles(ctx context.Context, gt *GroundTruth) ([]Cycle, error) {
	pinned, err := c.pin(ctx)
	if err != nil {
		return nil, err
	}
	defer pinned.release()
	if err := checkQueryGraph(gt); err != nil {
		return nil, err
	}
	snap := gt.Graph.Snap
	var mined []core.MinedCycle
	for mc, err := range core.MineCycles(ctx, snap.Graph(), gt.Graph.Nodes, gt.QueryArticles) {
		if err != nil {
			return nil, fmt.Errorf("querygraph: mine cycles: %w", err)
		}
		mined = append(mined, mc)
	}
	slices.SortFunc(mined, func(a, b core.MinedCycle) int { return cycles.Compare(a.Cycle, b.Cycle) })
	out := make([]Cycle, len(mined))
	for i, mc := range mined {
		out[i] = Cycle{
			Length:           mc.Metrics.Length,
			Titles:           make([]string, len(mc.Cycle.Nodes)),
			IsCategory:       make([]bool, len(mc.Cycle.Nodes)),
			Articles:         mc.Articles,
			CategoryRatio:    mc.Metrics.CategoryRatio,
			ExtraEdgeDensity: mc.Metrics.ExtraEdgeDensity,
		}
		for j, n := range mc.Cycle.Nodes {
			out[i].Titles[j] = snap.Name(n)
			out[i].IsCategory[j] = snap.Graph().Kind(n) == graph.Category
		}
	}
	return out, nil
}

// WriteQueryGraphDOT renders a ground truth's query graph G(q) in Graphviz
// DOT format with article titles as labels, both read from the snapshot
// the ground truth was built on.
func (c *Client) WriteQueryGraphDOT(w io.Writer, gt *GroundTruth, name string) error {
	if err := checkQueryGraph(gt); err != nil {
		return err
	}
	snap := gt.Graph.Snap
	return snap.Graph().WriteDOT(w, name, gt.Graph.Nodes, snap.Name)
}

// checkQueryGraph rejects a ground truth without a query graph, nil
// included, as an ErrInvalidQuery.
func checkQueryGraph(gt *GroundTruth) error {
	if gt == nil || gt.Graph == nil {
		return fmt.Errorf("%w: ground truth has no query graph", ErrInvalidQuery)
	}
	return nil
}
