package querygraph

import (
	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/eval"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/stats"
	"github.com/querygraph/querygraph/internal/synth"
)

// The facade re-exports the pipeline's data types by alias, so values flow
// between the public API and the reproduction's internals without copying.
// All of them are read-only from the caller's point of view unless a
// method documents otherwise.
type (
	// NodeID identifies one node (article, category or redirect) of the
	// knowledge base.
	NodeID = graph.NodeID

	// Query is one benchmark query: keywords plus relevant document ids.
	Query = core.Query

	// Result is one ranked document: dense doc id plus retrieval score.
	Result = search.Result

	// Expansion is the outcome of expanding one query: the linked
	// entities, the proposed features and the cycle counters —
	// CyclesConsidered over every cycle length, CyclesAccepted over the
	// lengths measured — at the default MaxCycleLen, 2 and 3 always, and
	// 4 and 5 only when the shorter lengths leave the ranking room (see
	// core.Expansion).
	Expansion = core.Expansion

	// Feature is one proposed expansion feature with the structural
	// provenance of the cycle that introduced it.
	Feature = core.Feature

	// GroundTruth is the per-query Section 2 artifact: linked sets, the
	// local-search result X(q) and the assembled query graph G(q).
	GroundTruth = core.GroundTruth

	// Analysis bundles every measurement behind the paper's Tables 2-4
	// and Figures 5-9.
	Analysis = core.Analysis

	// AblationRow is one expansion strategy measured over the benchmark.
	AblationRow = core.AblationRow

	// CacheStats reports the expansion cache's counters.
	CacheStats = core.CacheStats

	// CacheOutcome classifies how one Expand request was served by the
	// expansion cache (hit, miss, or bypass when caching is disabled); see
	// Event.Cache.
	CacheOutcome = core.CacheOutcome

	// BatchOptions bounds the concurrency of Batch (and ExpandAll);
	// Workers <= 0 means GOMAXPROCS.
	BatchOptions = core.BatchOptions

	// Summary is a five-number statistic (min, quartiles, max, mean).
	Summary = stats.Summary

	// Document is one ingestable metadata record — an ImageCLEF <image>
	// element (the paper's Figure 2 schema). Backend.Ingest indexes each
	// document's relevant text (Section 2.1 extraction) into the live delta
	// segment. The ID field is the optional external id; when set it must
	// be unique across the whole collection, base and delta alike.
	Document = corpus.Image

	// DocumentText is one per-language metadata section of a Document.
	DocumentText = corpus.Text

	// Caption is one caption of a DocumentText section, linked to the
	// article it was extracted from.
	Caption = corpus.Caption

	// World is a generated synthetic benchmark world: knowledge base,
	// document collection and query set.
	World = synth.World

	// WorldConfig shapes GenerateWorld; see DefaultWorldConfig.
	WorldConfig = synth.Config
)

// MaxRank is the deepest rank cutoff the paper evaluates (top-15).
const MaxRank = core.MaxRank

// The per-request cache outcomes of Event.Cache.
const (
	CacheBypass = core.CacheBypass
	CacheHit    = core.CacheHit
	CacheMiss   = core.CacheMiss
)

// DefaultRanks returns the paper's rank cutoffs R = {1, 5, 10, 15}.
func DefaultRanks() []int {
	out := make([]int, len(eval.DefaultRanks))
	copy(out, eval.DefaultRanks)
	return out
}

// Contribution is the paper's relative-improvement measure in percent:
// 100 * (after - before) / before, and 0 when before is 0.
func Contribution(before, after float64) float64 {
	return eval.Contribution(before, after)
}

// PrecisionAt is top-r precision of a ranking against a relevant set.
func PrecisionAt(ranked []int32, relevant []int32, r int) (float64, error) {
	return eval.PrecisionAtR(ranked, eval.NewRelevance(relevant), r)
}

// Summarize computes the five-number summary of a sample.
func Summarize(xs []float64) (Summary, error) { return stats.Summarize(xs) }
