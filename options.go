package querygraph

import (
	"fmt"

	"github.com/querygraph/querygraph/internal/core"
)

// Option configures a serving backend at construction (Open / OpenReader /
// Build / OpenPool / OpenBackend).
type Option func(*clientConfig)

type clientConfig struct {
	sys []core.SystemOption
	obs observers
	// deltaCap caps the live delta segment's document count: 0 means
	// unset (defaultDeltaCapacity applies), negative means a zero-capacity
	// segment that rejects every ingest.
	deltaCap int
	// autoCompact triggers a background compaction once the delta holds at
	// least this many documents; <= 0 disables the auto-compactor.
	autoCompact int
}

// defaultDeltaCapacity is the delta-segment document cap when
// WithDeltaCapacity is not given: large enough for sustained ingest
// between compactions, small enough that an unbounded writer cannot grow
// the in-memory segment without limit.
const defaultDeltaCapacity = 65536

// deltaCapacity resolves the configured cap to its effective value.
func (c *clientConfig) deltaCapacity() int {
	switch {
	case c.deltaCap == 0:
		return defaultDeltaCapacity
	case c.deltaCap < 0:
		return 0
	default:
		return c.deltaCap
	}
}

// WithExpandCache overrides the expansion cache capacity (default 1024
// entries, sharded 16 ways — the enforced total rounds up to a multiple of
// 16). capacity <= 0 disables caching entirely.
func WithExpandCache(capacity int) Option {
	return func(c *clientConfig) { c.sys = append(c.sys, core.WithExpandCache(capacity)) }
}

// WithObserver attaches an instrumentation observer to the backend: its
// hooks fire synchronously on every request path (see Observer). The
// option composes — each WithObserver adds another observer, and all of
// them fire in attachment order. On a Pool the observers survive reloads;
// a nil observer is ignored.
func WithObserver(o Observer) Option {
	return func(c *clientConfig) {
		if o != nil {
			c.obs = append(c.obs, o)
		}
	}
}

// WithDeltaCapacity caps the in-memory delta segment at docs documents
// (default 65536). An Ingest that would push the segment past the cap
// fails with ErrDeltaFull and admits nothing; compaction empties the
// segment and unblocks ingest. docs <= 0 sets a zero-capacity segment
// that rejects every ingest — a read-only deployment.
func WithDeltaCapacity(docs int) Option {
	return func(c *clientConfig) {
		if docs <= 0 {
			c.deltaCap = -1
			return
		}
		c.deltaCap = docs
	}
}

// WithAutoCompact compacts the delta segment in the background once it
// holds at least threshold documents. The compaction runs asynchronously
// after the triggering Ingest returns — searches keep being served from
// base+delta until the new generation swaps in — and at most one runs at
// a time. threshold <= 0 disables the auto-compactor (the default);
// Backend.Compact stays available either way.
func WithAutoCompact(threshold int) Option {
	return func(c *clientConfig) {
		if threshold <= 0 {
			c.autoCompact = 0
			return
		}
		c.autoCompact = threshold
	}
}

// ExpandOption tunes one Expand / ExpandAll call. The zero-argument call
// uses the paper-tuned defaults (DefaultExpandOptions); every option
// overrides exactly the named knob and nothing else, so — unlike a bare
// options struct — an explicit value can never be mistaken for "unset".
// A list is judged by the configuration it ends with: options apply in
// order over the defaults, a later option overrides an earlier one, and
// only the result is validated. An invalid result surfaces as an error
// wrapping ErrInvalidOptions from the Expand call itself, never as a
// silent fallback.
type ExpandOption func(*core.ExpanderOptions)

// DefaultExpandOptions describes the paper-tuned expansion defaults that a
// zero-option Expand call uses: cycles up to length 5, BFS radius 2,
// neighborhood cap 400, category-ratio band [0.2, 0.5], minimum extra-edge
// density 0.25 for cycles of length >= 4, at most 10 features, and
// reciprocal 2-cycles kept. The values are returned as a fresh option list
// so callers can log or extend them.
func DefaultExpandOptions() []ExpandOption {
	d := core.DefaultExpanderOptions()
	return []ExpandOption{
		WithMaxCycleLen(d.MaxCycleLen),
		WithRadius(d.Radius),
		WithMaxNeighborhood(d.MaxNeighborhood),
		WithCategoryRatioBand(d.MinCategoryRatio, d.MaxCategoryRatio),
		WithMinDensity(d.MinDensity),
		WithMaxFeatures(d.MaxFeatures),
		WithTwoCycles(d.KeepTwoCycles),
	}
}

// normalizeExpandOptions resolves the option list against the defaults and
// validates the result — the single place expansion options are normalized.
func normalizeExpandOptions(opts []ExpandOption) (core.ExpanderOptions, error) {
	o := core.DefaultExpanderOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.Validate(); err != nil {
		return core.ExpanderOptions{}, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	return o, nil
}

// WithMaxCycleLen caps cycle enumeration at n edges (default 5, the
// paper's bound; valid range 2..8 — enumeration cost grows steeply with
// the bound, and the paper finds nothing beyond 5).
func WithMaxCycleLen(n int) ExpandOption {
	return func(o *core.ExpanderOptions) { o.MaxCycleLen = n }
}

// WithRadius sets the BFS neighborhood radius around the query entities
// (default 2; must be >= 1).
func WithRadius(r int) ExpandOption {
	return func(o *core.ExpanderOptions) { o.Radius = r }
}

// WithMaxNeighborhood caps the candidate graph's node count (default 400;
// must be in [1, 4096]: the cycle miner's view of n nodes takes n²/4
// bytes).
func WithMaxNeighborhood(n int) ExpandOption {
	return func(o *core.ExpanderOptions) { o.MaxNeighborhood = n }
}

// WithCategoryRatioBand bounds the category ratio of accepted cycles of
// length >= 3 to [min, max] (default [0.2, 0.5]: "around the 30%").
// Requires 0 <= min <= max <= 1. Every band in that range is expressible —
// including [0, 0], which accepts only category-free cycles, and [0, 1],
// which disables the filter.
func WithCategoryRatioBand(min, max float64) ExpandOption {
	return func(o *core.ExpanderOptions) { o.MinCategoryRatio, o.MaxCategoryRatio = min, max }
}

// WithMinDensity sets the minimum density of extra edges for cycles of
// length >= 4 (default 0.25). d must be in [0, 1]; 0 disables the filter.
func WithMinDensity(d float64) ExpandOption {
	return func(o *core.ExpanderOptions) { o.MinDensity = d }
}

// WithMaxFeatures caps the returned expansion features (default 10; must
// be >= 1).
func WithMaxFeatures(n int) ExpandOption {
	return func(o *core.ExpanderOptions) { o.MaxFeatures = n }
}

// WithTwoCycles keeps (true, the default) or drops (false) reciprocal-link
// pairs regardless of the structural filters. The paper finds 2-cycles
// scarce but highest-contributing.
func WithTwoCycles(keep bool) ExpandOption {
	return func(o *core.ExpanderOptions) { o.KeepTwoCycles = keep }
}

// WithFrequencyRank ranks candidate features by how many accepted cycles
// contain them instead of purely by cycle order (the correlation the
// paper's Section 4 leaves as future work). Default off.
func WithFrequencyRank(on bool) ExpandOption {
	return func(o *core.ExpanderOptions) { o.RankByFrequency = on }
}

// WithRedirectAliases additionally emits the redirect titles of each
// selected feature as secondary features (the paper's Section 4 redirect
// proposal). Default off.
func WithRedirectAliases(on bool) ExpandOption {
	return func(o *core.ExpanderOptions) { o.IncludeRedirectAliases = on }
}
