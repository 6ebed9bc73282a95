package core

import (
	"context"
	"fmt"

	"github.com/querygraph/querygraph/internal/search"
)

// BatchOptions bounds the concurrency of the batch serving layer.
type BatchOptions struct {
	// Workers bounds the parallel fan-out over the batch; <= 0 means
	// GOMAXPROCS.
	Workers int
}

// SearchAll evaluates every query node against the engine on a bounded
// worker pool and returns the per-query rankings in input order. Each
// ranking follows the Engine.Search contract (top k by descending score,
// empty non-nil slice when nothing matches). The first error stops
// scheduling of the remaining queries and is returned; cancelling ctx
// stops scheduling the same way and returns ctx.Err().
func (s *System) SearchAll(ctx context.Context, queries []search.Node, k int, opts BatchOptions) ([][]search.Result, error) {
	out := make([][]search.Result, len(queries))
	err := forEachQuery(ctx, len(queries), opts.Workers, func(i int) error {
		rs, err := s.Engine.Search(queries[i], k)
		if err != nil {
			return fmt.Errorf("core: search %d: %w", i, err)
		}
		out[i] = rs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ExpandAll runs the online expansion pipeline for every keyword query on
// a bounded worker pool and returns the expansions in input order. Lookups
// go through the system's expansion cache, so batches with repeated
// keywords (the heavy-traffic case) are served from memory once one worker
// has expanded them — copies that miss at the same moment each run the
// pipeline; returned Expansions may be shared and must be treated as
// read-only. The first error stops scheduling of the remaining queries and
// is returned; cancelling ctx stops scheduling the same way, stops the
// expansions under way, and returns ctx.Err().
func (s *System) ExpandAll(ctx context.Context, keywords []string, eopts ExpanderOptions, opts BatchOptions) ([]*Expansion, error) {
	out := make([]*Expansion, len(keywords))
	err := forEachQuery(ctx, len(keywords), opts.Workers, func(i int) error {
		exp, err := s.Expand(ctx, keywords[i], eopts)
		if err != nil {
			return fmt.Errorf("core: expand %q: %w", keywords[i], err)
		}
		out[i] = exp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ExpandCacheStats reports the expansion cache's hit/miss counters and
// occupancy (all zero when the cache is disabled).
func (s *System) ExpandCacheStats() CacheStats {
	return s.expandCache.stats()
}

// PurgeExpandCache drops every cached expansion, releasing the entries to
// the collector; the counters keep their lifetime totals. The serving
// lifecycle calls this from Close so a retired client does not pin the
// cache's memory.
func (s *System) PurgeExpandCache() {
	s.expandCache.purge()
}
