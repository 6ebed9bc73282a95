package querygraph

import (
	"context"
	"fmt"
	"time"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/live"
	"github.com/querygraph/querygraph/internal/shard"
)

// IngestStats reports the outcome of one Backend.Ingest call.
type IngestStats struct {
	// Ingested is the number of documents admitted by this call (0 when
	// the call failed — the batch is atomic).
	Ingested int `json:"ingested"`
	// DeltaDocs and DeltaBytes describe the delta segment after the call:
	// its document count and pending-compaction text bytes.
	DeltaDocs  int   `json:"delta_docs"`
	DeltaBytes int64 `json:"delta_bytes"`
	// Generation is the serving generation the segment sits above.
	Generation uint64 `json:"generation"`
}

// CompactStats reports the outcome of one Backend.Compact call.
type CompactStats struct {
	// Compacted is the number of delta documents folded into the new
	// generation (0 for the empty-delta no-op).
	Compacted int `json:"compacted"`
	// Documents is the compacted generation's total document count.
	Documents int `json:"documents"`
	// Generation is the sequence number now being served — advanced by a
	// real compaction, unchanged by the no-op and on failure.
	Generation uint64 `json:"generation"`
}

// DeltaStats summarizes the live delta segment inside Stats.
type DeltaStats struct {
	// Documents is the delta segment's current document count.
	Documents int `json:"documents"`
	// PendingBytes is the extracted text volume awaiting compaction.
	PendingBytes int64 `json:"pending_bytes"`
	// Generation is the serving generation the segment sits above.
	Generation uint64 `json:"generation"`
	// Compactions counts this backend's completed non-empty compactions.
	Compactions uint64 `json:"compactions"`
}

// liveConfigOf derives the delta segment's analysis/scoring configuration
// from the serving system it sits above; matching configurations are what
// make merged-statistics scoring equal the monolithic rebuild.
func liveConfigOf(sys *core.System) live.Config {
	an := sys.Engine.Analyzer()
	return live.Config{
		Mu:              sys.Engine.Mu(),
		RemoveStopwords: an.RemovesStopwords(),
		Stem:            an.Stems(),
	}
}

// Ingest appends documents to the in-memory delta segment; they are
// searchable by the time the call returns — one more source of the
// scatter, scored under merged base+delta collection statistics,
// bit-identical to a rebuilt (and, on a Pool, re-partitioned) index — and
// survive into the next compaction. The batch is atomic: a duplicate
// external id (against every shard and the segment itself) or a segment
// past its capacity (WithDeltaCapacity) admits nothing. docs is not
// retained.
func (rt *localRuntime) Ingest(ctx context.Context, docs []Document) (IngestStats, error) {
	start := time.Now()
	st, shards, err := rt.ingest(ctx, docs)
	rt.cfg.obs.ingest(start, len(docs), st.DeltaDocs, shards, err)
	return st, err
}

func (rt *localRuntime) ingest(ctx context.Context, docs []Document) (IngestStats, int, error) {
	if err := ctx.Err(); err != nil {
		return IngestStats{}, 0, err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	g := rt.gen.Load()
	if g == nil {
		return IngestStats{}, 0, ErrClosed
	}
	set, cur, shards := g.set, g.set.Delta(), g.set.NumShards()
	out := IngestStats{
		DeltaDocs:  cur.NumDocs(),
		DeltaBytes: cur.Bytes(),
		Generation: g.seq,
	}
	if len(docs) == 0 {
		return out, shards, nil
	}
	if held, limit := cur.NumDocs(), rt.cfg.deltaCapacity(); held+len(docs) > limit {
		return out, shards, fmt.Errorf("%w: %d held + %d submitted exceeds capacity %d",
			ErrDeltaFull, held, len(docs), limit)
	}
	for _, d := range docs {
		if d.ID == "" {
			continue
		}
		for _, sys := range set.Systems() {
			if _, ok := sys.Collection.ByExternalID(d.ID); ok {
				return out, shards, fmt.Errorf("%w: duplicate external id %q", ErrInvalidOptions, d.ID)
			}
		}
	}
	next, err := live.Append(cur, liveConfigOf(g.sys()), set.GlobalDocs(), docs)
	if err != nil {
		return out, shards, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	rt.swapLocked(newPoolGeneration(set.WithDelta(next), g.seq))
	rt.maybeAutoCompactLocked(next.NumDocs())
	return IngestStats{
		Ingested:   len(docs),
		DeltaDocs:  next.NumDocs(),
		DeltaBytes: next.Bytes(),
		Generation: g.seq,
	}, shards, nil
}

// Compact folds the delta segment into a fresh base generation — the
// collection and index a cold rebuild would produce; on a Pool, each
// shard's snapshot extended with its hash-share of the delta documents,
// exactly the partition a full re-shard of the merged corpus produces,
// republished through the manifest — and swaps it in with zero downtime:
// requests pinned to the old generation finish on it, new requests see
// the compacted one, and search results are identical before and after.
// An empty delta is a successful no-op with the generation unchanged; a
// real compaction advances it and starts the expansion cache cold (the
// knowledge graph is untouched, so cached expansions are merely
// recomputed, never wrong).
func (rt *localRuntime) Compact(ctx context.Context) (CompactStats, error) {
	start := time.Now()
	cs, shards, err := rt.compact(ctx)
	rt.cfg.obs.compact(start, cs.Compacted, cs.Generation, shards, err)
	return cs, err
}

func (rt *localRuntime) compact(ctx context.Context) (CompactStats, int, error) {
	if err := ctx.Err(); err != nil {
		return CompactStats{}, 0, err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.compactLocked()
}

// compactLocked does the fold, republish (see republish) and swap;
// callers hold mu. Any failure leaves the old generation, and its delta,
// serving untouched.
//
//qlint:locked mu
func (rt *localRuntime) compactLocked() (CompactStats, int, error) {
	g := rt.gen.Load()
	if g == nil {
		return CompactStats{}, 0, ErrClosed
	}
	shards, delta := g.set.NumShards(), g.set.Delta()
	if delta.NumDocs() == 0 {
		return CompactStats{Documents: g.set.GlobalDocs(), Generation: g.seq}, shards, nil
	}
	var set *shard.Set
	archives, err := shard.Fold(g.set, delta)
	if err == nil {
		set, err = rt.republish(archives)
	}
	if err != nil {
		return CompactStats{Generation: g.seq}, shards, err
	}
	rt.swapLocked(newPoolGeneration(set, g.seq+1))
	rt.compactions.Add(1)
	return CompactStats{
		Compacted:  delta.NumDocs(),
		Documents:  set.GlobalDocs(),
		Generation: g.seq + 1,
	}, set.NumShards(), nil
}

// maybeAutoCompactLocked launches one background compaction when the
// segment has reached the WithAutoCompact threshold; at most one runs at
// a time and the triggering Ingest returns immediately — searches keep
// being served from base+delta until the new generation swaps in.
// Callers hold mu.
//
//qlint:locked mu
func (rt *localRuntime) maybeAutoCompactLocked(deltaDocs int) {
	if rt.cfg.autoCompact <= 0 || deltaDocs < rt.cfg.autoCompact {
		return
	}
	if !rt.compacting.CompareAndSwap(false, true) {
		return
	}
	rt.bg.Add(1)
	go func() {
		defer rt.bg.Done()
		defer rt.compacting.Store(false)
		start := time.Now()
		cs, shards, err := func() (CompactStats, int, error) {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			return rt.compactLocked()
		}()
		rt.cfg.obs.compact(start, cs.Compacted, cs.Generation, shards, err)
	}()
}
