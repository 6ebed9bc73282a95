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

// write is the write-path envelope, shared by Ingest, Compact, the
// auto-compactor and Pool.Reload: same gate order as read (dead ctx, then
// ErrClosed), then work runs under mu on the serving generation and may
// swap in its successor. A panic in work — inside a compaction's fold or
// republish, say — is the operation's internal error, stack included, as
// it is on the read path, with the old generation still serving. Whatever
// happened, the event reports the state being served once the operation
// is over — shard count, generation and delta size stay the old
// generation's when work failed. It is emitted under mu, so write events
// reach observers in commit order and a generation or delta gauge never
// goes stale behind a racing write; observers must not call back into the
// write path. The writers no caller's context reaches (Reload, the
// auto-compactor) pass a nil ctx.
func (rt *localRuntime) write(ctx context.Context, ev *Event, work func(g *poolGeneration) error) error {
	start := time.Now()
	err := ctxErr(ctx)
	if err == nil {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		if g := rt.gen.Load(); g == nil {
			err = ErrClosed
		} else {
			err = func() (err error) {
				defer contain(&err)
				return work(g)
			}()
			g = rt.gen.Load()
			ev.Shards, ev.Generation, ev.DeltaDocs = g.set.NumShards(), g.seq, g.set.Delta().NumDocs()
		}
	}
	rt.cfg.obs.emit(ev, start, err)
	return err
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
	var st IngestStats
	ev := Event{Op: OpIngest, Size: len(docs)}
	err := rt.write(ctx, &ev, func(g *poolGeneration) error {
		set, cur := g.set, g.set.Delta()
		st = IngestStats{DeltaDocs: cur.NumDocs(), DeltaBytes: cur.Bytes(), Generation: g.seq}
		if len(docs) == 0 {
			return nil
		}
		if held, limit := cur.NumDocs(), rt.cfg.deltaCapacity(); held+len(docs) > limit {
			return fmt.Errorf("%w: %d held + %d submitted exceeds capacity %d",
				ErrDeltaFull, held, len(docs), limit)
		}
		for _, d := range docs {
			if d.ID == "" {
				continue
			}
			for _, sys := range set.Systems() {
				if _, ok := sys.Collection.ByExternalID(d.ID); ok {
					return fmt.Errorf("%w: duplicate external id %q", ErrInvalidOptions, d.ID)
				}
			}
		}
		next, err := live.Append(cur, liveConfigOf(g.sys()), set.GlobalDocs(), docs)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidOptions, err)
		}
		rt.swapLocked(newPoolGeneration(set.WithDelta(next), g.seq))
		rt.maybeAutoCompactLocked(next.NumDocs())
		st.Ingested, st.DeltaDocs, st.DeltaBytes = len(docs), next.NumDocs(), next.Bytes()
		return nil
	})
	return st, err
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
// recomputed, never wrong). Any failure leaves the old generation, and
// its delta, serving untouched; that includes a panic inside the fold or
// the republish, which write returns as an internal error.
func (rt *localRuntime) Compact(ctx context.Context) (CompactStats, error) {
	var cs CompactStats
	ev := Event{Op: OpCompact}
	err := rt.write(ctx, &ev, func(g *poolGeneration) error {
		cs = CompactStats{Generation: g.seq}
		delta := g.set.Delta()
		if delta.NumDocs() == 0 {
			cs.Documents = g.set.GlobalDocs()
			return nil
		}
		archives, err := shard.Fold(g.set, delta)
		if err != nil {
			return err
		}
		set, err := rt.republish(archives)
		if err != nil {
			return err
		}
		rt.swapLocked(newPoolGeneration(set, g.seq+1))
		rt.compactions.Add(1)
		ev.Size = delta.NumDocs()
		cs = CompactStats{Compacted: ev.Size, Documents: set.GlobalDocs(), Generation: g.seq + 1}
		return nil
	})
	return cs, err
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
		// Nobody waits for the outcome: it reaches observers through the
		// compaction's event, and a failure — a panic in the fold included
		// — leaves the delta serving. An observer that panics on that
		// event has no caller to report to either, so the panic ends
		// here instead of the process.
		defer func() { _ = recover() }()
		_, _ = rt.Compact(nil)
	}()
}
