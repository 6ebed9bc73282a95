package querygraph

import (
	"fmt"
	"sync/atomic"

	"github.com/querygraph/querygraph/internal/shard"
)

// Pool is the sharded serving handle: a hash-partitioned snapshot
// generation (qgen -shards N, or Client.SaveShards) served with
// scatter-gather retrieval and single-pass expansion on the replicated
// graph. It satisfies Backend through the same local runtime a Client
// embeds, here over N partitions. For the same world, a Pool returns
// bit-identical Search, Expand and SearchExpansion results to a
// single-snapshot Client at any shard count — per-shard scorers run under
// globally aggregated collection statistics and the merged ranking
// preserves the engine's (score desc, doc asc) order over global doc ids.
//
// A Pool also hot-reloads: Reload assembles the next generation off to
// the side, swaps it in atomically, and lets in-flight requests finish on
// the generation they started with (drained generations are released to
// the collector); Compact republishes through the manifest the same way.
// All methods are safe for concurrent use, including concurrently with
// Reload and Close. After Close, query-path methods return ErrClosed and
// the zero-value accessors return zero values.
//
//qlint:serving
//qlint:observed
type Pool struct {
	localRuntime
	reloads atomic.Uint64
}

// OpenPool loads every shard named by the manifest (written by qgen
// -shards N or Client.SaveShards) and assembles the sharded serving
// runtime. Manifest or shard failures — unreadable files, undecodable
// snapshots, shards from mixed generations — return an error wrapping
// ErrBadManifest. Options apply to every generation this pool ever loads,
// including reloaded ones.
func OpenPool(manifestPath string, opts ...Option) (*Pool, error) {
	var cfg clientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	set, err := shard.Load(manifestPath, cfg.sys...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	p := &Pool{}
	p.start(set, cfg, manifestPath)
	return p, nil
}

// Reload loads the generation named by manifestPath (empty = the current
// manifest path, re-read from disk) and swaps it in with zero downtime:
// requests that started on the old generation finish there, new requests
// see the new one, and the old generation is released once its last
// request drains. A failed load leaves the serving generation untouched
// and returns an error wrapping ErrBadManifest; reloading a closed pool
// returns ErrClosed. Reloads are serialized; the expansion cache starts
// cold on the new generation.
func (p *Pool) Reload(manifestPath string) error {
	ev := Event{Op: OpReload}
	return p.write(nil, &ev, func(cur *poolGeneration) error {
		if manifestPath == "" {
			manifestPath = p.manifestPath
		}
		set, err := shard.Load(manifestPath, p.cfg.sys...)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadManifest, err)
		}
		// Carry a pending delta segment into the new generation when it still
		// fits: same base document count — i.e. the reloaded manifest is the
		// same corpus the segment was ingested above (a reload after Compact
		// lands here with an already-empty delta). The engine configuration
		// needs no test: it is a constant, and store.Read refuses a snapshot
		// written under any other. A manifest with a different document count
		// supersedes the segment and drops it.
		if d := cur.set.Delta(); d.NumDocs() > 0 && d.BaseDocs() == set.GlobalDocs() {
			set = set.WithDelta(d)
		}
		p.swapLocked(newPoolGeneration(set, cur.seq+1))
		p.manifestPath = manifestPath
		p.reloads.Add(1)
		return nil
	})
}

// NumShards returns the current generation's shard count (0 once closed).
func (p *Pool) NumShards() int {
	if g := p.view(); g != nil {
		return g.set.NumShards()
	}
	return 0
}

// Generation returns the monotonically increasing sequence number of the
// currently served generation (1 for the initially opened one; 0 once
// closed).
func (p *Pool) Generation() uint64 {
	if g := p.view(); g != nil {
		return g.seq
	}
	return 0
}

// Summary is PoolStats without the per-shard rows: one generation's
// aggregate stats (its sequence number is Delta.Generation) and its shard
// count, which is all a health probe or a reload reply reads. Zero once
// closed.
func (p *Pool) Summary() (st Stats, shards int) {
	if g := p.view(); g != nil {
		st, shards = p.statsOf(g), g.set.NumShards()
	}
	return st, shards
}

// ShardStats is the size of one loaded shard.
type ShardStats struct {
	ID        int   `json:"id"`
	Documents int   `json:"documents"`
	Terms     int   `json:"terms"`
	Postings  int64 `json:"postings"`
}

// PoolStats extends the serving stats with the sharded runtime's shape:
// per-shard document/term/postings counts, the served generation's
// sequence number and how many reloads have happened.
type PoolStats struct {
	Stats
	Shards     []ShardStats `json:"shards"`
	Generation uint64       `json:"generation"`
	Reloads    uint64       `json:"reloads"`
}

// PoolStats reports the aggregate summary plus the per-shard breakdown
// and generation counters. Zero (with the lifetime reload count) once
// closed.
func (p *Pool) PoolStats() PoolStats {
	ps := PoolStats{Reloads: p.reloads.Load()}
	g := p.view()
	if g == nil {
		return ps
	}
	ps.Stats, ps.Generation = p.statsOf(g), g.seq
	ps.Shards = make([]ShardStats, g.set.NumShards())
	for i, sys := range g.set.Systems() {
		ix := sys.Engine.Index()
		ps.Shards[i] = ShardStats{
			ID:        i,
			Documents: ix.NumDocs(),
			Terms:     ix.NumTerms(),
			Postings:  ix.NumPostings(),
		}
	}
	return ps
}
