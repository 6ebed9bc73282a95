package querygraph

import (
	"context"
	"fmt"
	"io"
	"os"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/eval"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/shard"
	"github.com/querygraph/querygraph/internal/store"
)

// Client is the single-snapshot serving handle of the reproduction: one
// loaded (or built) knowledge base, document collection, search engine and
// entity linker, safe for concurrent use. It satisfies Backend, and it is
// the N=1 case of the sharded runtime — the same generation-pinned
// machinery a Pool runs, over the Set of one unsharded system, where the
// scatter short-circuits to the engine's own allocation-free search.
// Every query-path method takes a context.Context; a context that is
// already done returns ctx.Err() without running any pipeline, and
// cancelling mid-call stops batch scheduling and abandons cache waits as
// documented per method. After Close, query-path methods return ErrClosed.
//
// A Client is also a live index: Ingest appends documents to an in-memory
// delta segment searched alongside the base snapshot, and Compact folds
// the segment into a fresh in-memory base generation. What is the
// Client's alone is below: its constructors, Save/SaveShards, Evaluate
// and the research pipeline (analysis.go), which pins a generation like
// any request but reads its base snapshot only.
//
//qlint:serving
type Client struct {
	localRuntime
}

// newClient assembles a serving client around a loaded system.
func newClient(sys *core.System, queries []Query, cfg clientConfig) *Client {
	c := &Client{}
	c.start(shard.Single(sys, queries), cfg, "")
	return c
}

// Open loads a .qgs snapshot file written by Save (or qgen -out FILE.qgs)
// and assembles a serving Client around it. Startup is a decode, not a
// rebuild. File-system errors are returned as-is; a file that cannot be
// decoded returns an error wrapping ErrBadSnapshot.
func Open(path string, opts ...Option) (*Client, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return OpenReader(f, opts...)
}

// OpenReader is Open over an arbitrary reader of snapshot bytes. Any
// decode failure — wrong magic, version, checksum, truncation, or a
// failing reader — returns an error wrapping ErrBadSnapshot.
func OpenReader(r io.Reader, opts ...Option) (*Client, error) {
	var cfg clientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	sys, qs, err := core.LoadSystem(r, cfg.sys...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return newClient(sys, qs, cfg), nil
}

// Build assembles a Client directly from a generated world: it indexes the
// collection, builds the engine and the entity linker, and adopts the
// world's query benchmark. See GenerateWorld.
func Build(world *World, opts ...Option) (*Client, error) {
	if world == nil {
		return nil, fmt.Errorf("%w: nil world", ErrInvalidOptions)
	}
	var cfg clientConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	sys, err := core.FromWorld(world, cfg.sys...)
	if err != nil {
		return nil, err
	}
	return newClient(sys, core.QueriesFromWorld(world), cfg), nil
}

// archive is the cold-rebuild form of the client's current state: the
// base snapshot, with a non-empty delta folded in (shard.Fold at N=1) —
// its documents renumbered into the global ids they already serve under,
// the positional indexes merged. Save and SaveShards feed from it, so the
// written artifact is the one a from-scratch build over the same
// documents would produce and ingested documents survive a save/load.
func (c *Client) archive() (*store.Archive, error) {
	set := c.view().set
	if set.Delta().NumDocs() == 0 {
		return set.Systems()[0].Archive(set.Queries()), nil
	}
	archives, err := shard.Fold(set, set.Delta())
	if err != nil {
		return nil, err
	}
	return archives[0], nil
}

// Save writes the client's complete serving state plus its query benchmark
// as a versioned, checksummed binary snapshot; Open on the written bytes
// serves bit-identical results. A non-empty delta segment is folded into
// the written snapshot.
func (c *Client) Save(w io.Writer) error {
	arch, err := c.archive()
	if err != nil {
		return err
	}
	return store.Write(w, arch)
}

// SaveShards hash-partitions the client's serving state (delta documents
// included, like Save) into shards per-shard snapshots plus a
// manifest.json inside dir (created if needed): the knowledge graph and
// query benchmark are replicated into every shard, the corpus and index
// are partitioned by document id, and the global collection statistics
// are recorded in each shard so OpenPool on the manifest serves
// bit-identical results to this client. The manifest
// is written last via an atomic rename, so a concurrent Pool.Reload sees
// either the old generation or the new one.
func (c *Client) SaveShards(dir string, shards int) error {
	if shards < 1 {
		return fmt.Errorf("%w: shard count %d must be >= 1", ErrInvalidOptions, shards)
	}
	arch, err := c.archive()
	if err != nil {
		return err
	}
	_, err = shard.WriteShards(dir, arch, shards)
	return err
}

// Evaluate writes the paper's title query for the given articles (exact
// phrases; the raw keywords back the query off when no article has a
// usable title) and scores the retrieval against the relevant documents:
// it returns the objective O (precision averaged over the paper's rank
// cutoffs) and the ranked top-15 document ids. It retrieves through the
// pinned serving generation like Search, so ingested documents count and
// the ranking does not move at Compact. An article the graph does not have
// is an ErrInvalidQuery.
func (c *Client) Evaluate(ctx context.Context, keywords string, articles []NodeID, relevant []int32) (float64, []int32, error) {
	g, err := c.pin(ctx)
	if err != nil {
		return 0, nil, err
	}
	defer g.release()
	node, ok, err := g.sys().TitleQuery(keywords, articles)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
	}
	if !ok {
		return 0, nil, nil // nothing to search for: zero precision by definition
	}
	rs, err := g.set.Search(ctx, node, MaxRank)
	if err != nil {
		return 0, nil, fmt.Errorf("querygraph: evaluate: %w", err)
	}
	ranked := search.Docs(rs)
	return eval.O(ranked, eval.NewRelevance(relevant)), ranked, nil
}
