package querygraph

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"github.com/querygraph/querygraph/internal/core"
)

// request is what one request runs on once its runtime's gate has let it
// in: a pinned generation on the local runtime, the coordinator itself —
// counted in the in-flight drain Close waits on — on a Remote. release
// ends the request; the other methods are the steps the query path is
// made of.
type request interface {
	// search parses one query text and scores it to its top k, into dst's
	// storage; a syntax error wraps ErrInvalidQuery.
	search(ctx context.Context, query string, k int, dst []Result) ([]Result, error)
	// expand runs one expansion and reports how the expansion cache served
	// it.
	expand(ctx context.Context, keywords string, eopts core.ExpanderOptions) (*Expansion, CacheOutcome, error)
	// searchExpansion retrieves an expansion's title query; ok=false means
	// the expansion had nothing to search for.
	searchExpansion(ctx context.Context, exp *Expansion, k int) (results []Result, ok bool, err error)
	// shards is the shard count serving the request.
	shards() int
	release()
}

// queryPath is the Backend query path, written once for every runtime:
// the query methods and the read envelope they enter through. The local
// runtime and the Remote coordinator embed it, each supplying its gate
// and the per-request steps of request; the request policy — gate order,
// one event per call — lives here alone.
//
//qlint:serving
//qlint:observed
type queryPath struct {
	// enter is the runtime's gate: it pins what one request runs on until
	// its release, or fails with ErrClosed once the runtime is closed.
	enter func() (request, error)
	obs   observers
}

// read is the read-path envelope, the one place a request meets its
// runtime: a dead ctx fails with ctx.Err(), a closed runtime with ErrClosed
// (in that order, before any work — validation errors come from work, so
// they rank third), otherwise work runs on what the gate pinned for it,
// which on the local runtime is the generation current at call time, even
// if an ingest, compaction or reload lands meanwhile. A panic in work is
// the request's internal error, stack included, and the pin is released
// all the same. ev arrives carrying what the caller knows up front; read
// adds Shards once the gate has let the request in and emits after the
// release, so a slow observer never holds a retired generation back from
// draining.
func (q *queryPath) read(ctx context.Context, ev *Event, work func(r request) error) error {
	start := time.Now()
	err := func() (err error) {
		if err = ctx.Err(); err != nil {
			return err
		}
		r, err := q.enter()
		if err != nil {
			return err
		}
		defer r.release()
		defer contain(&err)
		ev.Shards = r.shards()
		return work(r)
	}()
	q.obs.emit(ev, start, err)
	return err
}

// contain, deferred, turns a panic in the request it is deferred in into
// that request's error, stack included, as core.ForEach does for a batch
// item: the caller gets an internal error instead of a crash, and the
// envelope still releases what it pinned and emits the one event.
func contain(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("querygraph: request panicked: %v\n%s", p, debug.Stack())
	}
}

// Search parses the INDRI-style query text (bare keywords, #combine,
// #weight, #1 exact phrases) and returns the top k documents by descending
// Dirichlet-smoothed query likelihood (ties broken by ascending doc id;
// k <= 0 ranks every candidate; no match returns an empty non-nil slice).
// On a Pool the query scatters to every shard, scores under global
// statistics and merges to the global top k — the same ranking, bit for
// bit; a Remote does the same across its fleet, and under the "degrade"
// policy a response missing shards returns the surviving ranking AND an
// error wrapping ErrPartialResult. A done ctx returns ctx.Err() without
// searching.
func (q *queryPath) Search(ctx context.Context, query string, k int) ([]Result, error) {
	return q.SearchInto(ctx, query, k, nil)
}

// SearchInto is Search scoring straight into dst's storage (dst may be
// nil). At steady state — the query's parsed plan already in the engine's
// memoized cache, dst recycled by the caller — a Client allocates
// nothing: parse, postings planning, scoring scratch and the top-k heap
// all come from pools. A multi-shard Pool pays only what its concurrent
// fan-out costs, independent of k and of the query's length; a Remote
// still allocates its round trip's buffers. Neither query nor dst is
// retained beyond the call.
func (q *queryPath) SearchInto(ctx context.Context, query string, k int, dst []Result) ([]Result, error) {
	var rs []Result
	ev := Event{Op: OpSearch, K: k}
	err := q.read(ctx, &ev, func(r request) (err error) {
		rs, err = r.search(ctx, query, k, dst)
		return err
	})
	return rs, err
}

// Expand runs the online cycle-based expansion pipeline of the paper's
// conclusions for one keyword query: entity-link the keywords, induce the
// Wikipedia neighborhood, mine cycles, keep the structurally promising
// ones (dense, category ratio around 30% by default) and rank the articles
// they introduce. Options override the paper-tuned defaults; invalid
// values return an error wrapping ErrInvalidOptions. On a Pool the
// pipeline runs once, on the replicated graph, not per shard; a Remote
// runs it on one shard's replicated graph (shard 0, failing over through
// the rest).
//
// Results are memoized in a sharded LRU cache that lives with the serving
// generation (a Remote's, with the serving shard); the returned Expansion
// may be shared with other callers and must be treated as read-only, and
// concurrent identical misses may each run the pipeline and store equal
// entries. A done ctx returns ctx.Err() without touching pipeline or
// cache; a ctx that ends mid-call stops the caller's own pipeline run and
// returns ctx.Err() with nothing cached.
func (q *queryPath) Expand(ctx context.Context, keywords string, opts ...ExpandOption) (*Expansion, error) {
	var exp *Expansion
	ev := Event{Op: OpExpand}
	err := q.read(ctx, &ev, func(r request) error {
		eopts, err := normalizeExpandOptions(opts)
		if err != nil {
			return err
		}
		if exp, ev.Cache, err = r.expand(ctx, keywords, eopts); exp != nil {
			ev.Size = len(exp.Features)
		}
		return err
	})
	return exp, err
}

// ExpandAll runs Expand for every keyword query on a bounded worker pool
// and returns the expansions in input order. Repeated keywords are served
// from the expansion cache once one of them has been expanded. Cancelling
// ctx stops scheduling, stops the expansions under way, and returns
// ctx.Err(). It is not part of Backend: Batch over Expand does the same
// per item. Its last callers are the benchmark harness's fixture build
// (bench/fixture.go, on a *Client) and its serve-remote warm-up
// (bench/workloads.go, on a *Remote).
func (q *queryPath) ExpandAll(ctx context.Context, keywords []string, bopts BatchOptions, opts ...ExpandOption) ([]*Expansion, error) {
	var exps []*Expansion
	ev := Event{Op: OpBatch, Kind: BatchExpand, Size: len(keywords)}
	err := q.read(ctx, &ev, func(r request) error {
		eopts, err := normalizeExpandOptions(opts)
		if err != nil {
			return err
		}
		exps, err = Batch(ctx, keywords, bopts, "keywords", func(kw string) (*Expansion, error) {
			exp, _, err := r.expand(ctx, kw, eopts)
			return exp, err
		})
		return err
	})
	return exps, err
}

// SearchExpansion evaluates an expansion end to end: it writes the
// expanded title query (exact phrases for the query entities and every
// feature) once, on the replicated graph — on a Remote each shard writes
// it on its replica — and returns the top k documents. An expansion that
// names an article the graph does not have is an ErrInvalidQuery. ok
// reports whether the expansion had anything to search for (entities,
// features or keywords); it stays true when the search itself fails, so
// err alone signals failure.
func (q *queryPath) SearchExpansion(ctx context.Context, exp *Expansion, k int) (results []Result, ok bool, err error) {
	ev := Event{Op: OpSearch, K: k, Expanded: true}
	err = q.read(ctx, &ev, func(r request) (err error) {
		results, ok, err = r.searchExpansion(ctx, exp, k)
		return err
	})
	return results, ok, err
}
