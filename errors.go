package querygraph

import "errors"

// Sentinel errors of the public API. Every error returned by the package
// either is one of these (test with errors.Is), wraps a context error
// (context.Canceled / context.DeadlineExceeded from a dead ctx), or is an
// I/O error passed through from the operating system (e.g. from Open on a
// missing file).
var (
	// ErrBadSnapshot wraps every failure to decode a .qgs snapshot:
	// wrong magic, unsupported version, checksum mismatch, truncation,
	// or a short/failing reader.
	ErrBadSnapshot = errors.New("querygraph: bad snapshot")

	// ErrInvalidOptions wraps rejected option values — an inverted or
	// out-of-range category-ratio band, a non-positive feature budget,
	// and friends. The message names the offending option.
	ErrInvalidOptions = errors.New("querygraph: invalid options")

	// ErrInvalidQuery wraps query-text parse failures (unbalanced
	// #combine/#1 operators, empty query) and query inputs a call cannot
	// run on: an expansion naming an article the graph does not have, a
	// ground truth without a query graph.
	ErrInvalidQuery = errors.New("querygraph: invalid query")

	// ErrNoBenchmark is returned by benchmark-driven calls (Analyze,
	// CompareExpanders, Queries-dependent helpers) when the client was
	// opened from a snapshot that carries no query benchmark.
	ErrNoBenchmark = errors.New("querygraph: no query benchmark loaded")

	// ErrBadManifest wraps every failure to assemble a sharded generation
	// from a manifest: an unreadable or unparsable manifest file, a shard
	// snapshot that fails to decode (one saved under another engine
	// configuration included), or shards that disagree on partition
	// identity or global statistics (mixed generations). OpenPool and
	// Pool.Reload return it; a failed Reload leaves the serving generation
	// untouched.
	ErrBadManifest = errors.New("querygraph: bad shard manifest")

	// ErrClosed is returned by every query-path method of a Backend after
	// its Close: the handle is retired and will never serve again. Close
	// itself is idempotent — a second Close returns nil, not ErrClosed.
	ErrClosed = errors.New("querygraph: backend closed")

	// ErrBadTopology wraps every failure to assemble a remote coordinator
	// from a topology file: an unreadable or unparsable file, a missing or
	// duplicate shard slot, no addresses for a shard, an unknown policy,
	// or shards whose handshakes disagree on partition identity or global
	// statistics (mixed generations). OpenTopology returns it.
	ErrBadTopology = errors.New("querygraph: bad shard topology")

	// ErrShardUnavailable wraps a remote fan-out failure: a shard could
	// not be reached (dial, transport, per-shard deadline) or reported a
	// server-side failure on every configured address and retry, and the
	// topology's partial-failure policy did not permit degrading. Under
	// the "degrade" policy it is returned only when the surviving shard
	// count falls below the configured quorum.
	ErrShardUnavailable = errors.New("querygraph: shard unavailable")

	// ErrPartialResult marks a degraded remote response: one or more
	// shards were dropped under the "degrade" partial-failure policy and
	// the returned ranking covers the surviving shards only. It is the one
	// sentinel returned ALONGSIDE results — callers that accept degraded
	// service check errors.Is(err, ErrPartialResult) and keep the results;
	// cmd/qserve surfaces it as "partial": true.
	ErrPartialResult = errors.New("querygraph: partial result (one or more shards dropped)")

	// ErrReadOnly is returned by Ingest and Compact on a backend that
	// cannot accept writes — today the Remote coordinator, whose shards
	// own their snapshots; ingest against a fleet goes to the shards
	// themselves. cmd/qserve surfaces it as 409.
	ErrReadOnly = errors.New("querygraph: backend is read-only")

	// ErrDeltaFull is returned by Ingest when accepting the batch would
	// push the in-memory delta segment past its configured capacity
	// (WithDeltaCapacity). The segment is left unchanged; callers compact
	// (or wait for the auto-compactor) and retry. cmd/qserve surfaces it
	// as 429.
	ErrDeltaFull = errors.New("querygraph: delta segment full")
)
