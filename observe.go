package querygraph

import (
	"context"
	"errors"
	"time"
)

// Observer is the instrumentation seam of the serving runtimes: attach one
// with WithObserver and it receives one Event per completed operation of a
// Client, Pool or Remote — single and batch, cached and uncached, success
// and failure, including the fast-failure paths (dead context, closed
// backend, invalid options) — plus one per shard RPC attempt of a Remote.
// Observe is called synchronously on the goroutine that did the work, so
// implementations must be cheap and safe for concurrent use.
// MetricsObserver is the built-in counter implementation.
type Observer interface {
	Observe(Event)
}

// Op names the operation an Event reports.
type Op uint8

const (
	// OpSearch is one single-query retrieval: Search, SearchInto and
	// SearchExpansion (Expanded tells them apart). Batch over them reports
	// one per item.
	OpSearch Op = iota
	// OpExpand is one single-query expansion: Expand, one per item under
	// Batch. Per-item expansions inside ExpandAll surface through its one
	// OpBatch event.
	OpExpand
	// OpBatch is one ExpandAll call (Kind BatchExpand).
	OpBatch
	// OpReload is one Pool.Reload attempt (a Client or Remote never emits
	// it).
	OpReload
	// OpIngest is one Backend.Ingest call.
	OpIngest
	// OpCompact is one compaction — admin-triggered (Backend.Compact) or
	// fired by the auto-compactor (WithAutoCompact).
	OpCompact
	// OpRPC is one shard RPC attempt of the remote coordinator: every
	// attempt is reported individually — first tries, retries and hedges
	// alike — so per-shard latency and failure structure are visible even
	// when the request as a whole succeeds. It is per attempt, not per
	// request: the request that caused it still emits its own event.
	OpRPC

	numOps
)

var opNames = [numOps]string{"search", "expand", "batch", "reload", "ingest", "compact", "rpc"}

// String returns the op's instrumentation label.
func (o Op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return "unknown"
}

// BatchExpand is the batch kind ExpandAll reports in Event.Kind.
const BatchExpand = "expand"

// Event describes one completed operation. It is one flat shape for every
// Op — the same idea as a trace span — and each Op fills in the fields
// that mean something for it, leaving the rest zero:
//
//	OpSearch   K, Expanded
//	OpExpand   Cache, Size (features returned)
//	OpBatch    Kind, Size (items submitted)
//	OpReload   Generation, DeltaDocs
//	OpIngest   Size (documents submitted), DeltaDocs, Generation
//	OpCompact  Size (documents folded), DeltaDocs, Generation
//	OpRPC      Kind (protocol op), Shard, Addr, Attempt, Hedged
//
// Duration, Err and DeadlineHit are always set; Shards on every Op but
// OpRPC.
type Event struct {
	Op Op
	// Duration is the operation's wall time inside the backend (for OpRPC,
	// the attempt's, including connection checkout). A scatter writes its
	// first attempts to every shard before it reads any reply, and a
	// repeated query's top-k request rides behind its plan request, so
	// such an attempt runs from that write until the coordinator has read
	// its reply: it covers the replies read ahead of it — the shards
	// before it in the topology, the plan reply on its own connection —
	// and is the time the request spent waiting on this shard, not the
	// shard's service time (the shard's own request hook has that).
	Duration time.Duration
	// Err is the operation's error class ("" on success); see ErrorClass.
	Err string
	// Shards is the serving generation's shard count: 1 on a Client, 0
	// when the request failed its gate (dead context, closed backend)
	// before reaching a generation. The write-path ops report the count
	// being served once the operation is over.
	Shards int
	// K is the requested ranking depth (<= 0 ranks every candidate).
	K int
	// Kind is the batch kind (BatchExpand) or the shard protocol op
	// ("plan", "topk", "expand", ...).
	Kind string
	// Size counts what the operation handled: expansion features returned
	// (0 on error), batch items or documents submitted, delta documents
	// folded into the new generation (0 for the empty-delta no-op).
	Size int
	// Expanded is true when a search evaluated an expansion
	// (SearchExpansion) rather than raw query text.
	Expanded bool
	// Cache is how the expansion cache served an Expand: hit, miss, or
	// bypass when caching is disabled (and on the fast-failure paths,
	// which never reach the cache).
	Cache CacheOutcome
	// Generation is the sequence number being served once a write-path
	// operation is over — the new generation's after a reload or a real
	// compaction, the untouched old one's on failure, 0 when the gate
	// failed.
	Generation uint64
	// DeltaDocs is the delta segment's document count once a write-path
	// operation is over (a rejected batch leaves it unchanged).
	DeltaDocs int
	// Shard is the target shard's id, Addr the address this attempt hit.
	Shard int
	Addr  string
	// Attempt numbers the tries within one logical shard call (0 = first).
	Attempt int
	// Hedged is true for a speculative replica request launched because
	// the primary exceeded the hedge threshold.
	Hedged bool
	// DeadlineHit is true when the operation died on a deadline (Err is
	// "timeout") — for an RPC attempt its per-shard deadline, the
	// hanging-shard signal.
	DeadlineHit bool
}

// observers is the fan-out list a runtime carries.
type observers []Observer

// emit completes ev — the duration since start, err's class — and hands it
// to every observer. An uninstrumented backend returns before classifying
// the error, so it pays only the envelope's time.Now per request.
func (os observers) emit(ev *Event, start time.Time, err error) {
	if len(os) == 0 {
		return
	}
	ev.Duration, ev.Err = time.Since(start), ErrorClass(err)
	ev.DeadlineHit = ev.Err == "timeout"
	for _, o := range os {
		o.Observe(*ev)
	}
}

// ErrorClass maps an error from the serving API onto a small, stable label
// set for instrumentation: "" (success), "timeout", "canceled", "closed",
// "invalid_query", "invalid_options", "bad_manifest", "bad_snapshot",
// "no_benchmark", "bad_topology", "shard_unavailable", "partial_result",
// "read_only", "delta_full", or "internal" for anything else. Every
// sentinel in errors.go has a class of its own — TestErrorClassTaxonomy
// parses the sentinel declarations and fails when a new sentinel is added
// without classifying it here — and the classes mirror the HTTP error
// model cmd/qserve serves.
func ErrorClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, ErrClosed):
		return "closed"
	case errors.Is(err, ErrInvalidQuery):
		return "invalid_query"
	case errors.Is(err, ErrInvalidOptions):
		return "invalid_options"
	case errors.Is(err, ErrBadManifest):
		return "bad_manifest"
	case errors.Is(err, ErrBadSnapshot):
		return "bad_snapshot"
	case errors.Is(err, ErrNoBenchmark):
		return "no_benchmark"
	case errors.Is(err, ErrBadTopology):
		return "bad_topology"
	case errors.Is(err, ErrShardUnavailable):
		return "shard_unavailable"
	case errors.Is(err, ErrPartialResult):
		return "partial_result"
	case errors.Is(err, ErrReadOnly):
		return "read_only"
	case errors.Is(err, ErrDeltaFull):
		return "delta_full"
	default:
		return "internal"
	}
}
