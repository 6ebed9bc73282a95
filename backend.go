package querygraph

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/store"
)

// Backend is the one serving contract of the reproduction: every runtime —
// the single-snapshot *Client and the sharded hot-reloadable *Pool (one
// local runtime over 1 or N partitions) and the *Remote coordinator of a
// qshard fleet — satisfies it, so front ends, tools and libraries program
// against interchangeable backends instead of concrete types. OpenBackend
// constructs one from any of the three serving artifacts.
//
// The method set is the serving surface, one request per call: retrieval
// (Search/SearchInto), cycle-based expansion (Expand), expansion
// retrieval (SearchExpansion), the live-index write path
// (Ingest/Compact), entity linking and titles (Link/Title), the loaded
// benchmark and state summaries (Queries/Stats/CacheStats) and the
// lifecycle (Close). ExpandRequest.Do composes two of them, Expand then
// SearchExpansion, into the paper's online method over any Backend, and
// Batch runs any of them over many inputs.
//
// All methods are safe for concurrent use. Every query- and write-path
// method takes a context and enters its runtime through one request
// envelope, so the three runtimes agree on what a call does before any
// work: a done ctx returns ctx.Err(), then a closed backend returns
// ErrClosed, then the method validates its own arguments; whichever way it
// ends, the call reports exactly one Event to the attached observers (see
// Observer). The non-erroring accessors stay harmless after Close: a
// closed Client keeps answering from its in-memory state, a closed Pool
// or Remote returns zero values.
//
//qlint:serving
type Backend interface {
	Search(ctx context.Context, query string, k int) ([]Result, error)
	// SearchInto is Search reusing dst's storage for the returned ranking
	// (dst may be nil). With the query's plan cached and a recycled dst, a
	// *Client allocates nothing and a multi-shard *Pool only its goroutine
	// fan-out (TestSearchIntoSteadyStateAllocs pins both); callers that
	// loop over queries — the benchmark harness's search workloads and
	// probes — pass each ranking back as the next dst. The backend does
	// not retain query or dst beyond the call.
	SearchInto(ctx context.Context, query string, k int, dst []Result) ([]Result, error)
	Expand(ctx context.Context, keywords string, opts ...ExpandOption) (*Expansion, error)
	SearchExpansion(ctx context.Context, exp *Expansion, k int) ([]Result, bool, error)
	// Ingest appends documents to the backend's in-memory delta segment;
	// they are searchable by the time the call returns and survive into the
	// next compaction. The batch is atomic: on any error (duplicate
	// external id, ErrDeltaFull, ErrClosed, ErrReadOnly on a backend that
	// cannot accept writes) no document is admitted. The backend does not
	// retain docs beyond the call.
	Ingest(ctx context.Context, docs []Document) (IngestStats, error)
	// Compact folds the delta segment into a fresh base generation and
	// hot-swaps it — zero downtime, in-flight requests drain on the old
	// generation. An empty delta is a successful no-op with the generation
	// unchanged. Search results are identical before and after.
	Compact(ctx context.Context) (CompactStats, error)
	Link(keywords string) []Entity
	Title(id NodeID) string
	Queries() []Query
	Stats() Stats
	CacheStats() CacheStats
	Close() error
}

// All three runtimes satisfy the contract — enforced at compile time.
var (
	_ Backend = (*Client)(nil)
	_ Backend = (*Pool)(nil)
	_ Backend = (*Remote)(nil)
)

// Batch runs item — one single-request call, such as a Backend's Search
// or Expand — over in on a bounded worker pool and returns the outputs in
// input order. A failing item fails the batch with the error of the
// lowest failing index, prefixed with what and that index; a panicking
// item's error, so prefixed too, is an internal one. An item served
// degraded keeps its output, and the batch returns them all alongside
// one error wrapping ErrPartialResult. Cancelling ctx stops scheduling
// the remaining items and returns ctx.Err(). An item that calls a
// Backend method is its own request: it pins its own generation and
// reports its own Event.
func Batch[In, Out any](ctx context.Context, in []In, opts BatchOptions, what string, item func(In) (Out, error)) ([]Out, error) {
	out := make([]Out, len(in))
	var degraded atomic.Bool
	err := core.ForEach(ctx, len(in), opts.Workers, func(i int) (err error) {
		out[i], err = contained(item, in[i])
		switch {
		case errors.Is(err, ErrPartialResult):
			degraded.Store(true)
		case err != nil:
			return fmt.Errorf("%s %d: %w", what, i, err)
		}
		return nil
	})
	switch {
	case err != nil:
		return nil, err
	case degraded.Load():
		return out, fmt.Errorf("%w: batch served degraded", ErrPartialResult)
	}
	return out, nil
}

// contained is item(x) with a panic turned into its error, so that Batch
// prefixes it like any other item's.
func contained[In, Out any](item func(In) (Out, error), x In) (out Out, err error) {
	defer contain(&err)
	return item(x)
}

// OpenBackend opens any serving artifact behind one constructor: a .qgs
// snapshot file (qgen -out FILE.qgs, Client.Save) yields a *Client, a
// shard manifest (qgen -shards N, Client.SaveShards) yields a *Pool, and
// a shard-fleet topology (shards with "addrs" instead of "path") yields a
// *Remote fan-out coordinator. The artifact kind is sniffed from the
// file's leading bytes — the snapshot magic versus JSON, with the two
// JSON schemas told apart by their shard entries — and the path's
// extension breaks ties for unreadably short files, so callers never
// branch on deployment shape. Open, OpenPool and OpenTopology remain the
// thin, concrete-typed forms.
func OpenBackend(path string, opts ...Option) (Backend, error) {
	kind, err := sniffArtifact(path)
	if err != nil {
		return nil, err
	}
	switch kind {
	case artifactManifest:
		return OpenPool(path, opts...)
	case artifactTopology:
		return OpenTopology(path, opts...)
	default:
		return Open(path, opts...)
	}
}

type artifactKind int

const (
	artifactSnapshot artifactKind = iota
	artifactManifest
	artifactTopology
)

// sniffArtifact classifies the serving artifact at path by content: the
// snapshot store's magic bytes mean a .qgs snapshot, a leading '{' means
// one of the JSON artifacts — a shard manifest (shard entries carry a
// "path") or a fleet topology (shard entries carry "addrs"). Files too
// short or too ambiguous for any rule fall back to the extension
// (.json = manifest), and a miss on every rule is reported as a bad
// snapshot — the decoder's error domain for "not a serving artifact".
func sniffArtifact(path string) (artifactKind, error) {
	f, err := os.Open(path)
	if err != nil {
		return artifactSnapshot, err
	}
	defer f.Close()
	header := make([]byte, len(store.Magic))
	// ReadFull, not a bare Read: a partial first read (pipe, networked
	// filesystem) must not misclassify a valid artifact as too short.
	n, _ := io.ReadFull(f, header)
	header = header[:n]
	if string(header) == store.Magic {
		return artifactSnapshot, nil
	}
	if trimmed := bytes.TrimLeft(header, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '{' {
		return classifyJSON(f)
	}
	if strings.HasSuffix(path, ".json") {
		return artifactManifest, nil
	}
	if len(header) < len(store.Magic) {
		return artifactSnapshot, fmt.Errorf("%w: %s: %d-byte file is neither a snapshot nor a shard manifest",
			ErrBadSnapshot, path, n)
	}
	// Neither magic nor JSON nor a .json path: let the snapshot decoder
	// produce its precise bad-magic error.
	return artifactSnapshot, nil
}

// classifyJSON tells the two JSON artifacts apart by probing the shard
// entries: addresses mean a fleet topology, paths (or anything else,
// including malformed JSON) mean a shard manifest, whose strict decoder
// owns the error reporting.
func classifyJSON(f *os.File) (artifactKind, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return artifactManifest, nil
	}
	var probe struct {
		Shards []struct {
			Path  string   `json:"path"`
			Addrs []string `json:"addrs"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(f).Decode(&probe); err != nil {
		return artifactManifest, nil
	}
	for _, sh := range probe.Shards {
		if len(sh.Addrs) > 0 && sh.Path == "" {
			return artifactTopology, nil
		}
	}
	return artifactManifest, nil
}
