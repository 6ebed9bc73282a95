// Package rpc is the compact binary shard protocol of the distributed
// serving runtime: a qshard server (cmd/qshard) exposes one shard
// snapshot's plan-leaves / top-k / expand / stats surface over
// length-prefixed frames, and the fan-out coordinator
// (querygraph.OpenTopology) scatters requests across a fleet of them.
//
// Framing: every message is one frame — a uvarint payload length followed
// by the payload, capped at MaxFrame. A request payload is
//
//	[version byte][op byte][uvarint deadline-millis][uvarint trace-id][op-specific body]
//
// where the trace ID is the originating request's 64-bit trace ID, so a
// shard can attribute its server-side work to the coordinator request
// that caused it (0 = untraced). Both ends speak exactly Version and
// refuse any other, so a coordinator and its shards upgrade together. A
// response payload is
//
//	[version byte][status byte][body]
//
// where status 0 carries an op-specific body and status 1 carries an
// error as two length-prefixed strings: a stable class label (the
// querygraph.ErrorClass taxonomy, so instrumentation labels survive the
// wire) and a human message. The deadline is propagated as milliseconds
// remaining — an absolute clock would need synchronized hosts — and 0
// means "no deadline".
//
// Requests may be pipelined: a client may write several request frames on
// a connection before reading any reply, and replies come back in request
// order. The server flushes its replies when no further request is already
// buffered on the connection, so a pipelined pair is answered in one
// write. A client writes every request before it reads, so only the last
// reply of a pipeline may be large — an earlier one that filled the
// socket would block the server against a client still writing.
//
// Body encoding is varint-first: unsigned counts and ids as uvarints,
// signed scalars zigzag-encoded, float64 as 8 little-endian bytes of the
// IEEE bits (scores must survive bit-exactly for the coordinator's merge
// to reproduce the single-system ranking), strings and lists
// length-prefixed. Queries travel as raw text (or as an expansion's
// keywords + article ids): every shard re-derives the scoring leaves
// locally through its memoized leaf cache, which is both cheaper than
// shipping leaves and guarantees the leaves agree with the shard's
// analyzer configuration.
package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/querygraph/querygraph/internal/store"
)

// Version is the one protocol version this build speaks; a peer speaking
// any other is rejected before any body decoding. v2 added the trace-id
// request header field, v3 dropped the engine configuration from the
// OpHealthz identity.
const Version = 3

// MaxFrame bounds one frame's payload. Top-k responses with k <= 0 rank
// every candidate document, so the cap is sized for whole-shard rankings,
// not just top-15s.
const MaxFrame = 64 << 20

// Op identifies one request kind.
type Op byte

// The protocol's operations.
const (
	// OpHealthz is the handshake: it returns the shard's partition
	// identity and global collection statistics, which the coordinator
	// cross-validates against the topology before serving.
	OpHealthz Op = 1
	// OpPlan is scatter phase one: plan the query's scoring leaves
	// against this shard and return the per-leaf local collection
	// frequencies for global aggregation.
	OpPlan Op = 2
	// OpTopK is scatter phase two: score the query under the supplied
	// global statistics and return this shard's top k in the global
	// doc-id space.
	OpTopK Op = 3
	// OpExpand runs the cycle-based expansion pipeline on the shard's
	// replicated graph (any shard answers identically).
	OpExpand Op = 4
	// OpStats returns the shard's serving-state summary.
	OpStats Op = 5
	// OpQueries returns the replicated query benchmark.
	OpQueries Op = 6
	// OpLink entity-links keywords against the replicated graph.
	OpLink Op = 7
	// OpTitle resolves one node id to its display title.
	OpTitle Op = 8
)

// String returns the op's stable metric label.
func (o Op) String() string {
	switch o {
	case OpHealthz:
		return "healthz"
	case OpPlan:
		return "plan"
	case OpTopK:
		return "topk"
	case OpExpand:
		return "expand"
	case OpStats:
		return "stats"
	case OpQueries:
		return "queries"
	case OpLink:
		return "link"
	case OpTitle:
		return "title"
	default:
		return fmt.Sprintf("op%d", byte(o))
	}
}

// Response status bytes.
const (
	statusOK  = 0
	statusErr = 1
)

// Query kind tags of the plan/top-k query union.
const (
	// QueryText is raw INDRI-style query text.
	QueryText = 0
	// QueryExpansion is an expansion's title query: the keywords plus the
	// combined article list (query articles then feature nodes); the
	// shard rebuilds the expanded title query on its replicated graph.
	QueryExpansion = 1
)

// RemoteError is an application-level error a shard reported in a
// response frame: the shard answered, the request failed. Class is the
// stable querygraph.ErrorClass label the shard chose, so the coordinator
// can map it back onto the public sentinel taxonomy. Transport failures
// (dial, I/O, framing) are ordinary errors, never a RemoteError — the
// distinction is what separates "the request is bad" from "the shard is
// unavailable" in the coordinator's partial-failure policy.
type RemoteError struct {
	Class string
	Msg   string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("shard error (%s): %s", e.Class, e.Msg)
}

// Error classes a shard can report (mirroring querygraph.ErrorClass).
const (
	ClassTimeout        = "timeout"
	ClassCanceled       = "canceled"
	ClassClosed         = "closed"
	ClassInvalidQuery   = "invalid_query"
	ClassInvalidOptions = "invalid_options"
	ClassInternal       = "internal"
)

// --- frame I/O ---------------------------------------------------------

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("rpc: frame of %d bytes exceeds MaxFrame %d", len(payload), MaxFrame)
	}
	if bw, ok := w.(*bufio.Writer); ok {
		// The connections' path: the prefix is built in the writer's own
		// buffer (hdr below escapes through the interface, an allocation
		// per frame), and a failed write is sticky, so the next reports it.
		_, _ = bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), uint64(len(payload))))
		_, err := bw.Write(payload)
		return err
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame, enforcing MaxFrame and
// believing the prefix only as far as bytes arrive (store.ReadDeclared). A
// clean EOF before the first length byte surfaces as io.EOF (connection
// closed between requests); anything torn mid-frame is an unexpected-EOF
// error.
func ReadFrame(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("rpc: incoming frame of %d bytes exceeds MaxFrame %d", n, MaxFrame)
	}
	return store.ReadDeclared(br, n)
}

// --- append-style encoders ---------------------------------------------

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v zigzag-encoded.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendF64 appends the 8 little-endian bytes of f's IEEE-754 bits —
// bit-exact round-tripping, which the coordinator's ranking merge
// requires.
func AppendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// --- sticky-error decoder ----------------------------------------------

// Reader is the bounded, sticky-error decoder both binary formats share
// (store.Reader): a message decoder reads a whole body and checks Err or
// Done once.
type Reader = store.Reader

// NewReader wraps a message body.
func NewReader(b []byte) *Reader { return store.NewReader("rpc: message", b) }

// --- error responses ---------------------------------------------------

// AppendErrorResponse builds an error response payload.
func AppendErrorResponse(b []byte, class, msg string) []byte {
	b = append(b, Version, statusErr)
	b = AppendString(b, class)
	return AppendString(b, msg)
}

// AppendOKHeader starts a success response payload.
func AppendOKHeader(b []byte) []byte {
	return append(b, Version, statusOK)
}

// ParseResponse splits a response payload into its body, surfacing a
// shard-reported error as *RemoteError and a version/framing problem as a
// plain error.
func ParseResponse(payload []byte) ([]byte, error) {
	r := NewReader(payload)
	ver := r.Byte()
	status := r.Byte()
	if r.Err() != nil {
		return nil, fmt.Errorf("rpc: short response header")
	}
	if ver != Version {
		return nil, fmt.Errorf("rpc: response speaks protocol version %d, this build speaks %d", ver, Version)
	}
	switch status {
	case statusOK:
		return r.Rest(), nil
	case statusErr:
		class := r.String()
		msg := r.String()
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("rpc: malformed error response: %w", err)
		}
		return nil, &RemoteError{Class: class, Msg: msg}
	default:
		return nil, fmt.Errorf("rpc: unknown response status %d", status)
	}
}
