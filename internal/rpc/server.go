package rpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/store"
)

// ErrServerClosed is returned by Serve after Close retires the server.
var ErrServerClosed = errors.New("rpc: server closed")

// Server serves one shard snapshot over the binary protocol: the
// stateless plan/top-k scatter surface, expansion on the replicated
// graph, and the handshake/stats/benchmark accessors. One Server handles
// many concurrent connections, each pipelining requests sequentially.
//
// The protocol is deliberately stateless — OpTopK carries the query again
// rather than referencing an OpPlan result — so the coordinator may retry
// or hedge any request on any replica without a session handshake. What a
// connection remembers (connMemo) is a pure memo of the query it planned
// last, never something a request depends on.
type Server struct {
	sys     *core.System
	queries []core.Query
	ident   Identity
	// docGlobal maps local doc ids to global (nil for an unsharded
	// snapshot, where local ids are global).
	docGlobal []int32

	// hook, when set (before Serve), observes every handled request.
	hook RequestHook

	mu     sync.Mutex
	closed bool
	ln     net.Listener
	conns  map[net.Conn]*connState
	wg     sync.WaitGroup
}

// RequestHook observes one handled request: the op, the originating
// trace ID from the request header (0 for an untraced request),
// when handling started and how long it took, and the error class the
// shard reported ("" on success). cmd/qshard wires this to its flight
// recorder, latency metrics and slow-request log. The hook runs on the
// connection's serve goroutine, so it must be fast and non-blocking.
type RequestHook func(op Op, traceID uint64, start time.Time, dur time.Duration, errClass string)

// SetRequestHook installs the request hook. Must be called before
// Serve; a nil hook (the default) costs one nil check per request.
func (s *Server) SetRequestHook(h RequestHook) { s.hook = h }

// connState tracks whether a connection is mid-request — or holds a
// reply it has not flushed yet — so Close can hard-close idle connections
// while busy ones deliver their responses first (the drain contract).
type connState struct {
	busy bool
}

// connMemo is the plan of the query union a connection planned last, so
// the top-k request that follows a plan request — pipelined behind it, or
// one round later — scores that plan instead of deriving the leaves and
// planning them again. plan is nil for a union with nothing to search
// for.
type connMemo struct {
	query []byte
	plan  *search.Plan
	buf   search.Plan
}

// NewServer assembles a shard server around a decoded archive. A sharded
// snapshot (qgen -shards N) carries its partition identity; a complete
// single snapshot serves as the sole shard of a one-shard fleet.
func NewServer(arch *store.Archive, opts ...core.SystemOption) (*Server, error) {
	sys, queries, err := core.SystemFromArchive(arch, opts...)
	if err != nil {
		return nil, err
	}
	s := &Server{
		sys:     sys,
		queries: queries,
		conns:   make(map[net.Conn]*connState),
	}
	s.ident = Identity{
		ShardID:      0,
		ShardCount:   1,
		GlobalDocs:   arch.Collection.Len(),
		GlobalTokens: arch.Index.TotalTokens(),
		LocalDocs:    arch.Collection.Len(),
		NumQueries:   len(queries),
	}
	if sh := arch.Shard; sh != nil {
		s.ident.ShardID = sh.ShardID
		s.ident.ShardCount = sh.ShardCount
		s.ident.GlobalDocs = sh.GlobalDocs
		s.ident.GlobalTokens = sh.GlobalTokens
		s.docGlobal = sh.DocGlobal
	}
	return s, nil
}

// LoadServerFile is NewServer over a snapshot file path — what cmd/qshard
// boots from.
func LoadServerFile(path string, opts ...core.SystemOption) (*Server, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	arch, err := store.Read(f)
	if err != nil {
		return nil, fmt.Errorf("rpc: %s: %w", path, err)
	}
	return NewServer(arch, opts...)
}

// Identity returns the served shard's partition identity.
func (s *Server) Identity() Identity { return s.ident }

// Serve accepts connections on ln until Close or ctx cancellation (which
// triggers Close). It returns nil on a clean shutdown. ctx is also the
// base context every per-request deadline derives from.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()

	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			_ = s.Close()
		case <-watchDone:
		}
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		st := &connState{}
		s.conns[conn] = st
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(ctx, conn, st)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close drains and retires the server: the listener stops accepting,
// idle connections are closed immediately, connections mid-request
// finish writing their response first, and Close returns once every
// connection goroutine has exited. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn, st := range s.conns {
		if !st.busy {
			_ = conn.Close()
		}
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// serveConn services one connection's request loop: read a frame, handle
// it, write the response, repeat — until the peer disconnects or Close
// drains the server. A response is flushed once no further request is
// already buffered, so a pipelined pair costs one write; the connection
// stays busy until then, and whatever ends the loop flushes first.
func (s *Server) serveConn(ctx context.Context, conn net.Conn, st *connState) {
	defer s.wg.Done()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	defer func() {
		_ = bw.Flush() // undelivered only if the peer is gone
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var memo connMemo
	for {
		payload, err := ReadFrame(br)
		if err != nil {
			return // peer gone, torn frame, or Close interrupted the read
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		st.busy = true
		s.mu.Unlock()

		werr := WriteFrame(bw, s.serve(ctx, payload, &memo))
		pipelined := br.Buffered() > 0
		if werr == nil && !pipelined {
			werr = bw.Flush()
		}

		s.mu.Lock()
		st.busy = pipelined
		closed := s.closed
		s.mu.Unlock()
		if werr != nil || closed {
			return
		}
	}
}

// serve is handle with a panic contained to its request: the request is
// answered with a ClassInternal error carrying the panic and its stack,
// the connection's memo — which the panic may have left half-written — is
// forgotten, and the connection goes on serving.
func (s *Server) serve(ctx context.Context, payload []byte, memo *connMemo) (resp []byte) {
	defer func() {
		if p := recover(); p != nil {
			*memo = connMemo{}
			resp = AppendErrorResponse(nil, ClassInternal, fmt.Sprintf("rpc: %s request panicked: %v\n%s", Op(payload[1]), p, debug.Stack()))
		}
	}()
	return s.handle(ctx, payload, memo)
}

// handle decodes the request header, derives the per-request deadline
// from the propagated milliseconds-remaining, and dispatches the op. The
// trace-id field is surfaced to the request hook so the process can
// attribute its work to the originating coordinator request.
func (s *Server) handle(ctx context.Context, payload []byte, memo *connMemo) []byte {
	start := time.Now()
	r := NewReader(payload)
	ver := r.Byte()
	op := Op(r.Byte())
	millis := r.Uvarint()
	traceID := r.Uvarint()
	switch {
	case len(payload) > 0 && ver != Version:
		return AppendErrorResponse(nil, ClassInternal,
			fmt.Sprintf("request speaks protocol version %d, this shard speaks %d", ver, Version))
	case r.Err() != nil:
		return AppendErrorResponse(nil, ClassInternal, "short request header")
	}
	if millis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(millis)*time.Millisecond)
		defer cancel()
	}
	resp, rerr := s.dispatch(ctx, op, r, memo)
	errClass := ""
	if rerr != nil {
		errClass = rerr.Class
		resp = AppendErrorResponse(nil, rerr.Class, rerr.Msg)
	}
	if hook := s.hook; hook != nil {
		hook(op, traceID, start, time.Since(start), errClass)
	}
	return resp
}

func (s *Server) dispatch(ctx context.Context, op Op, r *Reader, memo *connMemo) ([]byte, *RemoteError) {
	if err := ctx.Err(); err != nil {
		return nil, remoteErr(err)
	}
	switch op {
	case OpHealthz:
		return AppendIdentity(AppendOKHeader(nil), s.ident), nil
	case OpPlan:
		return s.handlePlan(r, memo)
	case OpTopK:
		return s.handleTopK(r, memo)
	case OpExpand:
		return s.handleExpand(ctx, r)
	case OpStats:
		return s.handleStats()
	case OpQueries:
		return AppendQueries(AppendOKHeader(nil), s.queries), nil
	case OpLink:
		return s.handleLink(r)
	case OpTitle:
		return s.handleTitle(r)
	default:
		return nil, &RemoteError{Class: ClassInternal, Msg: fmt.Sprintf("unknown op %d", op)}
	}
}

// malformed is the reply to a request body that did not decode, or that
// left bytes over (nil when err is nil).
func malformed(err error) *RemoteError {
	if err == nil {
		return nil
	}
	return &RemoteError{Class: ClassInternal, Msg: err.Error()}
}

// remoteErr classifies an application error for the wire.
func remoteErr(err error) *RemoteError {
	class := ClassInternal
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		class = ClassTimeout
	case errors.Is(err, context.Canceled):
		class = ClassCanceled
	}
	return &RemoteError{Class: class, Msg: err.Error()}
}

// planQuery decodes the query union r is positioned at and plans it
// against this shard — or returns the memo's plan when the union is, byte
// for byte, the one this connection planned last. A nil plan is a valid
// query with nothing to search for.
func (s *Server) planQuery(r *Reader, m *connMemo) (*search.Plan, *RemoteError) {
	query := ReadQueryBytes(r)
	if rerr := malformed(r.Err()); rerr != nil {
		return nil, rerr
	}
	if bytes.Equal(query, m.query) {
		return m.plan, nil
	}
	leaves, ok, rerr := ReadQueryLeaves(NewReader(query), s.sys)
	if rerr != nil {
		return nil, rerr
	}
	m.query, m.plan = append(m.query[:0], query...), nil
	if ok {
		m.plan = s.sys.Engine.PlanLeavesInto(&m.buf, leaves)
	}
	return m.plan, nil
}

// handlePlan is scatter phase one: derive the query's scoring leaves and
// return this shard's per-leaf local collection frequencies.
func (s *Server) handlePlan(r *Reader, m *connMemo) ([]byte, *RemoteError) {
	plan, rerr := s.planQuery(r, m)
	if rerr != nil {
		return nil, rerr
	}
	if rerr := malformed(r.Done()); rerr != nil {
		return nil, rerr
	}
	return AppendPlanReply(AppendOKHeader(nil), plan), nil
}

// handleTopK is scatter phase two: plan the query the request carries
// again (stateless — any replica can serve the retry), score under the
// supplied global statistics and return this shard's top k in the global
// doc-id space.
func (s *Server) handleTopK(r *Reader, m *connMemo) ([]byte, *RemoteError) {
	plan, rerr := s.planQuery(r, m)
	if rerr != nil {
		return nil, rerr
	}
	k, totalTokens, leafCF := ReadTopKRequest(r)
	if rerr := malformed(r.Done()); rerr != nil {
		return nil, rerr
	}
	if plan == nil {
		return AppendTopKReply(AppendOKHeader(nil), nil, false), nil
	}
	if len(leafCF) != plan.NumLeaves() {
		return nil, &RemoteError{Class: ClassInternal,
			Msg: fmt.Sprintf("query plans %d leaves on this shard, request carries %d collection frequencies", plan.NumLeaves(), len(leafCF))}
	}
	rs, err := s.sys.Engine.SearchPlanInto(plan, k, &search.Stats{TotalTokens: totalTokens, LeafCF: leafCF}, nil)
	if err != nil {
		return nil, remoteErr(err)
	}
	if s.docGlobal != nil {
		for i := range rs {
			rs[i].Doc = s.docGlobal[rs[i].Doc]
		}
	}
	return AppendTopKReply(AppendOKHeader(nil), rs, true), nil
}

// handleExpand runs the expansion pipeline on the replicated graph.
// Request body: keywords + full expander options. Response body:
// [cache-outcome byte][expansion].
func (s *Server) handleExpand(ctx context.Context, r *Reader) ([]byte, *RemoteError) {
	keywords := r.String()
	opts := ReadExpanderOptions(r)
	if rerr := malformed(r.Done()); rerr != nil {
		return nil, rerr
	}
	if err := opts.Validate(); err != nil { // the request's fault: not retried
		return nil, &RemoteError{Class: ClassInvalidOptions, Msg: err.Error()}
	}
	exp, outcome, err := s.sys.ExpandOutcome(ctx, keywords, opts)
	if err != nil {
		return nil, remoteErr(err)
	}
	b := AppendOKHeader(nil)
	b = append(b, byte(outcome))
	return AppendExpansion(b, exp), nil
}

// handleStats returns the shard's serving-state summary: the replicated
// knowledge-base shape, global document count, benchmark size and this
// shard's expansion-cache counters.
func (s *Server) handleStats() ([]byte, *RemoteError) {
	kb := s.sys.Snapshot.Stats()
	return AppendStats(AppendOKHeader(nil), Stats{
		Articles:         kb.Articles,
		Redirects:        kb.Redirects,
		Categories:       kb.Categories,
		Links:            kb.Links,
		Documents:        s.ident.GlobalDocs,
		BenchmarkQueries: len(s.queries),
		Cache:            s.sys.ExpandCacheStats(),
	}), nil
}

// handleLink entity-links keywords against the replicated graph.
// Response body: uvarint n, then n × (uvarint node id, title).
func (s *Server) handleLink(r *Reader) ([]byte, *RemoteError) {
	keywords := r.String()
	if rerr := malformed(r.Done()); rerr != nil {
		return nil, rerr
	}
	ids := s.sys.LinkKeywords(keywords)
	b := AppendOKHeader(nil)
	b = AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = AppendUvarint(b, uint64(id))
		b = AppendString(b, s.sys.Snapshot.Name(id))
	}
	return b, nil
}

// handleTitle resolves one node id to its display title: "" for an id the
// graph does not have, as the in-process runtimes answer it. An id wider
// than a node id is a malformed request.
func (s *Server) handleTitle(r *Reader) ([]byte, *RemoteError) {
	id := r.Uvarint()
	if uint64(graph.NodeID(id)) != id {
		r.Failf("node id %d does not fit a node id", id)
	}
	if rerr := malformed(r.Done()); rerr != nil {
		return nil, rerr
	}
	b := AppendOKHeader(nil)
	return AppendString(b, s.sys.Snapshot.Name(graph.NodeID(id))), nil
}
