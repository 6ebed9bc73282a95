package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/synth"
)

var (
	testServerOnce sync.Once
	testServerVal  *Server
)

// testServer is one unsharded shard server over a small synthetic world,
// built once per test binary.
func testServer(tb testing.TB) *Server {
	tb.Helper()
	testServerOnce.Do(func() {
		cfg := synth.Default()
		cfg.Topics, cfg.ArticlesPerTopic, cfg.DocsPerTopic, cfg.Queries, cfg.NoiseVocab = 6, 10, 14, 8, 60
		w, err := synth.Generate(cfg)
		if err != nil {
			panic(err)
		}
		sys, err := core.FromWorld(w)
		if err != nil {
			panic(err)
		}
		if testServerVal, err = NewServer(sys.Archive(core.QueriesFromWorld(w))); err != nil {
			panic(err)
		}
	})
	return testServerVal
}

// serveLoopback serves a fresh server over the test world on loopback,
// under the request hook mkHook builds for it (nil: none), and returns its
// address; the server is closed when the test ends.
func serveLoopback(t *testing.T, mkHook func(*Server) RequestHook) string {
	t.Helper()
	ref := testServer(t)
	srv := &Server{sys: ref.sys, queries: ref.queries, ident: ref.ident, conns: make(map[net.Conn]*connState)}
	if mkHook != nil {
		srv.SetRequestHook(mkHook(srv))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(context.Background(), ln)
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})
	return ln.Addr().String()
}

// scatterPair is a plan request body for the test world's first benchmark
// query and the top-k request body a coordinator of a one-shard fleet
// would follow it with.
func scatterPair(tb testing.TB, k int) (plan, topk []byte) {
	tb.Helper()
	s := testServer(tb)
	plan = AppendTextQuery(nil, s.queries[0].Keywords)
	reply, err := ParseResponse(s.handle(context.Background(), append([]byte{Version, byte(OpPlan), 0, 0}, plan...), &connMemo{}))
	if err != nil {
		tb.Fatal(err)
	}
	r := NewReader(reply)
	cfs, ok := ReadPlanReply(r, nil)
	if err := r.Done(); err != nil || !ok || len(cfs) == 0 {
		tb.Fatalf("plan reply: %d leaves, searchable %v, err %v", len(cfs), ok, err)
	}
	return plan, AppendTopKRequest(nil, plan, k, s.ident.GlobalTokens, cfs)
}

// TestPipelinedPair: a plan and a top-k request written together are
// answered in order, with exactly the replies two separate exchanges get.
func TestPipelinedPair(t *testing.T) {
	addr := serveLoopback(t, nil)
	plan, topk := scatterPair(t, 5)
	deadline := time.Now().Add(5 * time.Second)

	apart, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer apart.Close()
	wantPlan, err := apart.Do(OpPlan, plan, deadline, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantTopK, err := apart.Do(OpTopK, topk, deadline, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rs, ok := ReadTopKReply(NewReader(wantTopK)); !ok || len(rs) == 0 {
		t.Fatalf("top-k reply ranks %d documents, searchable %v", len(rs), ok)
	}

	conn, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for round := 0; round < 2; round++ { // the second pair meets a warm memo
		if err := conn.Queue(OpPlan, plan, deadline, 0); err != nil {
			t.Fatal(err)
		}
		if err := conn.Queue(OpTopK, topk, deadline, 7); err != nil {
			t.Fatal(err)
		}
		if err := conn.Flush(); err != nil {
			t.Fatal(err)
		}
		for i, want := range [][]byte{wantPlan, wantTopK} {
			got, err := conn.Receive()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("round %d reply %d = %x, %v; want %x", round, i, got, err, want)
			}
		}
	}
	if conn.Broken() {
		t.Error("the connection is broken after two clean pairs")
	}
}

// TestConnMemoIsPure: whatever a connection planned last, every request
// gets the reply a connection with no memory gives — and the top-k request
// that follows its plan request scores the remembered plan.
func TestConnMemoIsPure(t *testing.T) {
	s := testServer(t)
	ctx := context.Background()
	plan, topk := scatterPair(t, 3)
	other := AppendTextQuery(nil, s.queries[1].Keywords)
	exp := AppendExpansionQuery(nil, &core.Expansion{Keywords: s.queries[0].Keywords})
	frame := func(op Op, body []byte) []byte { return append([]byte{Version, byte(op), 0, 0}, body...) }

	var memo connMemo
	for i, req := range [][]byte{
		frame(OpPlan, plan), frame(OpTopK, topk), frame(OpPlan, other), frame(OpTopK, topk),
		frame(OpPlan, exp), frame(OpPlan, exp), frame(OpPlan, []byte{9}), frame(OpTopK, topk), frame(OpHealthz, nil),
	} {
		got, want := s.handle(ctx, req, &memo), s.handle(ctx, req, &connMemo{})
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d: reply with a memo %x, without %x", i, got, want)
		}
	}
	if !bytes.Equal(memo.query, plan) {
		t.Errorf("memo holds %x, want the last planned query %x", memo.query, plan)
	}

	// That the memo is what answers is shown by poisoning it: were it
	// consulted, the planned query now has nothing to search for.
	s.handle(ctx, frame(OpPlan, plan), &memo)
	memo.plan = nil
	if got, want := s.handle(ctx, frame(OpTopK, topk), &memo), []byte{Version, statusOK, 0}; !bytes.Equal(got, want) {
		t.Errorf("the top-k request after its plan request planned again: reply %x, want the poisoned memo's %x", got, want)
	}
}

// TestCloseDeliversPipelinedReplies: Close landing between the two
// requests of a pipelined pair still delivers the reply already written —
// the connection counts as busy while a reply is unflushed — and the
// request not yet handled sees the connection end.
func TestCloseDeliversPipelinedReplies(t *testing.T) {
	closed := make(chan struct{})
	addr := serveLoopback(t, func(srv *Server) RequestHook {
		return func(op Op, _ uint64, _ time.Time, _ time.Duration, _ string) {
			if op != OpPlan {
				return
			}
			go func() {
				defer close(closed)
				_ = srv.Close()
			}()
			for !srv.isClosed() {
				runtime.Gosched()
			}
		}
	})
	plan, topk := scatterPair(t, 5)
	conn, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	if err := conn.Queue(OpPlan, plan, deadline, 0); err != nil {
		t.Fatal(err)
	}
	if err := conn.Queue(OpTopK, topk, deadline, 0); err != nil {
		t.Fatal(err)
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Receive()
	if err != nil {
		t.Fatalf("the plan reply written before Close was not delivered: %v", err)
	}
	if _, ok := ReadPlanReply(NewReader(reply), nil); !ok {
		t.Errorf("plan reply %x is not searchable", reply)
	}
	if _, err := conn.Receive(); err == nil {
		t.Error("a request read after Close was answered")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

// TestPanicContainedToRequest: a request whose handling panics is answered
// with an internal error and forgets its connection's memo, and the server
// goes on answering that connection and new ones.
func TestPanicContainedToRequest(t *testing.T) {
	hook := func(op Op, _ uint64, _ time.Time, _ time.Duration, _ string) {
		if op == OpPlan {
			panic("hook panicked")
		}
	}
	isPanicReply := func(err error) bool {
		var rerr *RemoteError
		return errors.As(err, &rerr) && rerr.Class == ClassInternal && strings.Contains(rerr.Msg, "plan request panicked: hook panicked")
	}
	plan, topk := scatterPair(t, 5)

	ref := testServer(t)
	s := &Server{sys: ref.sys, queries: ref.queries, ident: ref.ident}
	s.SetRequestHook(hook)
	var memo connMemo
	resp := s.serve(context.Background(), append([]byte{Version, byte(OpPlan), 0, 0}, plan...), &memo)
	if _, err := ParseResponse(resp); !isPanicReply(err) {
		t.Errorf("reply %x (%v), want an internal error naming the panic", resp, err)
	}
	if memo.query != nil || memo.plan != nil {
		t.Errorf("the memo outlived the panic: %x", memo.query)
	}

	addr := serveLoopback(t, func(*Server) RequestHook { return hook })
	deadline := time.Now().Add(5 * time.Second)
	conn, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Do(OpPlan, plan, deadline, 0); !isPanicReply(err) {
		t.Fatalf("panicking plan request: err = %v, want its internal error", err)
	}
	if reply, err := conn.Do(OpTopK, topk, deadline, 0); err != nil {
		t.Fatalf("the same connection after the panic: %v", err)
	} else if rs, ok := ReadTopKReply(NewReader(reply)); !ok || len(rs) == 0 {
		t.Errorf("top-k after the panic ranks %d documents, searchable %v", len(rs), ok)
	}
	other, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := other.Do(OpHealthz, nil, deadline, 0); err != nil {
		t.Fatalf("a new connection after the panic: %v", err)
	}
}

// TestReadFrameBelievesOnlyArrivedBytes: a bare length prefix of MaxFrame
// costs a small multiple of the bytes that follow it, not 64 MB.
func TestReadFrameBelievesOnlyArrivedBytes(t *testing.T) {
	frame := append(binary.AppendUvarint(nil, MaxFrame), make([]byte, 1000)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a frame cut after 1000 of 64M bytes was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("reading it allocated %d bytes", got)
	}

	// An honest large frame still arrives whole.
	big := bytes.Repeat([]byte{0xCD}, 3<<20+17)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, big); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFrame(bufio.NewReader(&buf)); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("3 MB frame: %d bytes, %v", len(got), err)
	}
}

// TestScatterMessagesWire pins the plan/top-k bodies to the bytes every
// earlier build writes by hand, and their decoders against hostile counts.
func TestScatterMessagesWire(t *testing.T) {
	query := AppendTextQuery(nil, "ab")
	if want := []byte{QueryText, 2, 'a', 'b'}; !bytes.Equal(query, want) {
		t.Fatalf("text query = %x, want %x", query, want)
	}
	if got, want := AppendTopKRequest(nil, query, -1, 300, []int64{0, 128}), []byte{QueryText, 2, 'a', 'b', 1, 0xAC, 2, 2, 0, 0x80, 1}; !bytes.Equal(got, want) {
		t.Fatalf("top-k request = %x, want %x", got, want)
	}
	r := NewReader([]byte{1, 0xAC, 2, 2, 0, 0x80, 1})
	if k, tokens, cfs := ReadTopKRequest(r); r.Done() != nil || k != -1 || tokens != 300 || !reflect.DeepEqual(cfs, []int64{0, 128}) {
		t.Fatalf("top-k request decodes to %d, %d, %v (%v)", k, tokens, cfs, r.Err())
	}
	r = NewReader([]byte{1, 2, 5, 0x80, 1})
	if cfs, ok := ReadPlanReply(r, make([]int64, 1, 8)); r.Done() != nil || !ok || !reflect.DeepEqual(cfs, []int64{5, 128}) {
		t.Fatalf("plan reply decodes to %v, %v (%v)", cfs, ok, r.Err())
	}
	if got := AppendTopKReply(AppendPlanReply(nil, nil), nil, false); !bytes.Equal(got, []byte{0, 0}) {
		t.Fatalf("unsearchable replies = %x, want 00 00", got)
	}

	// A count of 2³¹−1 in front of a few bytes fails the reader and sizes
	// nothing: neither an allocation nor a two-billion-step loop.
	hostile := binary.AppendUvarint(nil, 1<<31-1)
	decoders := map[string]func(*Reader){
		"plan reply":    func(r *Reader) { ReadPlanReply(r, nil) },
		"top-k request": func(r *Reader) { ReadTopKRequest(r) },
		"top-k reply":   func(r *Reader) { ReadTopKReply(r) },
		"results":       func(r *Reader) { ReadResults(r) },
		"queries":       func(r *Reader) { ReadQueries(r) },
		"query bytes":   func(r *Reader) { ReadQueryBytes(r) },
	}
	prefix := map[string][]byte{"plan reply": {1}, "top-k request": {2, 3}, "top-k reply": {1}, "query bytes": {QueryExpansion, 0}}
	for name, decode := range decoders {
		body := append(append(prefix[name], hostile...), 1, 2, 3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(body)
		decode(r)
		runtime.ReadMemStats(&after)
		if r.Err() == nil {
			t.Errorf("%s: a count of 2^31-1 over 3 bytes was accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes", name, got)
		}
	}
}
