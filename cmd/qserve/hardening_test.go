package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	querygraph "github.com/querygraph/querygraph"
	"github.com/querygraph/querygraph/internal/trace"
)

// TestHTTPServerTimeoutsConfigured pins the production timeout shape: the
// server used to set only ReadHeaderTimeout, leaving slow-body and idle
// keep-alive connections unbounded.
func TestHTTPServerTimeoutsConfigured(t *testing.T) {
	reqTimeout := 5 * time.Second
	srv := newHTTPServer(":0", nil, reqTimeout)
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset")
	}
	if srv.ReadTimeout <= reqTimeout {
		t.Errorf("ReadTimeout %v not above the per-request deadline %v: a legitimate slow request would be killed at the TCP level instead of getting its 408", srv.ReadTimeout, reqTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: idle keep-alive connections would be held forever")
	}
}

// TestTimeoutFlagChecked pins the startup check on -timeout: zero or
// negative used to start fine and then answer every request 408.
func TestTimeoutFlagChecked(t *testing.T) {
	for _, tc := range []struct {
		d  time.Duration
		ok bool
	}{
		{5 * time.Second, true},
		{time.Nanosecond, true},
		{0, false},
		{-time.Second, false},
	} {
		if err := checkTimeout(tc.d); (err == nil) != tc.ok {
			t.Errorf("checkTimeout(%v) = %v, want ok=%v", tc.d, err, tc.ok)
		}
	}
}

// scaleTimeouts shrinks the server's timeout components to milliseconds
// for the behavioral tests below, restoring them afterwards.
func scaleTimeouts(t *testing.T) {
	t.Helper()
	oh, op, oi := readHeaderTimeout, readTimeoutPad, idleTimeout
	readHeaderTimeout, readTimeoutPad, idleTimeout = 150*time.Millisecond, 200*time.Millisecond, 250*time.Millisecond
	t.Cleanup(func() { readHeaderTimeout, readTimeoutPad, idleTimeout = oh, op, oi })
}

// startHardenedServer serves the shared test client through newHTTPServer
// on a real socket and returns its address.
func startHardenedServer(t *testing.T, reqTimeout time.Duration) string {
	t.Helper()
	srv := newHTTPServer("127.0.0.1:0", newServer(serveClient(t), reqTimeout, nil), reqTimeout)
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

// readUntilClosed drains conn until the server closes it (true) or the
// budget elapses with the connection still open (false).
func readUntilClosed(t *testing.T, conn net.Conn, budget time.Duration) bool {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(budget))
	buf := make([]byte, 4096)
	for {
		if _, err := conn.Read(buf); err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				return false // our own deadline: the server never hung up
			}
			return true // EOF or reset: the server closed the connection
		}
	}
}

// TestSlowClientDisconnected pins the behavior the new timeouts buy: a
// client that stalls mid-headers, stalls mid-body, or parks an idle
// keep-alive connection is disconnected instead of pinning a connection
// (and its handler goroutine) forever.
func TestSlowClientDisconnected(t *testing.T) {
	scaleTimeouts(t)
	addr := startHardenedServer(t, 50*time.Millisecond)
	dial := func(t *testing.T) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		return conn
	}

	t.Run("stalled headers", func(t *testing.T) {
		conn := dial(t)
		fmt.Fprintf(conn, "POST /v1/search HTTP/1.1\r\n") // never finish the headers
		if !readUntilClosed(t, conn, 3*time.Second) {
			t.Fatal("server kept a stalled-header connection open past ReadHeaderTimeout")
		}
	})

	t.Run("stalled body", func(t *testing.T) {
		conn := dial(t)
		fmt.Fprintf(conn, "POST /v1/search HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n{\"query\":")
		if !readUntilClosed(t, conn, 3*time.Second) {
			t.Fatal("server kept a stalled-body connection open past ReadTimeout")
		}
	})

	t.Run("idle keep-alive", func(t *testing.T) {
		conn := dial(t)
		fmt.Fprintf(conn, "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
		// The response arrives, then the connection sits idle; the server
		// must hang up at IdleTimeout.
		if !readUntilClosed(t, conn, 3*time.Second) {
			t.Fatal("server held an idle keep-alive connection open past IdleTimeout")
		}
	})
}

// TestNegativeTimeoutRejected pins the invalid_timeout contract on every
// endpoint that reads timeout_ms: a negative value used to slip through
// the "<= 0 means inherit" clamp and silently behave like an absent
// field.
func TestNegativeTimeoutRejected(t *testing.T) {
	s := testServer(t)
	q := serveClient(t).Queries()[0].Keywords
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/search", searchRequest{Query: q, TimeoutMS: -1}},
		{"/v1/search/batch", searchBatchRequest{Queries: []string{q}, TimeoutMS: -5}},
		{"/v1/expand", expandRequest{Keywords: q, TimeoutMS: -1}},
		{"/v1/expand/batch", expandBatchRequest{Keywords: []string{q}, TimeoutMS: -1000}},
	} {
		rec := do(t, s, http.MethodPost, tc.path, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%s), want 400", tc.path, rec.Code, rec.Body.String())
			continue
		}
		if code := errorCode(t, rec); code != "invalid_timeout" {
			t.Errorf("%s: code = %q, want invalid_timeout", tc.path, code)
		}
	}
}

// TestPanicContained pins panic containment: a panic under a handler is
// answered 500 internal on the same connection (net/http's own recover
// would drop it without a response), its stack goes to the logger, a
// sampled-in request still lands in the flight recorder as http_500, and
// the server keeps serving. http.ErrAbortHandler keeps its meaning.
func TestPanicContained(t *testing.T) {
	real := serveClient(t)
	query := real.Queries()[0].Keywords
	s := newServer(&stubBackend{Backend: real, search: func(ctx context.Context, q string, k int) ([]querygraph.Result, error) {
		switch q {
		case "boom":
			panic("kaboom")
		case "abort":
			panic(http.ErrAbortHandler)
		}
		return real.Search(ctx, q, k)
	}}, 5*time.Second, nil)
	s.recorder = trace.NewRecorder(8)
	var logged bytes.Buffer
	s.logger = slog.New(slog.NewTextHandler(&logged, nil))
	srv := httptest.NewServer(s)
	defer srv.Close()
	post := func(query string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/v1/search", "application/json", strings.NewReader(`{"query":"`+query+`"}`))
		if err != nil {
			t.Fatalf("search %q: %v", query, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	for _, sample := range []int{1, 0} {
		s.sample = sample
		code, body := post("boom")
		if code != http.StatusInternalServerError || !strings.Contains(body, `"code":"internal"`) {
			t.Fatalf("sample %d: panicking search answered %d %s, want 500 internal", sample, code, body)
		}
		if strings.Contains(body, "kaboom") {
			t.Errorf("sample %d: the panic value leaked to the client: %s", sample, body)
		}
		if code, body := post(query); code != http.StatusOK {
			t.Fatalf("sample %d: request after the panic answered %d %s, want 200", sample, code, body)
		}
	}
	recs := s.recorder.Snapshot(0)
	if len(recs) != 2 || recs[0].Err+recs[1].Err != "http_500" {
		t.Errorf("flight recorder = %+v, want the sampled-in panic as http_500 and the request after it", recs)
	}

	if _, err := srv.Client().Post(srv.URL+"/v1/search", "application/json", strings.NewReader(`{"query":"abort"}`)); err == nil {
		t.Error("http.ErrAbortHandler was answered instead of aborting the connection")
	}
	// Once a header has gone out there is nothing left to answer with: the
	// panic is logged and the connection aborted.
	s.mux.HandleFunc("GET /late", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("late")
	})
	if resp, err := srv.Client().Get(srv.URL + "/late"); err == nil {
		t.Errorf("a panic after the header was answered %d instead of aborting the connection", resp.StatusCode)
	}

	srv.Close() // waits for the handlers, so the log is complete and safe to read
	out := logged.String()
	if strings.Count(out, "msg=panic") != 3 || strings.Count(out, "kaboom") < 2 || !strings.Contains(out, "panic=late") || !strings.Contains(out, "stubBackend") {
		t.Errorf("log lacks the three panics with value and stack:\n%s", out)
	}
	if strings.Contains(out, http.ErrAbortHandler.Error()) {
		t.Errorf("http.ErrAbortHandler was logged as a panic:\n%s", out)
	}
}

// TestReloadLoopDrains pins the shutdown contract of the SIGHUP loop: it
// services reloads while its channel is open and exits promptly when main
// retires it (signal.Stop + close). The loop used to run forever,
// leaving a window where a late SIGHUP could reload a pool that shutdown
// was concurrently closing.
func TestReloadLoopDrains(t *testing.T) {
	_, pool, _ := poolServer(t)
	defer pool.Close()
	gen := pool.Generation()

	hup := make(chan os.Signal)
	done := make(chan struct{})
	go func() {
		reloadLoop(pool, hup)
		close(done)
	}()

	hup <- syscall.SIGHUP
	deadline := time.After(10 * time.Second)
	for pool.Generation() == gen {
		select {
		case <-deadline:
			t.Fatal("SIGHUP reload never advanced the pool generation")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	close(hup)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("reload loop did not exit after its channel closed")
	}
}

// TestAdminServerServesPprof pins the -admin surface: the profiling
// endpoints and the flight recorder answer on the admin mux, and the
// serving mux exposes none of them.
func TestAdminServerServesPprof(t *testing.T) {
	srv := trace.NewAdminServer("127.0.0.1:0", trace.NewRecorder(8))
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/heap?debug=1", "/debug/pprof/symbol", "/v1/debug/requests", "/v1/debug/requests?min_ms=5"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		srv.Handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("admin %s: status = %d, want 200", path, rec.Code)
		}
	}
	s := testServer(t)
	for _, path := range []string{"/debug/pprof/", "/v1/debug/requests"} {
		if rec := do(t, s, http.MethodGet, path, nil); rec.Code != http.StatusNotFound {
			t.Errorf("serving mux exposes %s: status = %d, want 404", path, rec.Code)
		}
	}
}

// TestConcurrentMetricsScrapesUnderLoad drives live search traffic,
// /v1/metrics scrapes and manifest hot reloads through one pool-backed
// server at once; under -race this pins that the metrics observer, the
// pooled statusWriters and the pool's generation swap are safe against
// each other.
func TestConcurrentMetricsScrapesUnderLoad(t *testing.T) {
	manifestA := buildManifest(t, 3, 2)
	manifestB := buildManifest(t, 9, 3)
	metrics := querygraph.NewMetricsObserver()
	pool, err := querygraph.OpenPool(manifestA, querygraph.WithObserver(metrics))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	s := newServer(pool, 5*time.Second, metrics)
	queries := pool.Queries()
	if len(queries) == 0 {
		t.Fatal("pool has no benchmark queries")
	}

	var wg sync.WaitGroup
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				q := queries[(worker+i)%len(queries)].Keywords
				rec := do(t, s, http.MethodPost, "/v1/search", searchRequest{Query: q, K: 5})
				if rec.Code != http.StatusOK {
					t.Errorf("search under load: status = %d (%s)", rec.Code, rec.Body.String())
					return
				}
			}
		}(worker)
	}
	for scraper := 0; scraper < 2; scraper++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 75; i++ {
				rec := do(t, s, http.MethodGet, "/v1/metrics", nil)
				if rec.Code != http.StatusOK {
					t.Errorf("metrics scrape: status = %d", rec.Code)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			manifest := manifestA
			if i%2 == 0 {
				manifest = manifestB
			}
			rec := do(t, s, http.MethodPost, "/v1/admin/reload", reloadRequest{Manifest: manifest})
			if rec.Code != http.StatusOK {
				t.Errorf("reload under load: status = %d (%s)", rec.Code, rec.Body.String())
				return
			}
		}
	}()
	wg.Wait()

	var text string
	if rec := do(t, s, http.MethodGet, "/v1/metrics", nil); rec.Code == http.StatusOK {
		text = rec.Body.String()
	}
	if want := `querygraph_requests_total{op="search"} 600`; !strings.Contains(text, want) {
		t.Errorf("metrics after load missing %q:\n%s", want, text)
	}
}
