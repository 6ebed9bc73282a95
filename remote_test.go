package querygraph

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/rpc"
	"github.com/querygraph/querygraph/internal/trace"
)

// startShardFleet boots one rpc.Server per shard file in dir on loopback
// listeners and writes the matching topology file. mut may adjust the
// topology (policy, timeouts, addresses) before it is written. The
// servers shut down in t.Cleanup (idempotently, so tests may also close
// them mid-test to inject faults).
func startShardFleet(t *testing.T, dir string, shards int, mut func(*Topology)) (string, []*rpc.Server) {
	t.Helper()
	topo := Topology{Version: 1}
	servers := make([]*rpc.Server, 0, shards)
	for s := 0; s < shards; s++ {
		srv, err := rpc.LoadServerFile(filepath.Join(dir, fmt.Sprintf("shard-%03d.qgs", s)))
		if err != nil {
			t.Fatal(err)
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
		servers = append(servers, srv)
		topo.Shards = append(topo.Shards, TopologyShard{ID: s, Addrs: []string{ln.Addr().String()}})
	}
	if mut != nil {
		mut(&topo)
	}
	return writeTopology(t, dir, topo), servers
}

func writeTopology(t *testing.T, dir string, topo Topology) string {
	t.Helper()
	blob, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "topology.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// shardedWorld saves the reference client as a 2-shard fleet directory.
func shardedWorld(t *testing.T) (*Client, string) {
	t.Helper()
	ref := conformanceWorld(t)
	t.Cleanup(func() { _ = ref.Close() })
	dir := t.TempDir()
	if err := ref.SaveShards(dir, 2); err != nil {
		t.Fatal(err)
	}
	return ref, dir
}

// fakeShard is a protocol endpoint that answers OpHealthz with the given
// identity and hangs forever on every other op — the canonical hanging
// shard.
func fakeShard(t *testing.T, ident rpc.Identity) string {
	return scriptedShard(t, func(op rpc.Op) []byte {
		if op == rpc.OpHealthz {
			return rpc.AppendIdentity(rpc.AppendOKHeader(nil), ident)
		}
		return nil
	})
}

// scriptedShard is a protocol endpoint that answers each request with
// reply(op), header included, hangs forever on the ops reply returns nil
// for and drops the connection on the ones it returns an empty reply for;
// its goroutines are released when the test ends.
func scriptedShard(t *testing.T, reply func(rpc.Op) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hang := make(chan struct{})
	t.Cleanup(func() {
		close(hang)
		_ = ln.Close()
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					payload, err := rpc.ReadFrame(br)
					if err != nil {
						return
					}
					r := rpc.NewReader(payload)
					r.Byte() // version
					resp := reply(rpc.Op(r.Byte()))
					if resp == nil {
						<-hang // never answer: the caller's deadline must fire
						return
					}
					if len(resp) == 0 {
						return
					}
					if err := rpc.WriteFrame(c, resp); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestRemoteOlderShardReplies: a version-2 shard built before the
// expansion cache lost its single-flight half answers OpExpand with the
// outcome byte 3 ("deduped") and fills the OpStats slot that is reserved
// now. A coordinator of this build must read both replies — fleets roll
// forward shards-first, so it meets them — dropping what it no longer
// knows: the outcome indexes no counter, the slot reaches no field.
func TestRemoteOlderShardReplies(t *testing.T) {
	exp := &Expansion{Keywords: "venice", QueryArticles: []NodeID{4}, Features: []Feature{{Node: 9, Title: "Grand Canal"}}}
	addr := scriptedShard(t, func(op rpc.Op) []byte {
		ok := rpc.AppendOKHeader(nil)
		switch op {
		case rpc.OpHealthz:
			return rpc.AppendIdentity(ok, rpc.Identity{ShardCount: 1})
		case rpc.OpQueries:
			return rpc.AppendQueries(ok, nil)
		case rpc.OpExpand:
			return rpc.AppendExpansion(append(ok, 3), exp)
		case rpc.OpStats:
			return append(ok, 1, 2, 3, 4, 5, 6, 7, 8, 99, 10, 11) // 99 sits in the reserved slot
		}
		return nil
	})
	m := NewMetricsObserver()
	path := writeTopology(t, t.TempDir(), Topology{Version: 1, Shards: []TopologyShard{{ID: 0, Addrs: []string{addr}}}})
	be, err := OpenBackend(path, WithObserver(m))
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	got, err := be.Expand(context.Background(), "venice")
	if err != nil || !reflect.DeepEqual(got, exp) {
		t.Fatalf("Expand = %+v, %v; want the shard's %+v", got, err, exp)
	}
	if s := m.Snapshot(); s.Expands != 1 || s.ExpandErrors != 0 || s.Cache != [CacheMiss + 1]uint64{} {
		t.Errorf("after an expansion with outcome byte 3: %d expands, %d errors, cache outcomes %v; want 1, 0 and none counted", s.Expands, s.ExpandErrors, s.Cache)
	}
	want := Stats{Articles: 1, Redirects: 2, Categories: 3, Links: 4, Documents: 5, BenchmarkQueries: 6,
		Cache: CacheStats{Hits: 7, Misses: 8, Entries: 10, Capacity: 11}}
	if st := be.Stats(); st != want {
		t.Errorf("Stats = %+v, want %+v", st, want)
	}
}

// TestReadTopologyValidation pins the topology schema errors onto
// ErrBadTopology.
func TestReadTopologyValidation(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		blob string
	}{
		{"bad version", `{"version":2,"shards":[{"id":0,"addrs":["a:1"]}]}`},
		{"no shards", `{"version":1,"shards":[]}`},
		{"duplicate id", `{"version":1,"shards":[{"id":0,"addrs":["a:1"]},{"id":0,"addrs":["b:1"]}]}`},
		{"id out of range", `{"version":1,"shards":[{"id":5,"addrs":["a:1"]}]}`},
		{"no addrs", `{"version":1,"shards":[{"id":0,"addrs":[]}]}`},
		{"empty addr", `{"version":1,"shards":[{"id":0,"addrs":[""]}]}`},
		{"unknown policy", `{"version":1,"policy":"shrug","shards":[{"id":0,"addrs":["a:1"]}]}`},
		{"unknown field", `{"version":1,"shards":[{"id":0,"addrs":["a:1"]}],"wat":true}`},
		{"negative timeout", `{"version":1,"timeout_ms":-1,"shards":[{"id":0,"addrs":["a:1"]}]}`},
		{"not json", `[1,2,3]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "topo.json")
			if err := os.WriteFile(path, []byte(tc.blob), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadTopology(path); !errors.Is(err, ErrBadTopology) {
				t.Fatalf("err = %v, want ErrBadTopology", err)
			}
		})
	}
	if _, err := ReadTopology(filepath.Join(dir, "missing.json")); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("missing file err = %v, want ErrBadTopology", err)
	}

	// Defaults land after a valid read.
	path := filepath.Join(dir, "ok.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"shards":[{"id":1,"addrs":["b:1"]},{"id":0,"addrs":["a:1"]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	topo, err := ReadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Policy != "fail" || topo.TimeoutMS != 2000 || topo.Retries != 1 || topo.MinShards != 1 {
		t.Errorf("defaults = %+v", topo)
	}
	if topo.Shards[0].ID != 0 || topo.Shards[1].ID != 1 {
		t.Errorf("shards not reordered by id: %+v", topo.Shards)
	}
}

// TestOpenTopologyHandshakeMismatch: a fleet whose servers disagree with
// their topology slots (here: the two shard servers swapped) must be
// refused with ErrBadTopology before any query is served.
func TestOpenTopologyHandshakeMismatch(t *testing.T) {
	_, dir := shardedWorld(t)
	topoPath, _ := startShardFleet(t, dir, 2, func(topo *Topology) {
		topo.Shards[0].Addrs, topo.Shards[1].Addrs = topo.Shards[1].Addrs, topo.Shards[0].Addrs
	})
	if _, err := OpenTopology(topoPath); !errors.Is(err, ErrBadTopology) {
		t.Fatalf("swapped fleet err = %v, want ErrBadTopology", err)
	}
}

// TestRemoteHangingShardDeadline: shard 1 accepts the handshake, then
// hangs on every query op. Under the fail policy the per-shard deadline
// must fire, the failure must classify as shard_unavailable, and the
// deadline hit must be visible in metrics.
func TestRemoteHangingShardDeadline(t *testing.T) {
	ref, dir := shardedWorld(t)
	srv1, err := rpc.LoadServerFile(filepath.Join(dir, "shard-001.qgs"))
	if err != nil {
		t.Fatal(err)
	}
	hangAddr := fakeShard(t, srv1.Identity())

	m := NewMetricsObserver()
	topoPath, _ := startShardFleet(t, dir, 2, func(topo *Topology) {
		topo.Shards[1].Addrs = []string{hangAddr}
		topo.TimeoutMS = 150
		topo.Retries = 0
	})
	be, err := OpenBackend(topoPath, WithObserver(m))
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	start := time.Now()
	_, err = be.Search(context.Background(), ref.Queries()[0].Keywords, 5)
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable", err)
	}
	if got := ErrorClass(err); got != "shard_unavailable" {
		t.Errorf("ErrorClass = %q, want shard_unavailable", got)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline took %v to fire with a 150ms per-shard timeout", elapsed)
	}
	s := m.Snapshot()
	if s.RPCDeadlines == 0 {
		t.Errorf("metrics snapshot = %+v, want RPCDeadlines > 0", s)
	}
	if s.RPCErrors == 0 {
		t.Errorf("metrics snapshot = %+v, want RPCErrors > 0", s)
	}
}

// TestRemoteDegradePolicy: with policy "degrade" a dead shard drops out
// and the survivors' merged ranking is served alongside ErrPartialResult;
// the partial response is counted in metrics. With a dead fleet the
// quorum fails even under degrade.
func TestRemoteDegradePolicy(t *testing.T) {
	ref, dir := shardedWorld(t)
	m := NewMetricsObserver()
	topoPath, servers := startShardFleet(t, dir, 2, func(topo *Topology) {
		topo.Policy = "degrade"
		topo.TimeoutMS = 500
		topo.Retries = 0
	})
	be, err := OpenBackend(topoPath, WithObserver(m))
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	ctx := context.Background()
	kw := ref.Queries()[0].Keywords

	// Healthy fleet first: bit-identical, no partial flag.
	want, err := ref.Search(ctx, kw, MaxRank)
	if err != nil {
		t.Fatal(err)
	}
	got, err := be.Search(ctx, kw, MaxRank)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("healthy fleet diverges:\n got %v\nwant %v", got, want)
	}

	// Kill shard 1 mid-stream: the pooled connection dies, the retryless
	// redial is refused, and the degrade policy serves shard 0's ranking.
	if err := servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	got, err = be.Search(ctx, kw, MaxRank)
	if !errors.Is(err, ErrPartialResult) {
		t.Fatalf("degraded err = %v, want ErrPartialResult", err)
	}
	if len(got) == 0 {
		t.Fatal("degraded response carries no results — degrade must serve the survivors")
	}
	if got := ErrorClass(err); got != "partial_result" {
		t.Errorf("ErrorClass = %q, want partial_result", got)
	}
	if s := m.Snapshot(); s.PartialResults == 0 {
		t.Errorf("metrics snapshot = %+v, want PartialResults > 0", s)
	}

	// Batch paths degrade the same way, keeping their results.
	rss, err := searchAll(ctx, be, []string{kw, kw}, 5, BatchOptions{})
	if !errors.Is(err, ErrPartialResult) {
		t.Fatalf("degraded batch err = %v, want ErrPartialResult", err)
	}
	if len(rss) != 2 || rss[0] == nil || rss[1] == nil {
		t.Fatalf("degraded batch results = %v", rss)
	}

	// Kill the last shard: the quorum (min_shards 1) is gone.
	if err := servers[0].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := be.Search(ctx, kw, 5); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("dead fleet err = %v, want ErrShardUnavailable", err)
	}
}

// TestRemoteFailPolicyMidStreamDeath: the default fail policy turns a
// shard dying between requests into ErrShardUnavailable, no partial
// results.
func TestRemoteFailPolicyMidStreamDeath(t *testing.T) {
	ref, dir := shardedWorld(t)
	topoPath, servers := startShardFleet(t, dir, 2, func(topo *Topology) {
		topo.TimeoutMS = 500
		topo.Retries = 1
		topo.RetryBackoffMS = 1
	})
	be, err := OpenBackend(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	ctx := context.Background()
	kw := ref.Queries()[0].Keywords

	if _, err := be.Search(ctx, kw, 5); err != nil {
		t.Fatal(err)
	}
	if err := servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := be.Search(ctx, kw, 5)
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v, want ErrShardUnavailable", err)
	}
	if rs != nil {
		t.Errorf("fail policy returned results %v alongside the error", rs)
	}
}

// TestRemoteRetryFailover: a shard listed with a dead primary address and
// a live replica must fail over within one logical call — same results,
// retries visible in metrics.
func TestRemoteRetryFailover(t *testing.T) {
	ref, dir := shardedWorld(t)

	// A listener that is immediately closed: its port refuses connections.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	_ = dead.Close()

	m := NewMetricsObserver()
	topoPath, _ := startShardFleet(t, dir, 2, func(topo *Topology) {
		topo.Shards[1].Addrs = append([]string{deadAddr}, topo.Shards[1].Addrs...)
		topo.Retries = 1
		topo.RetryBackoffMS = 1
	})
	be, err := OpenBackend(topoPath, WithObserver(m))
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	ctx := context.Background()

	for _, q := range ref.Queries()[:3] {
		want, err := ref.Search(ctx, q.Keywords, MaxRank)
		if err != nil {
			t.Fatal(err)
		}
		got, err := be.Search(ctx, q.Keywords, MaxRank)
		if err != nil {
			t.Fatalf("Search %q through failover: %v", q.Keywords, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("failover ranking diverges for %q:\n got %v\nwant %v", q.Keywords, got, want)
		}
	}
	if s := m.Snapshot(); s.RPCRetries == 0 {
		t.Errorf("metrics snapshot = %+v, want RPCRetries > 0", s)
	}
}

// TestRemoteRetryBackoffHonorsDeadline: a retry's backoff ends when the
// caller's ctx does. Shard 1's first address refuses connections and the
// backoff is 800 ms, so a Search under a 50 ms deadline must come back
// with DeadlineExceeded long before the backoff would have run out.
func TestRemoteRetryBackoffHonorsDeadline(t *testing.T) {
	ref, dir := shardedWorld(t)
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	_ = dead.Close()

	topoPath, _ := startShardFleet(t, dir, 2, func(topo *Topology) {
		topo.Shards[1].Addrs = append([]string{deadAddr}, topo.Shards[1].Addrs...)
		topo.Retries = 1
		topo.RetryBackoffMS = 800
	})
	be, err := OpenBackend(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = be.Search(ctx, ref.Queries()[0].Keywords, MaxRank)
	if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took >= 400*time.Millisecond {
		t.Fatalf("Search = %v after %v, want DeadlineExceeded in under 400ms", err, took)
	}
}

// TestRemoteHedgedRequests: shard 1's primary hangs on every query op;
// with hedging enabled the replica answers and the request succeeds
// without waiting out the primary's deadline.
func TestRemoteHedgedRequests(t *testing.T) {
	ref, dir := shardedWorld(t)
	srv1, err := rpc.LoadServerFile(filepath.Join(dir, "shard-001.qgs"))
	if err != nil {
		t.Fatal(err)
	}
	hangAddr := fakeShard(t, srv1.Identity())

	m := NewMetricsObserver()
	topoPath, _ := startShardFleet(t, dir, 2, func(topo *Topology) {
		topo.Shards[1].Addrs = append([]string{hangAddr}, topo.Shards[1].Addrs...)
		topo.TimeoutMS = 500
		topo.Retries = 0
		topo.HedgeAfterMS = 20
	})
	be, err := OpenBackend(topoPath, WithObserver(m))
	if err != nil {
		t.Fatal(err)
	}
	kw := ref.Queries()[0].Keywords
	want, err := ref.Search(context.Background(), kw, MaxRank)
	if err != nil {
		t.Fatal(err)
	}
	got, err := be.Search(context.Background(), kw, MaxRank)
	if err != nil {
		t.Fatalf("hedged search: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hedged ranking diverges:\n got %v\nwant %v", got, want)
	}
	if s := m.Snapshot(); s.RPCHedges == 0 {
		t.Errorf("metrics snapshot = %+v, want RPCHedges > 0", s)
	}
	// Close drains the in-flight hung primaries (bounded by their 500ms
	// deadline) — it must not strand them or panic the WaitGroup.
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteCallerDeadlineAborts: the caller's already-expired context
// must surface as its own error, not as a shard failure.
func TestRemoteCallerDeadlineAborts(t *testing.T) {
	ref, dir := shardedWorld(t)
	topoPath, _ := startShardFleet(t, dir, 2, nil)
	be, err := OpenBackend(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := be.Search(ctx, ref.Queries()[0].Keywords, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRemoteInvalidQueryAborts: a parse failure on the shards maps back
// onto ErrInvalidQuery — an application error, never retried and never a
// shard failure.
func TestRemoteInvalidQueryAborts(t *testing.T) {
	_, dir := shardedWorld(t)
	m := NewMetricsObserver()
	topoPath, _ := startShardFleet(t, dir, 2, nil)
	be, err := OpenBackend(topoPath, WithObserver(m))
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	if _, err := be.Search(context.Background(), "#combine(", 5); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("err = %v, want ErrInvalidQuery", err)
	}
	// Options the shard rejects map back onto ErrInvalidOptions the same way,
	// also when the coordinator did not check them first.
	kw := be.Queries()[0].Keywords
	if _, err := be.Expand(context.Background(), kw, WithMaxNeighborhood(4097)); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("neighborhood 4097: err = %v, want ErrInvalidOptions", err)
	}
	opts := core.DefaultExpanderOptions()
	opts.MaxNeighborhood = 4097
	if _, _, err := be.(*Remote).expand(context.Background(), kw, opts); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("neighborhood 4097 sent unchecked: err = %v, want ErrInvalidOptions from the shard", err)
	}
}

// TestRemoteCloseRacesFanouts hammers the coordinator from many
// goroutines while Close lands mid-storm, then asserts a full drain: no
// leaked goroutines (hedges, fan-out workers, server conns) and every
// call either succeeded, degraded, or failed ErrClosed. Run under -race.
func TestRemoteCloseRacesFanouts(t *testing.T) {
	ref, dir := shardedWorld(t)
	baseline := runtime.NumGoroutine()
	topoPath, servers := startShardFleet(t, dir, 2, func(topo *Topology) {
		topo.TimeoutMS = 1000
		topo.HedgeAfterMS = 5 // exercise the hedge path in the storm
		topo.Shards[0].Addrs = append(topo.Shards[0].Addrs, topo.Shards[0].Addrs[0])
		topo.Shards[1].Addrs = append(topo.Shards[1].Addrs, topo.Shards[1].Addrs[0])
	})
	be, err := OpenTopology(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	kw := ref.Queries()[0].Keywords
	ctx := context.Background()

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				_, err := be.Search(ctx, kw, 5)
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("Search during Close: %v", err)
					return
				}
				if _, err := searchAll(ctx, be, []string{kw, kw}, 5, BatchOptions{Workers: 2}); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("SearchAll during Close: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(5 * time.Millisecond)
		if err := be.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	close(start)
	wg.Wait()
	assertClosed(t, be)

	// Shut the servers down too, then require the goroutine count to
	// settle back to the baseline: nothing may leak from either end.
	for _, srv := range servers {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked after drain: %d > baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
}

// TestRemoteClosedAccessors pins the remote side of the closed-accessor
// contract shared with the Pool (checkClosedAccessors), Queries included.
func TestRemoteClosedAccessors(t *testing.T) {
	ref, backends := conformanceBackends(t)
	checkClosedAccessors(t, backends["remote-2"], ref.Queries()[0].Keywords)
}

// opCounter counts the requests a fleet's shards handle, by op.
type opCounter struct {
	mu sync.Mutex
	n  map[rpc.Op]int
}

func (c *opCounter) hook(op rpc.Op, _ uint64, _ time.Time, _ time.Duration, _ string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == nil {
		c.n = make(map[rpc.Op]int)
	}
	c.n[op]++
}

// take returns the plan and top-k requests counted since the last take.
func (c *opCounter) take() (plans, topks int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	plans, topks = c.n[rpc.OpPlan], c.n[rpc.OpTopK]
	c.n = nil
	return plans, topks
}

// tracedSearch runs one search under a fresh trace and returns the ranking
// with the detail of the trace's topk phase span and the number of rpc:
// attempt spans that began before its plan phase span ended.
func tracedSearch(t *testing.T, be *Remote, query string, k int) (rs []Result, err error, detail string, inPlanWait int) {
	t.Helper()
	tr := trace.Begin(trace.NewID())
	rs, err = be.Search(trace.NewContext(context.Background(), tr), query, k)
	rec := tr.Finish("search", "")
	planEnd := -1.0
	for _, sp := range rec.Spans {
		switch sp.Phase {
		case "plan":
			planEnd = sp.StartMS + sp.DurMS
		case "topk":
			detail = sp.Detail
		}
	}
	for _, sp := range rec.Spans {
		if strings.HasPrefix(sp.Phase, "rpc:") && sp.StartMS < planEnd {
			inPlanWait++
		}
	}
	return rs, err, detail, inPlanWait
}

// TestRemoteSpeculationVerified: a repeated query waits for one round —
// plan and top-k attempts inside the plan wait, four requests as ever — and
// a table entry with wrong frequencies is refuted by the plan replies: the
// answer stays exact, the shards see the refuted top-k and the true one,
// and the entry is repaired.
func TestRemoteSpeculationVerified(t *testing.T) {
	ref, dir := shardedWorld(t)
	var ops opCounter
	be, err := OpenTopology(startHookedFleet(t, dir, 2, ops.hook, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	kw := ref.Queries()[0].Keywords
	want, err := ref.Search(context.Background(), kw, MaxRank)
	if err != nil {
		t.Fatal(err)
	}
	key := string(rpc.AppendTextQuery(nil, kw))
	var truth []int64
	for i, step := range []struct {
		poison                bool
		detail                string
		plans, topks, planned int
	}{
		{false, "", 2, 2, 2},           // cold: two rounds
		{false, "speculated", 2, 2, 4}, // warm: one
		{true, "refuted", 2, 4, 4},     // wrong entry: the speculated pair, then the true top-k
		{false, "speculated", 2, 2, 4}, // repaired
	} {
		if step.poison {
			wrong := slices.Clone(truth)
			wrong[0]++
			be.leafCF.Put(key, key, wrong)
		}
		ops.take()
		got, err, detail, inPlanWait := tracedSearch(t, be, kw, MaxRank)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("search %d: %v, %v; want %v", i, got, err, want)
		}
		plans, topks := ops.take()
		if detail != step.detail || plans != step.plans || topks != step.topks || inPlanWait != step.planned {
			t.Errorf("search %d: topk span %q with %d plan and %d top-k requests, %d attempts in the plan wait; want %q, %d, %d, %d",
				i, detail, plans, topks, inPlanWait, step.detail, step.plans, step.topks, step.planned)
		}
		stored, ok := be.leafCF.Get(key, key)
		if i == 0 {
			truth = stored
		}
		if !ok || len(stored) == 0 || !slices.Equal(stored, truth) {
			t.Fatalf("search %d left the table at %v (%v), want the fleet's sum %v", i, stored, ok, truth)
		}
	}
}

// TestRemoteSpeculationDegraded: with a shard gone under "degrade", a
// coordinator that remembers the query's full-fleet frequencies answers
// exactly what one that never saw the query answers — the survivors'
// ranking under the survivors' sum, with ErrPartialResult — and neither
// stores that sum.
func TestRemoteSpeculationDegraded(t *testing.T) {
	ref, dir := shardedWorld(t)
	topoPath, servers := startShardFleet(t, dir, 2, func(topo *Topology) {
		topo.Policy = "degrade"
		topo.TimeoutMS = 500
		topo.Retries = 0
	})
	ctx, kw := context.Background(), ref.Queries()[0].Keywords
	key := string(rpc.AppendTextQuery(nil, kw))
	open := func() *Remote {
		be, err := OpenTopology(topoPath)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = be.Close() })
		return be
	}
	warm, fresh := open(), open()
	if _, err := warm.Search(ctx, kw, MaxRank); err != nil {
		t.Fatal(err)
	}
	full, _ := warm.leafCF.Get(key, key)
	if err := servers[1].Close(); err != nil {
		t.Fatal(err)
	}

	got, err := warm.Search(ctx, kw, MaxRank)
	want, wantErr := fresh.Search(ctx, kw, MaxRank)
	if !errors.Is(err, ErrPartialResult) || !errors.Is(wantErr, ErrPartialResult) || err.Error() != wantErr.Error() {
		t.Fatalf("degraded errors: warm %v, fresh %v; want the same ErrPartialResult", err, wantErr)
	}
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("degraded rankings differ:\n warm  %v\n fresh %v", got, want)
	}
	if stored, _ := warm.leafCF.Get(key, key); !slices.Equal(stored, full) {
		t.Errorf("the degraded round rewrote the entry: %v, was %v", stored, full)
	}
	if stored, ok := fresh.leafCF.Get(key, key); ok {
		t.Errorf("the degraded round stored %v", stored)
	}
}

// rpcAttempts records the OpRPC events of one shard as
// "kind/attempt/address/succeeded" strings.
type rpcAttempts struct {
	mu    sync.Mutex
	shard int
	seen  []string
}

func (r *rpcAttempts) Observe(e Event) {
	if e.Op == OpRPC && e.Shard == r.shard {
		r.mu.Lock()
		r.seen = append(r.seen, fmt.Sprintf("%s/%d/%s/%v", e.Kind, e.Attempt, e.Addr, e.Err == ""))
		r.mu.Unlock()
	}
}

// take returns the attempts seen since the last take, sorted.
func (r *rpcAttempts) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.seen
	r.seen = nil
	slices.Sort(out)
	return out
}

// TestRemotePipelinedPairDiesAfterPlan: shard 1's primary answers the plan
// request of a pipelined pair and drops the connection on the top-k one.
// The search completes through the replica, the top-k call continuing at
// attempt 1 — the speculated attempt was its attempt 0.
func TestRemotePipelinedPairDiesAfterPlan(t *testing.T) {
	ref, dir := shardedWorld(t)
	ctx, kw := context.Background(), ref.Queries()[0].Keywords
	srv1, err := rpc.LoadServerFile(filepath.Join(dir, "shard-001.qgs"))
	if err != nil {
		t.Fatal(err)
	}
	var planReply []byte // shard 1's, recorded from the real server below
	flaky := scriptedShard(t, func(op rpc.Op) []byte {
		switch op {
		case rpc.OpHealthz:
			return rpc.AppendIdentity(rpc.AppendOKHeader(nil), srv1.Identity())
		case rpc.OpPlan:
			return append(rpc.AppendOKHeader(nil), planReply...)
		}
		return []byte{}
	})
	rec := &rpcAttempts{shard: 1}
	var replica string
	topoPath, _ := startShardFleet(t, dir, 2, func(topo *Topology) {
		replica = topo.Shards[1].Addrs[0]
		conn, err := rpc.Dial(replica, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if planReply, err = conn.Do(rpc.OpPlan, rpc.AppendTextQuery(nil, kw), time.Now().Add(time.Second), 0); err != nil {
			t.Fatal(err)
		}
		topo.Shards[1].Addrs = append([]string{flaky}, topo.Shards[1].Addrs...)
		topo.Retries = 1
		topo.RetryBackoffMS = 1
	})
	be, err := OpenBackend(topoPath, WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	want, err := ref.Search(ctx, kw, MaxRank)
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cold", "warm"} {
		rec.take()
		got, err := be.Search(ctx, kw, MaxRank)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s search through the dying primary: %v, %v; want %v", pass, got, err, want)
		}
		wantAttempts := []string{"plan/0/" + flaky + "/true", "topk/0/" + flaky + "/false", "topk/1/" + replica + "/true"}
		if attempts := rec.take(); !slices.Equal(attempts, wantAttempts) {
			t.Errorf("%s search: shard 1 attempts %v, want %v", pass, attempts, wantAttempts)
		}
	}
}

// TestRemoteHostileLeafCount: a plan reply that claims 2³¹−1 leaves in
// front of three bytes is a typed protocol error, not an allocation.
func TestRemoteHostileLeafCount(t *testing.T) {
	addr := scriptedShard(t, func(op rpc.Op) []byte {
		ok := rpc.AppendOKHeader(nil)
		switch op {
		case rpc.OpHealthz:
			return rpc.AppendIdentity(ok, rpc.Identity{ShardCount: 1, GlobalDocs: 1, GlobalTokens: 1})
		case rpc.OpQueries:
			return rpc.AppendQueries(ok, nil)
		case rpc.OpPlan:
			return append(rpc.AppendUvarint(append(ok, 1), 1<<31-1), 1, 2, 3)
		}
		return nil
	})
	be, err := OpenTopology(writeTopology(t, t.TempDir(), Topology{Version: 1, Shards: []TopologyShard{{ID: 0, Addrs: []string{addr}}}}))
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = be.Search(context.Background(), "venice", 5)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "shard 0 plan") || ErrorClass(err) != "internal" {
		t.Errorf("err = %v (class %s), want shard 0's malformed plan reply, class internal", err, ErrorClass(err))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("the search allocated %d bytes", got)
	}
}

// TestRemoteConcurrentColdScatter: many goroutines scatter the same cold
// query at once — each may find the table empty, filled, or being filled —
// and all get the exact answer. Run under -race.
func TestRemoteConcurrentColdScatter(t *testing.T) {
	ref, dir := shardedWorld(t)
	topoPath, _ := startShardFleet(t, dir, 2, nil)
	be, err := OpenTopology(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	ctx := context.Background()
	for _, q := range ref.Queries()[:3] {
		want, err := ref.Search(ctx, q.Keywords, MaxRank)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 4; i++ {
					if got, err := be.Search(ctx, q.Keywords, MaxRank); err != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("Search %q: %v, %v; want %v", q.Keywords, got, err, want)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}
