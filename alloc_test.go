// Allocation regression tests are meaningless under the race detector —
// its instrumentation allocates on paths that are clean in normal builds.
//go:build !race

package querygraph

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/querygraph/querygraph/internal/rpc"
)

// TestSearchIntoSteadyStateAllocs pins Backend.SearchInto's contract on
// the one local runtime: with the query's leaves in the plan cache and a
// recycled dst, a Client — the N=1 short-circuit — allocates nothing, and
// a 2-shard Pool pays exactly its concurrent fan-out (one goroutine per
// extra shard in each of the plan and score phases), whatever k and
// however long the query. The ranking lands in dst's storage either way.
func TestSearchIntoSteadyStateAllocs(t *testing.T) {
	ctx := context.Background()
	client := poolTestWorld(t, 0)
	defer client.Close()
	pool, _ := shardedPool(t, client, 2)
	defer pool.Close()

	words := strings.Fields(client.Queries()[0].Keywords + " " + client.Queries()[1].Keywords)
	short, long := words[0], strings.Join(words, " ")
	for _, tc := range []struct {
		name string
		be   Backend
		want float64
	}{{"client", client, 0}, {"pool-2", pool, 2}} {
		for _, query := range []string{short, long} {
			for _, k := range []int{1, 5, 0} {
				dst := make([]Result, 0, 512)
				if _, err := tc.be.SearchInto(ctx, query, k, dst); err != nil { // warm the plan cache and the pools
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(200, func() {
					rs, err := tc.be.SearchInto(ctx, query, k, dst)
					if err != nil || len(rs) == 0 || &rs[0] != &dst[:1][0] {
						t.Fatalf("%s %q k=%d: ranking not scored into dst (%d results, err %v)", tc.name, query, k, len(rs), err)
					}
				})
				if allocs > tc.want {
					t.Errorf("%s SearchInto(%q, k=%d) allocates %v per op at steady state, want <= %v", tc.name, query, k, allocs, tc.want)
				}
			}
		}
	}
}

// TestColdExpandAllocBudget pins the cold expansion pipeline where a busy
// host cannot blur it: in allocations. On the default world, with the
// expansion cache off, an Expand averages ~500 allocations (26 KB) now that
// cycles are measured and filtered as the walk closes them, into pooled
// scratch, with no per-cycle record of the rejected ones; it was ~550
// (361 KB) with the bounded ball and the seed-anchored miner alone, and
// 12 600 for the whole-graph BFS and enumerate-everything-then-filter
// before them. What is left is linking, the ball and Induce; the ceiling
// is twice the measured value.
func TestColdExpandAllocBudget(t *testing.T) {
	cfg := DefaultWorldConfig()
	cfg.Queries = 30
	w, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(w, WithExpandCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, qs := context.Background(), c.Queries()
	perRun := testing.AllocsPerRun(5, func() {
		for _, q := range qs {
			if _, err := c.Expand(ctx, q.Keywords); err != nil {
				t.Fatal(err)
			}
		}
	})
	const ceiling = 1000
	if got := perRun / float64(len(qs)); got > ceiling {
		t.Errorf("a cold Expand allocates %.0f times on average, budget %d", got, ceiling)
	} else {
		t.Logf("cold Expand: %.0f allocations on average (budget %d)", got, ceiling)
	}
}

// TestPoolSummaryAllocatesNoShardRows pins what a health probe costs a
// pool: Summary — all /v1/healthz reads — allocates what Stats allocates,
// building no per-shard row it would not return, while PoolStats pays for
// the rows it does return.
func TestPoolSummaryAllocatesNoShardRows(t *testing.T) {
	client := poolTestWorld(t, 0)
	defer client.Close()
	pool, _ := shardedPool(t, client, 4)
	defer pool.Close()
	stats := testing.AllocsPerRun(100, func() { pool.Stats() })
	summary := testing.AllocsPerRun(100, func() {
		if st, shards := pool.Summary(); shards != 4 || st.Documents == 0 || st.Delta.Generation != pool.Generation() {
			t.Fatalf("Summary() = %+v, %d shards", st, shards)
		}
	})
	rows := testing.AllocsPerRun(100, func() { pool.PoolStats() })
	if summary != stats || rows <= summary {
		t.Fatalf("allocations per call: Summary %v, Stats %v, PoolStats %v; want Summary == Stats < PoolStats", summary, stats, rows)
	}
}

// cannedShard is a protocol endpoint that allocates nothing per request:
// it answers each op with a prebuilt reply frame and throws the request's
// bytes away unread, so AllocsPerRun around a Remote sees the coordinator
// alone.
func cannedShard(t *testing.T, replies map[rpc.Op][]byte) string {
	t.Helper()
	frames := make(map[rpc.Op][]byte, len(replies))
	for op, reply := range replies {
		var buf bytes.Buffer
		if err := rpc.WriteFrame(&buf, reply); err != nil {
			t.Fatal(err)
		}
		frames[op] = buf.Bytes()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					n, err := binary.ReadUvarint(br)
					if err != nil {
						return
					}
					hdr, err := br.Peek(2) // version, op
					if err != nil {
						return
					}
					op := rpc.Op(hdr[1])
					if _, err := br.Discard(int(n)); err != nil {
						return
					}
					if _, err := conn.Write(frames[op]); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRemoteWarmSearchAllocs pins what a warm SearchInto costs the
// coordinator itself, against shards that replay a real fleet's replies
// without allocating: per search, the request closure and its captures,
// the query body and its table key, and per shard the two reply frames and
// the decoded ranking — the per-call slices of scatter are pooled, and the
// merge runs into dst on the scratch's cursors.
func TestRemoteWarmSearchAllocs(t *testing.T) {
	ref, dir := shardedWorld(t)
	topoPath, _ := startShardFleet(t, dir, 2, nil)
	topo, err := ReadTopology(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, kw := context.Background(), ref.Queries()[0].Keywords
	want, err := ref.Search(ctx, kw, MaxRank)
	if err != nil {
		t.Fatal(err)
	}

	// Record each real shard's replies to the one query, then serve them
	// canned.
	query := rpc.AppendTextQuery(nil, kw)
	var tokens int64
	var sum []int64
	conns := make([]*rpc.Conn, 2)
	canned := make([]map[rpc.Op][]byte, 2)
	do := func(i int, op rpc.Op, body []byte) []byte {
		reply, err := conns[i].Do(op, body, time.Now().Add(time.Second), 0)
		if err != nil {
			t.Fatal(err)
		}
		canned[i][op] = append(rpc.AppendOKHeader(nil), reply...)
		return reply
	}
	for i := range conns {
		if conns[i], err = rpc.Dial(topo.Shards[i].Addrs[0], time.Second); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
		canned[i] = make(map[rpc.Op][]byte)
		tokens = rpc.ReadIdentity(rpc.NewReader(do(i, rpc.OpHealthz, nil))).GlobalTokens
		do(i, rpc.OpQueries, nil)
		cfs, _ := rpc.ReadPlanReply(rpc.NewReader(do(i, rpc.OpPlan, query)), nil)
		if sum == nil {
			sum = make([]int64, len(cfs))
		}
		for j, cf := range cfs {
			sum[j] += cf
		}
	}
	for i := range conns {
		do(i, rpc.OpTopK, rpc.AppendTopKRequest(nil, query, MaxRank, tokens, sum))
		topo.Shards[i].Addrs = []string{cannedShard(t, canned[i])}
	}
	be, err := OpenTopology(writeTopology(t, t.TempDir(), topo))
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	dst := make([]Result, 0, MaxRank)
	for i := 0; i < 2; i++ { // cold, then warm: the pools fill
		if rs, err := be.SearchInto(ctx, kw, MaxRank, dst); err != nil || !reflect.DeepEqual(rs, want) {
			t.Fatalf("search over canned shards: %v, %v; want %v", rs, err, want)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		rs, err := be.SearchInto(ctx, kw, MaxRank, dst)
		if err != nil || len(rs) == 0 || &rs[0] != &dst[:1][0] {
			t.Fatalf("ranking not merged into dst (%d results, err %v)", len(rs), err)
		}
	})
	if allocs > 9 { // as measured; 14 before the frame prefix stopped escaping per request
		t.Errorf("a warm Remote.SearchInto allocates %v times in the coordinator, want <= 9", allocs)
	}
}
