package rpc

import (
	"context"
	"testing"
	"time"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/search"
)

// FuzzHandle throws arbitrary request payloads at a shard server through
// one connection's memo: handling never panics, and whatever comes back is
// a well-formed response.
func FuzzHandle(f *testing.F) {
	s := testServer(f)
	plan, topk := scatterPair(f, 5)
	exp := AppendExpansionQuery(nil, &core.Expansion{Keywords: s.queries[0].Keywords, QueryArticles: []graph.NodeID{1, 2}})
	expand := AppendExpanderOptions(AppendString(nil, s.queries[0].Keywords), core.DefaultExpanderOptions())
	for op, body := range map[Op][]byte{
		OpHealthz: nil, OpPlan: plan, OpTopK: topk, OpExpand: expand, OpStats: nil,
		OpQueries: nil, OpLink: AppendString(nil, "venice"), OpTitle: AppendUvarint(nil, 3),
	} {
		f.Add(append([]byte{Version, byte(op), 0, 0}, body...))
		f.Add(append([]byte{Version, byte(op), 50, 9}, body...))
	}
	f.Add(append([]byte{Version, byte(OpPlan), 0, 0}, exp...))
	f.Add(append([]byte{Version, byte(OpTopK), 0, 0}, AppendTopKRequest(nil, exp, 3, 100, []int64{1, 2})...))
	var memo connMemo
	f.Fuzz(func(t *testing.T, payload []byte) {
		// Bounded, because a request may ask for an expansion no deadline
		// of its own stops.
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		resp := s.handle(ctx, payload, &memo)
		if _, err := ParseResponse(resp); err != nil {
			if _, ok := err.(*RemoteError); !ok {
				t.Fatalf("request %x: malformed response %x: %v", payload, resp, err)
			}
		}
	})
}

// FuzzReplies feeds arbitrary bytes to everything a coordinator decodes a
// shard's reply with: nothing panics, and a hostile count sizes nothing
// (the fuzzer's memory limit is the judge).
func FuzzReplies(f *testing.F) {
	exp := &core.Expansion{Keywords: "venice", QueryArticles: []graph.NodeID{4}, Features: []core.Feature{{Node: 9, Title: "Grand Canal", CycleLen: 3, Density: 0.5}}}
	ok := AppendOKHeader(nil)
	for _, seed := range [][]byte{
		AppendIdentity(ok, Identity{ShardID: 1, ShardCount: 2, GlobalDocs: 10, GlobalTokens: 99}),
		AppendQueries(ok, []core.Query{{ID: 1, Keywords: "a b", Relevant: []int32{3}}, {ID: 2}}),
		AppendExpansion(append(ok, 1), exp),
		AppendStats(ok, Stats{Articles: 1, Documents: 5, Cache: core.CacheStats{Hits: 7, Capacity: 11}}),
		AppendResults(append(ok, 1), []search.Result{{Doc: 1 << 20, Score: -1.5}}),
		append(ok, 1, 2, 5, 0x80, 1), // a plan reply
		AppendErrorResponse(nil, ClassInvalidQuery, "unbalanced"),
		AppendString(ok, "Venice"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		body, err := ParseResponse(payload)
		if err != nil {
			return
		}
		for _, decode := range []func(*Reader){
			func(r *Reader) { ReadIdentity(r) },
			func(r *Reader) { ReadQueries(r) },
			func(r *Reader) { r.Byte(); ReadExpansion(r) },
			func(r *Reader) { ReadStats(r) },
			func(r *Reader) { ReadResults(r) },
			func(r *Reader) { ReadPlanReply(r, nil) },
			func(r *Reader) { ReadTopKReply(r) },
			func(r *Reader) { ReadTopKRequest(r) },
			func(r *Reader) { ReadExpanderOptions(r) },
			func(r *Reader) { ReadQueryBytes(r) },
			func(r *Reader) { _ = r.String() },
		} {
			r := NewReader(body)
			decode(r)
			_ = r.Done()
		}
	})
}
