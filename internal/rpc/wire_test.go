package rpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/search"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte{0xAB}, 1<<16),
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	for i, p := range payloads {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(p))
		}
	}
	if _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("clean end err = %v, want io.EOF", err)
	}
}

func TestFrameTornMidPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(torn))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn frame err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized write succeeded")
	}
	// A hostile length prefix must be rejected before allocation.
	var hdr bytes.Buffer
	hdr.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // huge uvarint
	if _, err := ReadFrame(bufio.NewReader(&hdr)); err == nil || !strings.Contains(err.Error(), "MaxFrame") {
		t.Fatalf("hostile length err = %v, want MaxFrame rejection", err)
	}
}

func TestScalarRoundTrips(t *testing.T) {
	b := AppendUvarint(nil, 0)
	b = AppendUvarint(b, math.MaxUint32)
	b = AppendVarint(b, -12345)
	b = AppendString(b, "héllo")
	b = AppendString(b, "")
	b = AppendF64(b, -0.0)
	b = AppendF64(b, math.Pi)
	r := NewReader(b)
	if v := r.Uvarint(); v != 0 {
		t.Errorf("uvarint = %d", v)
	}
	if v := r.Uvarint(); v != math.MaxUint32 {
		t.Errorf("uvarint = %d", v)
	}
	if v := r.Varint(); v != -12345 {
		t.Errorf("varint = %d", v)
	}
	if s := r.String(); s != "héllo" {
		t.Errorf("string = %q", s)
	}
	if s := r.String(); s != "" {
		t.Errorf("string = %q", s)
	}
	if v := r.F64(); math.Float64bits(v) != math.Float64bits(-0.0) {
		t.Errorf("f64 bits = %x, want negative zero preserved", math.Float64bits(v))
	}
	if v := r.F64(); v != math.Pi {
		t.Errorf("f64 = %v", v)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestParseResponse(t *testing.T) {
	body, err := ParseResponse(AppendString(AppendOKHeader(nil), "payload"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(body)
	if s := r.String(); s != "payload" {
		t.Fatalf("body = %q", s)
	}

	_, err = ParseResponse(AppendErrorResponse(nil, ClassInvalidQuery, "boom"))
	var rerr *RemoteError
	if !errors.As(err, &rerr) || rerr.Class != ClassInvalidQuery || rerr.Msg != "boom" {
		t.Fatalf("error response = %v", err)
	}

	for _, resp := range [][]byte{{Version + 9, 0}, {2, statusOK}} {
		if _, err := ParseResponse(resp); err == nil || strings.Contains(err.Error(), "shard error") {
			t.Fatalf("version %d response: err = %v, want plain protocol error", resp[0], err)
		}
	}
	// A version-2 request is refused by the shard, naming both versions.
	resp := testServer(t).handle(context.Background(), []byte{2, byte(OpHealthz), 0, 0}, &connMemo{})
	if _, err := ParseResponse(resp); !errors.As(err, &rerr) || !strings.Contains(rerr.Msg, "protocol version 2, this shard speaks 3") {
		t.Fatalf("version 2 request: err = %v, want a shard error naming both versions", err)
	}
	if _, err := ParseResponse([]byte{Version}); err == nil {
		t.Fatal("short header accepted")
	}
	if _, err := ParseResponse([]byte{Version, 7}); err == nil {
		t.Fatal("unknown status accepted")
	}
}

func TestIdentityRoundTrip(t *testing.T) {
	id := Identity{
		ShardID: 2, ShardCount: 4, GlobalDocs: 1000, GlobalTokens: 123456,
		LocalDocs: 250, NumQueries: 8,
	}
	r := NewReader(AppendIdentity(nil, id))
	got := ReadIdentity(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if got != id {
		t.Fatalf("identity = %+v, want %+v", got, id)
	}
}

func TestExpanderOptionsRoundTrip(t *testing.T) {
	o := core.ExpanderOptions{
		MaxCycleLen: 4, Radius: 2, MaxNeighborhood: 500, MaxFeatures: 15,
		MinCategoryRatio: 0.25, MaxCategoryRatio: 0.75, MinDensity: 0.5,
		KeepTwoCycles: true, RankByFrequency: false,
		IncludeRedirectAliases: true,
	}
	r := NewReader(AppendExpanderOptions(nil, o))
	got := ReadExpanderOptions(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if got != o {
		t.Fatalf("options = %+v, want %+v", got, o)
	}
}

// TestExpansionRoundTrip pins the nil-versus-empty distinction the public
// conformance suite checks with reflect.DeepEqual.
func TestExpansionRoundTrip(t *testing.T) {
	cases := []*core.Expansion{
		{Keywords: "alpha beta", QueryArticles: []graph.NodeID{3, 9},
			Features: []core.Feature{
				{Node: 17, Title: "T", CycleLen: 3, Density: 0.5, CategoryRatio: 0.25},
			},
			CyclesConsidered: 10, CyclesAccepted: 2},
		{Keywords: "bare"}, // nil slices stay nil
		{Keywords: "empty", QueryArticles: []graph.NodeID{}, Features: []core.Feature{}}, // empty stays empty
	}
	for _, exp := range cases {
		r := NewReader(AppendExpansion(nil, exp))
		got := ReadExpansion(r)
		if err := r.Done(); err != nil {
			t.Fatalf("%q: %v", exp.Keywords, err)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("%q round trip:\n got %+v\nwant %+v", exp.Keywords, got, exp)
		}
	}
}

func TestQueriesRoundTrip(t *testing.T) {
	qs := []core.Query{
		{ID: 1, Keywords: "a b", Relevant: []int32{5, 9, 11}},
		{ID: -2, Keywords: "c", Relevant: nil},
		{ID: 3, Keywords: "", Relevant: []int32{}},
	}
	r := NewReader(AppendQueries(nil, qs))
	got := ReadQueries(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, qs) {
		t.Fatalf("queries round trip:\n got %+v\nwant %+v", got, qs)
	}
}

func TestResultsRoundTrip(t *testing.T) {
	rs := []search.Result{{Doc: 0, Score: -1.5}, {Doc: 1 << 20, Score: 0}}
	r := NewReader(AppendResults(nil, rs))
	got := ReadResults(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Fatalf("results = %v, want %v", got, rs)
	}

	// Empty decodes non-nil: the public no-match contract.
	r = NewReader(AppendResults(nil, nil))
	got = ReadResults(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if got == nil || len(got) != 0 {
		t.Fatalf("empty results = %v, want non-nil empty", got)
	}

	// A hostile count must not drive a huge allocation.
	r = NewReader(AppendUvarint(nil, 1<<40))
	ReadResults(r)
	if r.Err() == nil {
		t.Fatal("hostile result count accepted")
	}
}

// TestStatsWire pins the OpStats reply to the bytes a version-2 peer
// speaks: eleven uvarints, of which the ninth is reserved — written as 0,
// read and dropped — so that builds on either side of its retirement
// decode each other. The expand reply's outcome byte is pinned with it.
func TestStatsWire(t *testing.T) {
	st := Stats{Articles: 1, Redirects: 2, Categories: 3, Links: 4, Documents: 300, BenchmarkQueries: 6,
		Cache: core.CacheStats{Hits: 7, Misses: 8, Entries: 10, Capacity: 1024}}
	golden := []byte{1, 2, 3, 4, 0xAC, 0x02, 6, 7, 8, 0, 10, 0x80, 0x08}
	b := AppendStats(nil, st)
	if !bytes.Equal(b, golden) {
		t.Fatalf("AppendStats = % x, want % x", b, golden)
	}
	older := bytes.Clone(golden)
	older[9] = 99 // a peer that still counts in the reserved slot
	for _, body := range [][]byte{golden, older} {
		r := NewReader(body)
		if got := ReadStats(r); r.Done() != nil || got != st {
			t.Errorf("ReadStats(% x) = %+v, %v; want %+v", body, got, r.Err(), st)
		}
	}
	for n := range golden { // every truncation is an error, as is a trailing byte
		r := NewReader(golden[:n])
		if ReadStats(r); r.Done() == nil {
			t.Errorf("stats truncated to %d bytes accepted", n)
		}
	}
	r := NewReader(append(golden, 0))
	if ReadStats(r); r.Done() == nil {
		t.Error("trailing byte after stats not flagged")
	}
	if core.CacheBypass != 0 || core.CacheHit != 1 || core.CacheMiss != 2 {
		t.Errorf("cache outcome bytes are %d/%d/%d, want 0/1/2: they ride the OpExpand reply",
			core.CacheBypass, core.CacheHit, core.CacheMiss)
	}
}

func TestOpString(t *testing.T) {
	names := map[Op]string{
		OpHealthz: "healthz", OpPlan: "plan", OpTopK: "topk", OpExpand: "expand",
		OpStats: "stats", OpQueries: "queries", OpLink: "link", OpTitle: "title",
	}
	for op, want := range names {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(200).String(); got != "op200" {
		t.Errorf("unknown op label = %q", got)
	}
}
