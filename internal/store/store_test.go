package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/index"
	"github.com/querygraph/querygraph/internal/wiki"
)

// testArchive hand-builds a small but fully featured archive: redirects,
// multi-category articles, captions, phrase-bearing postings and queries.
func testArchive(t testing.TB) *Archive {
	t.Helper()
	b := wiki.NewBuilder(8)
	catA, err := b.AddCategory("waterways")
	if err != nil {
		t.Fatal(err)
	}
	catB, err := b.AddCategory("venetian gothic buildings")
	if err != nil {
		t.Fatal(err)
	}
	venice, err := b.AddArticle("venice")
	if err != nil {
		t.Fatal(err)
	}
	canal, err := b.AddArticle("grand canal")
	if err != nil {
		t.Fatal(err)
	}
	palace, err := b.AddArticle("doge palace")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddRedirect("canalazzo", canal); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBelongs(venice, catA); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBelongs(canal, catA); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBelongs(palace, catB); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInside(catB, catA); err != nil {
		t.Fatal(err)
	}
	if err := b.AddLink(venice, canal); err != nil {
		t.Fatal(err)
	}
	if err := b.AddLink(canal, venice); err != nil {
		t.Fatal(err)
	}
	if err := b.AddLink(palace, venice); err != nil {
		t.Fatal(err)
	}
	snap, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	coll := &corpus.Collection{}
	for i, im := range []corpus.Image{
		{
			ID: "100001", File: "images/0/100001.jpg", Name: "Grand Canal.jpg",
			Texts: []corpus.Text{{
				Lang:        "en",
				Description: "a gondola on the grand canal",
				Captions:    []corpus.Caption{{Article: "text/en/1", Value: "grand canal at dusk"}},
			}},
			Comment: "({{Information |Description= venice waterway |Source= synth }})",
			License: "GFDL",
		},
		{
			ID: "100002", File: "images/0/100002.jpg", Name: "Doge Palace.jpg",
			Texts: []corpus.Text{
				{Lang: "en", Description: "doge palace facade"},
				{Lang: "de", Description: "der dogenpalast"},
			},
			License: "GFDL",
		},
		{ID: "100003", File: "images/0/100003.jpg", Name: "Venice.jpg"},
	} {
		if _, err := coll.Add(im); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
	}

	ix := index.New()
	ix.AddDocument([]string{"gondola", "grand", "canal", "grand", "canal"})
	ix.AddDocument([]string{"doge", "palace", "facade"})
	ix.AddDocument([]string{"venice"})

	return &Archive{
		Snapshot:   snap,
		Collection: coll,
		Index:      ix,
		Queries: []Query{
			{ID: 0, Keywords: "gondola in venice", Relevant: []int32{0, 2}},
			{ID: 7, Keywords: "doge palace", Relevant: []int32{1}},
		},
	}
}

func encodeArchive(t testing.TB, a *Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	a := testArchive(t)
	data := encodeArchive(t, a)
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	// Snapshot: same stats, names, redirects and title lookups.
	if !reflect.DeepEqual(got.Snapshot.Stats(), a.Snapshot.Stats()) {
		t.Errorf("snapshot stats: got %+v, want %+v", got.Snapshot.Stats(), a.Snapshot.Stats())
	}
	if !reflect.DeepEqual(got.Snapshot.Graph().Edges(), a.Snapshot.Graph().Edges()) {
		t.Error("graph edges differ")
	}
	if !reflect.DeepEqual(got.Snapshot.Titles(), a.Snapshot.Titles()) {
		t.Error("title dictionaries differ")
	}
	canal, ok := got.Snapshot.Lookup("Grand Canal")
	if !ok {
		t.Fatal("lookup of Grand Canal failed after decode")
	}
	if rs := got.Snapshot.RedirectsTo(canal); len(rs) != 1 || got.Snapshot.Name(rs[0]) != "canalazzo" {
		t.Errorf("redirect aliases lost: %v", rs)
	}
	// Corpus: documents including precomputed relevant text.
	if !reflect.DeepEqual(got.Collection.Docs(), a.Collection.Docs()) {
		t.Error("collection documents differ")
	}
	if id, ok := got.Collection.ByExternalID("100002"); !ok || id != 1 {
		t.Errorf("external id lookup: got %d, %v", id, ok)
	}
	// Index: vocabulary, postings, lengths and derived statistics.
	if !reflect.DeepEqual(got.Index.Terms(), a.Index.Terms()) {
		t.Errorf("terms differ: %v vs %v", got.Index.Terms(), a.Index.Terms())
	}
	for _, term := range a.Index.Terms() {
		if !reflect.DeepEqual(got.Index.Postings(term), a.Index.Postings(term)) {
			t.Errorf("postings for %q differ", term)
		}
		if !reflect.DeepEqual(got.Index.Positions(term), a.Index.Positions(term)) {
			t.Errorf("positions for %q differ", term)
		}
	}
	if got.Index.TotalTokens() != a.Index.TotalTokens() || got.Index.NumDocs() != a.Index.NumDocs() ||
		got.Index.NumPostings() != a.Index.NumPostings() {
		t.Error("index statistics differ")
	}
	if !reflect.DeepEqual(got.Queries, a.Queries) {
		t.Errorf("queries: got %+v, want %+v", got.Queries, a.Queries)
	}
}

func TestWriteRejectsIncompleteArchive(t *testing.T) {
	a := testArchive(t)
	var buf bytes.Buffer
	if err := Write(&buf, nil); err == nil {
		t.Error("nil archive should fail")
	}
	broken := *a
	broken.Index = index.New() // zero docs vs three corpus docs
	if err := Write(&buf, &broken); err == nil || !strings.Contains(err.Error(), "dense ids") {
		t.Errorf("doc-count mismatch should fail, got %v", err)
	}
}

// section is one decoded frame of the file, located by offset.
type section struct {
	tag                      byte
	start, payloadStart, end int // end is one past the CRC
}

// walkSections re-parses the framing so corruption tests can target exact
// byte ranges.
func walkSections(t testing.TB, data []byte) []section {
	t.Helper()
	off := len(Magic) + 2
	var out []section
	for off < len(data) {
		s := section{tag: data[off], start: off}
		n, read := binary.Uvarint(data[off+1:])
		if read <= 0 {
			t.Fatalf("bad length at offset %d", off+1)
		}
		s.payloadStart = off + 1 + read
		s.end = s.payloadStart + int(n) + 4
		out = append(out, s)
		off = s.end
	}
	return out
}

// corruption is one way of damaging a pristine snapshot file and the error
// Read must answer it with. The tables below are shared between the tests
// that pin those errors and FuzzRead, which seeds from every case.
type corruption struct {
	name    string
	mutate  func([]byte) []byte
	wantErr string
}

// framingCorruptions lists every framing defense over the file whose
// sections are secs: wrong magic, unsupported version, flipped payload and
// CRC bytes per section, wrong section order, and truncation at every
// section boundary.
func framingCorruptions(secs []section) []corruption {
	cases := []corruption{
		{
			name:    "wrong magic",
			mutate:  func(d []byte) []byte { d[0] ^= 0xff; return d },
			wantErr: "bad magic",
		},
		{
			name:    "unsupported version",
			mutate:  func(d []byte) []byte { d[len(Magic)] = 99; return d },
			wantErr: "unsupported snapshot version 99",
		},
		{
			name:    "empty file",
			mutate:  func(d []byte) []byte { return d[:0] },
			wantErr: "truncated header",
		},
		{
			name:    "header cut mid-magic",
			mutate:  func(d []byte) []byte { return d[:4] },
			wantErr: "truncated header",
		},
	}
	for _, s := range secs {
		name := sectionName(s.tag)
		cases = append(cases,
			corruption{
				name:    fmt.Sprintf("%s: flipped payload byte", name),
				mutate:  func(d []byte) []byte { d[s.payloadStart] ^= 0x01; return d },
				wantErr: name + " section: checksum mismatch",
			},
			corruption{
				name:    fmt.Sprintf("%s: flipped crc byte", name),
				mutate:  func(d []byte) []byte { d[s.end-1] ^= 0x01; return d },
				wantErr: name + " section: checksum mismatch",
			},
			corruption{
				name:    fmt.Sprintf("%s: wrong section tag", name),
				mutate:  func(d []byte) []byte { d[s.start] = 'Z'; return d },
				wantErr: fmt.Sprintf("expected %s section", name),
			},
			corruption{
				name:    fmt.Sprintf("%s: truncated before section", name),
				mutate:  func(d []byte) []byte { return d[:s.start] },
				wantErr: name + " section: truncated before section tag",
			},
			corruption{
				name:    fmt.Sprintf("%s: truncated mid-payload", name),
				mutate:  func(d []byte) []byte { return d[:s.payloadStart] },
				wantErr: name + " section: truncated",
			},
			corruption{
				name:    fmt.Sprintf("%s: truncated before checksum", name),
				mutate:  func(d []byte) []byte { return d[:s.end-4] },
				wantErr: name + " section: truncated checksum",
			},
		)
	}
	return cases
}

// TestDecodeFailurePaths drives every framing defense. Every case must
// fail with an error naming the problem — never a panic, never a nil error.
func TestDecodeFailurePaths(t *testing.T) {
	pristine := encodeArchive(t, testArchive(t))
	secs := walkSections(t, pristine)
	if len(secs) != len(sectionOrder) {
		t.Fatalf("expected %d sections, walked %d", len(sectionOrder), len(secs))
	}
	cases := framingCorruptions(secs)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := c.mutate(append([]byte(nil), pristine...))
			_, err := Read(bytes.NewReader(data))
			if err == nil {
				t.Fatal("corrupted snapshot decoded without error")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestShardRoundTrip pins the v2 partition identity: a sharded archive
// round-trips its shard slot, global statistics and doc-id map, and its
// benchmark relevance lists validate against the global doc space (which
// is larger than the shard's own corpus).
func TestShardRoundTrip(t *testing.T) {
	a := testArchive(t)
	a.Shard = &ShardInfo{
		ShardID:      2,
		ShardCount:   4,
		GlobalDocs:   12,
		GlobalTokens: a.Index.TotalTokens() + 31,
		DocGlobal:    []int32{1, 5, 9},
	}
	// Global relevance ids beyond the local corpus must survive: the
	// benchmark is replicated, the corpus partitioned.
	a.Queries = []Query{{ID: 3, Keywords: "gondola in venice", Relevant: []int32{0, 9, 11}}}
	got, err := Read(bytes.NewReader(encodeArchive(t, a)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(got.Shard, a.Shard) {
		t.Errorf("shard info: got %+v, want %+v", got.Shard, a.Shard)
	}
	if !reflect.DeepEqual(got.Queries, a.Queries) {
		t.Errorf("queries: got %+v, want %+v", got.Queries, a.Queries)
	}

	// An unsharded archive decodes with a nil ShardInfo.
	plain, err := Read(bytes.NewReader(encodeArchive(t, testArchive(t))))
	if err != nil {
		t.Fatalf("Read unsharded: %v", err)
	}
	if plain.Shard != nil {
		t.Errorf("unsharded snapshot decoded shard info %+v", plain.Shard)
	}
}

// TestWriteRejectsBadShard drives validateShard: every inconsistent
// partition identity must fail at write time with the problem named.
func TestWriteRejectsBadShard(t *testing.T) {
	cases := []struct {
		name    string
		shard   ShardInfo
		wantErr string
	}{
		{
			name:    "id beyond count",
			shard:   ShardInfo{ShardID: 4, ShardCount: 4, GlobalDocs: 12, GlobalTokens: 1000, DocGlobal: []int32{0, 1, 2}},
			wantErr: "not a valid partition slot",
		},
		{
			name:    "doc map length mismatch",
			shard:   ShardInfo{ShardID: 0, ShardCount: 2, GlobalDocs: 12, GlobalTokens: 1000, DocGlobal: []int32{0, 1}},
			wantErr: "doc map has 2 entries for 3 documents",
		},
		{
			name:    "doc map out of order",
			shard:   ShardInfo{ShardID: 0, ShardCount: 2, GlobalDocs: 12, GlobalTokens: 1000, DocGlobal: []int32{5, 5, 9}},
			wantErr: "out of order",
		},
		{
			name:    "doc map beyond global",
			shard:   ShardInfo{ShardID: 0, ShardCount: 2, GlobalDocs: 8, GlobalTokens: 1000, DocGlobal: []int32{0, 4, 8}},
			wantErr: "out of order or beyond",
		},
		{
			name:    "fewer global docs than local",
			shard:   ShardInfo{ShardID: 0, ShardCount: 2, GlobalDocs: 2, GlobalTokens: 1000, DocGlobal: []int32{0, 1, 2}},
			wantErr: "globally",
		},
		{
			name:    "fewer global tokens than local",
			shard:   ShardInfo{ShardID: 0, ShardCount: 2, GlobalDocs: 12, GlobalTokens: 1, DocGlobal: []int32{0, 1, 2}},
			wantErr: "globally",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := testArchive(t)
			sh := c.shard
			a.Shard = &sh
			var buf bytes.Buffer
			err := Write(&buf, a)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("got %v, want error mentioning %q", err, c.wantErr)
			}
		})
	}
}

// payloadCorruption is one malformed section payload and the error its
// decoder must answer it with.
type payloadCorruption struct {
	name    string
	payload []byte
	wantErr string
}

// shardCorruptions hand-crafts malformed shard payloads.
func shardCorruptions() []payloadCorruption {
	build := func(f func(p *payload)) []byte {
		var p payload
		f(&p)
		return p.b
	}
	return []payloadCorruption{
		{
			name: "invalid slot",
			payload: build(func(p *payload) {
				p.bool(true)
				p.uvarint(3) // id
				p.uvarint(3) // count (id must be < count)
			}),
			wantErr: "not a valid partition slot",
		},
		{
			name: "doc map beyond global docs",
			payload: build(func(p *payload) {
				p.bool(true)
				p.uvarint(0)  // id
				p.uvarint(2)  // count
				p.uvarint(2)  // global docs
				p.uvarint(10) // global tokens
				p.uvarint(1)  // one map entry
				p.uvarint(2)  // global id 2 >= 2
			}),
			wantErr: "beyond 2 documents",
		},
		{
			name: "doc map gap overflows",
			payload: build(func(p *payload) {
				p.bool(true)
				p.uvarint(0)
				p.uvarint(2)
				p.uvarint(2)
				p.uvarint(10)
				p.uvarint(1)
				p.uvarint(1 << 40)
			}),
			wantErr: "gap",
		},
		{
			name: "trailing bytes after unsharded flag",
			payload: build(func(p *payload) {
				p.bool(false)
				p.byte(7)
			}),
			wantErr: "trailing bytes",
		},
	}
}

// writtenMeta is the meta payload every build writes: mu 2500 as
// little-endian float64 bits, keyword terms off, stopword removal on,
// stemming on.
var writtenMeta = []byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x88, 0xa3, 0x40, 0x00, 0x01, 0x01}

// metaCorruptions are meta payloads of other engine configurations, each
// one setting away from the written one.
func metaCorruptions() []payloadCorruption {
	with := func(i int, b ...byte) []byte {
		p := bytes.Clone(writtenMeta)
		copy(p[i:], b)
		return p
	}
	return []payloadCorruption{
		{name: "mu 1234", payload: with(0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x48, 0x93, 0x40)},
		{name: "keyword terms on", payload: with(8, 1)},
		{name: "stopwords kept", payload: with(9, 0)},
		{name: "unstemmed", payload: with(10, 0)},
	}
}

// TestMetaSectionIsFixed pins the meta bytes Write emits.
func TestMetaSectionIsFixed(t *testing.T) {
	data := encodeArchive(t, testArchive(t))
	s := walkSections(t, data)[0]
	if got := data[s.payloadStart : s.end-4]; s.tag != secMeta || !bytes.Equal(got, writtenMeta) {
		t.Fatalf("meta section %c % x, want M % x", s.tag, got, writtenMeta)
	}
}

// TestReadRejectsOtherEngineConfig: a meta section of any other engine
// configuration fails Read even under a valid checksum, so a snapshot
// saved with another mu or analyzer is never served under this one.
func TestReadRejectsOtherEngineConfig(t *testing.T) {
	pristine := encodeArchive(t, testArchive(t))
	for _, c := range metaCorruptions() {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(withSection(t, pristine, secMeta, c.payload)))
			if err == nil || !strings.Contains(err.Error(), "meta section: engine configuration") {
				t.Errorf("got %v, want a meta section error", err)
			}
		})
	}
}

// withSection returns data with the section tagged tag replaced by one
// framing body under a valid checksum.
func withSection(t testing.TB, data []byte, tag byte, body []byte) []byte {
	t.Helper()
	var framed bytes.Buffer
	bw := bufio.NewWriter(&framed)
	if err := writeSection(bw, tag, body); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, s := range walkSections(t, data) {
		if s.tag == tag {
			return append(append(bytes.Clone(data[:s.start]), framed.Bytes()...), data[s.end:]...)
		}
	}
	t.Fatalf("no %s section", sectionName(tag))
	return nil
}

// TestDecodeShardFailures: the decoder must reject malformed shard
// payloads with the shard section named, never wrap an id into range or
// decode a partial map.
func TestDecodeShardFailures(t *testing.T) {
	cases := shardCorruptions()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := decodeShard(c.payload)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("got %v, want error mentioning %q", err, c.wantErr)
			}
		})
	}
}

// TestDecodeGraphRejectsWideArcTarget: an arc target wider than uint32
// (or merely beyond the node count) must fail before the NodeID cast can
// wrap it into some valid node.
func TestDecodeGraphRejectsWideArcTarget(t *testing.T) {
	for _, target := range wideArcTargets {
		if _, err := decodeGraph(wideArcGraphPayload(target)); err == nil || !strings.Contains(err.Error(), "beyond 2 nodes") {
			t.Errorf("arc target %d: got %v, want out-of-range error", target, err)
		}
	}
}

var wideArcTargets = []uint64{2, 1 << 33, (1 << 32) + 1}

// wideArcGraphPayload is a two-node graph whose one arc points at target.
func wideArcGraphPayload(target uint64) []byte {
	var p payload
	p.uvarint(2)      // two nodes
	p.byte(0)         // kinds: article, article
	p.byte(0)         //
	p.uvarint(1)      // node 0: one arc
	p.uvarint(target) //   to an out-of-range node
	p.byte(0)         //   link
	p.uvarint(0)      // node 1: no arcs
	return p.b
}

// TestDecodeIndexRejectsOverflowingGaps: 64-bit doc and position gaps must
// be rejected before delta arithmetic can overflow into plausible values.
func TestDecodeIndexRejectsOverflowingGaps(t *testing.T) {
	strs := []string{"term"}
	if _, err := decodeIndex(indexPayload(1<<40, 0), strs); err == nil ||
		!strings.Contains(err.Error(), "doc gap") {
		t.Errorf("huge doc gap: got %v, want overflow error", err)
	}
	if _, err := decodeIndex(indexPayload(0, 1<<63), strs); err == nil ||
		!strings.Contains(err.Error(), "position gap") {
		t.Errorf("huge position gap: got %v, want overflow error", err)
	}
	if _, err := decodeIndex(indexPayload(0, 0), strs); err != nil {
		t.Errorf("well-formed payload rejected: %v", err)
	}
}

// indexPayload is a one-document, one-term, one-posting index section with
// the given doc and position gaps (string ref 0 names the term).
func indexPayload(docGap, posGap uint64) []byte {
	var p payload
	p.uvarint(1)      // one document
	p.uvarint(5)      // its length
	p.uvarint(1)      // one term
	p.uvarint(0)      // term ref
	p.uvarint(1)      // one posting
	p.uvarint(docGap) // doc gap
	p.uvarint(1)      // one position
	p.uvarint(posGap) // position gap
	return p.b
}

// TestDecodeRejectsDanglingStringRef corrupts a names payload ref beyond
// the string table and fixes up the CRC, proving the semantic validation
// fires even when the checksum passes.
func TestDecodeRejectsDanglingStringRef(t *testing.T) {
	_, err := Read(bytes.NewReader(danglingStringRefFile(t)))
	if err == nil || !strings.Contains(err.Error(), "string ref") {
		t.Fatalf("dangling string ref not caught: %v", err)
	}
}

// danglingStringRefFile is testArchive encoded with a string table cut to
// one entry, every checksum valid.
func danglingStringRefFile(t testing.TB) []byte {
	a := testArchive(t)
	in := newInterner()
	in.ref("only one string")
	sections := map[byte][]byte{
		secMeta:    meta,
		secShard:   encodeShard(a.Shard),
		secGraph:   encodeGraph(a.Snapshot.Graph()),
		secNames:   encodeNames(in, a), // refs beyond the truncated table below
		secCorpus:  encodeCorpus(in, a.Collection),
		secIndex:   encodeIndex(in, a.Index),
		secQueries: encodeQueries(in, a.Queries),
	}
	in.strs = in.strs[:1] // drop every interned string but the first
	sections[secStrings] = encodeStrings(in)

	var buf bytes.Buffer
	buf.WriteString(Magic)
	var ver [2]byte
	binary.LittleEndian.PutUint16(ver[:], Version)
	buf.Write(ver[:])
	bw := bufio.NewWriter(&buf)
	for _, tag := range sectionOrder {
		if err := writeSection(bw, tag, sections[tag]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergeMatchesReplayBytes: folding segments with index.Merge — once, or
// chained the way live.Append grows a delta — and replaying every token
// stream through AddDocument into one index are the same index as far as a
// snapshot can tell: Write emits identical bytes for both.
func TestMergeMatchesReplayBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		vocab := 1 + rng.Intn(12)
		replay, merged := index.New(), index.New()
		coll := &corpus.Collection{}
		for seg := 1 + rng.Intn(3); seg > 0; seg-- {
			part := index.New()
			for d := rng.Intn(12); d > 0; d-- { // empty segments allowed
				tokens := make([]string, rng.Intn(20)) // empty documents too
				for i := range tokens {
					tokens[i] = fmt.Sprintf("t%d", rng.Intn(vocab))
				}
				replay.AddDocument(tokens)
				part.AddDocument(tokens)
				if _, err := coll.Add(corpus.Image{ID: fmt.Sprint(coll.Len())}); err != nil {
					t.Fatal(err)
				}
			}
			merged = index.Merge(merged, part)
		}
		a := testArchive(t)
		a.Collection, a.Queries = coll, nil
		a.Index = replay
		want := encodeArchive(t, a)
		a.Index = merged
		if got := encodeArchive(t, a); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: merged index encodes to %d bytes that differ from the replayed index's %d", trial, len(got), len(want))
		}
	}
}
