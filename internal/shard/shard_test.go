package shard

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/synth"
)

// testWorldSystem builds a small deterministic world and its serving
// system.
func testWorldSystem(t *testing.T, seed int64) (*core.System, []core.Query) {
	t.Helper()
	cfg := synth.Default()
	cfg.Seed = seed
	cfg.Topics = 6
	cfg.ArticlesPerTopic = 10
	cfg.DocsPerTopic = 15
	cfg.Queries = 8
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.FromWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	return sys, core.QueriesFromWorld(w)
}

func TestShardOfCoversAllShards(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		hit := make([]int, n)
		for d := int32(0); d < 1000; d++ {
			s := ShardOf(d, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", d, n, s)
			}
			hit[s]++
		}
		for s, c := range hit {
			if c == 0 {
				t.Errorf("n=%d: shard %d received no documents out of 1000", n, s)
			}
		}
		// Determinism: the hash is part of the on-disk contract.
		if ShardOf(42, n) != ShardOf(42, n) {
			t.Fatal("ShardOf is not deterministic")
		}
	}
}

// TestPartitionTilesTheCollection: every document lands in exactly one
// shard with its text, length and postings intact, global statistics are
// the parent's, and the graph and benchmark are replicated.
func TestPartitionTilesTheCollection(t *testing.T) {
	sys, queries := testWorldSystem(t, 11)
	arch := sys.Archive(queries)
	const n = 4
	parts, err := Partition(arch, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != n {
		t.Fatalf("got %d shards, want %d", len(parts), n)
	}
	seen := make([]bool, arch.Index.NumDocs())
	var tokens int64
	for s, part := range parts {
		sh := part.Shard
		if sh == nil || sh.ShardID != s || sh.ShardCount != n {
			t.Fatalf("shard %d: bad identity %+v", s, sh)
		}
		if sh.GlobalDocs != arch.Index.NumDocs() || sh.GlobalTokens != arch.Index.TotalTokens() {
			t.Errorf("shard %d: global stats %d/%d, want %d/%d",
				s, sh.GlobalDocs, sh.GlobalTokens, arch.Index.NumDocs(), arch.Index.TotalTokens())
		}
		if part.Snapshot != arch.Snapshot {
			t.Errorf("shard %d: graph not replicated by reference", s)
		}
		if !reflect.DeepEqual(part.Queries, arch.Queries) {
			t.Errorf("shard %d: benchmark not replicated", s)
		}
		if part.Collection.Len() != len(sh.DocGlobal) || part.Index.NumDocs() != len(sh.DocGlobal) {
			t.Fatalf("shard %d: %d corpus docs, %d index docs, %d map entries",
				s, part.Collection.Len(), part.Index.NumDocs(), len(sh.DocGlobal))
		}
		tokens += part.Index.TotalTokens()
		for local, g := range sh.DocGlobal {
			if ShardOf(g, n) != s {
				t.Fatalf("shard %d owns document %d, ShardOf says %d", s, g, ShardOf(g, n))
			}
			if seen[g] {
				t.Fatalf("document %d owned twice", g)
			}
			seen[g] = true
			got, err := part.Collection.Doc(corpus.DocID(local))
			if err != nil {
				t.Fatal(err)
			}
			orig, err := arch.Collection.Doc(corpus.DocID(g))
			if err != nil {
				t.Fatal(err)
			}
			if got.Text != orig.Text || got.Image.ID != orig.Image.ID {
				t.Fatalf("shard %d local %d: document content diverged from global %d", s, local, g)
			}
			wantLen, _ := arch.Index.DocLen(g)
			gotLen, _ := part.Index.DocLen(int32(local))
			if wantLen != gotLen {
				t.Fatalf("shard %d local %d: doc length %d, want %d", s, local, gotLen, wantLen)
			}
		}
	}
	for g, ok := range seen {
		if !ok {
			t.Errorf("document %d unowned", g)
		}
	}
	if tokens != arch.Index.TotalTokens() {
		t.Errorf("shard token counts sum to %d, want %d", tokens, arch.Index.TotalTokens())
	}

	// Per-term collection frequencies tile too: summed local cf equals the
	// global cf for every term of the global vocabulary.
	for _, term := range arch.Index.Terms() {
		var cf int64
		for _, part := range parts {
			cf += part.Index.CollectionFreq(term)
		}
		if cf != arch.Index.CollectionFreq(term) {
			t.Fatalf("term %q: shard cfs sum to %d, want %d", term, cf, arch.Index.CollectionFreq(term))
		}
	}
}

func TestPartitionRejectsBadInput(t *testing.T) {
	sys, queries := testWorldSystem(t, 11)
	arch := sys.Archive(queries)
	if _, err := Partition(arch, 0); err == nil {
		t.Error("shard count 0 accepted")
	}
	parts, err := Partition(arch, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(parts[0], 2); err == nil || !strings.Contains(err.Error(), "already shard") {
		t.Errorf("re-partitioning a shard: got %v", err)
	}
}

// TestWriteShardsLoadSearchEquivalence is the subsystem-level equivalence
// check: a Set loaded from written shard files returns bit-identical
// Search and Expand results to the single unsharded system (the public
// Pool equivalence test at the repository root covers more shard counts).
func TestWriteShardsLoadSearchEquivalence(t *testing.T) {
	sys, queries := testWorldSystem(t, 17)
	dir := t.TempDir()
	if _, err := WriteShards(dir, sys.Archive(queries), 3); err != nil {
		t.Fatal(err)
	}
	set, err := Load(filepath.Join(dir, ManifestFileName))
	if err != nil {
		t.Fatal(err)
	}
	if set.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", set.NumShards())
	}
	if len(set.Queries()) != len(queries) {
		t.Fatalf("replicated benchmark has %d queries, want %d", len(set.Queries()), len(queries))
	}
	ctx := context.Background()
	for _, q := range queries {
		node, err := sys.Engine.Parse(q.Keywords)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.Engine.Search(node, 15)
		if err != nil {
			t.Fatal(err)
		}
		got, err := set.Search(ctx, node, 15)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %q: sharded ranking diverged\ngot  %+v\nwant %+v", q.Keywords, got, want)
		}

		exp, err := set.Systems()[0].Expand(ctx, q.Keywords, core.DefaultExpanderOptions())
		if err != nil {
			t.Fatal(err)
		}
		wantExp, err := sys.Expand(ctx, q.Keywords, core.DefaultExpanderOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exp, wantExp) {
			t.Fatalf("query %q: sharded expansion diverged", q.Keywords)
		}
	}
}

// TestLoadRejectsInvalidManifests drives the cross-shard validation: a
// generation assembled from mismatched files must be refused at load
// time, never served.
func TestLoadRejectsInvalidManifests(t *testing.T) {
	sysA, queriesA := testWorldSystem(t, 17)
	dirA := t.TempDir()
	if _, err := WriteShards(dirA, sysA.Archive(queriesA), 2); err != nil {
		t.Fatal(err)
	}
	sysB, queriesB := testWorldSystem(t, 99)
	dirB := t.TempDir()
	if _, err := WriteShards(dirB, sysB.Archive(queriesB), 2); err != nil {
		t.Fatal(err)
	}
	manifest := func(t *testing.T, m Manifest) string {
		t.Helper()
		dir := t.TempDir()
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, ManifestFileName)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	abs := func(dir, name string) string { return filepath.Join(dir, name) }

	cases := []struct {
		name    string
		m       Manifest
		wantErr string
	}{
		{
			name: "unsupported version",
			m: Manifest{Version: 99, ShardCount: 1,
				Shards: []ManifestShard{{ID: 0, Path: abs(dirA, "shard-000.qgs")}}},
			wantErr: "unsupported version",
		},
		{
			name: "duplicate slot",
			m: Manifest{Version: ManifestVersion, ShardCount: 2, GlobalDocs: 90, Shards: []ManifestShard{
				{ID: 0, Path: abs(dirA, "shard-000.qgs")},
				{ID: 0, Path: abs(dirA, "shard-000.qgs")}}},
			wantErr: "missing, duplicated or out of range",
		},
		{
			name: "wrong slot for file",
			m: Manifest{Version: ManifestVersion, ShardCount: 2, GlobalDocs: 90, Shards: []ManifestShard{
				{ID: 0, Path: abs(dirA, "shard-001.qgs")},
				{ID: 1, Path: abs(dirA, "shard-000.qgs")}}},
			wantErr: "identifies as shard",
		},
		{
			name: "mixed generations",
			m: Manifest{Version: ManifestVersion, ShardCount: 2, GlobalDocs: 90, Shards: []ManifestShard{
				{ID: 0, Path: abs(dirA, "shard-000.qgs")},
				{ID: 1, Path: abs(dirB, "shard-001.qgs")}}},
			wantErr: "", // any validation error will do; worlds differ in several ways
		},
		{
			name: "wrong shard count",
			m: Manifest{Version: ManifestVersion, ShardCount: 1, GlobalDocs: 90, Shards: []ManifestShard{
				{ID: 0, Path: abs(dirA, "shard-000.qgs")}}},
			wantErr: "belongs to a 2-shard partition",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Load(manifest(t, c.m))
			if err == nil {
				t.Fatal("invalid generation loaded without error")
			}
			if c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestFanOutLeavesTheWriterACore pins how many goroutines a lone search
// adds to its own: one per further source up to the Ps it can expect to
// find idle, with one more P set aside above a live delta, and none for a
// single shard.
func TestFanOutLeavesTheWriterACore(t *testing.T) {
	for _, c := range []struct {
		shards int
		live   bool
		procs  int
		want   int
	}{
		{1, false, 8, 0}, {1, true, 8, 0}, // one shard is scored inline
		{2, false, 1, 0}, {2, false, 2, 1}, {2, false, 8, 1},
		{2, true, 2, 0}, {2, true, 3, 1}, {2, true, 8, 2},
		{8, false, 4, 3}, {8, true, 4, 2}, {8, true, 16, 8},
	} {
		if got := fanOut(c.shards, c.live, c.procs); got != c.want {
			t.Errorf("fanOut(%d shards, live %v, %d procs) = %d, want %d", c.shards, c.live, c.procs, got, c.want)
		}
	}
}
