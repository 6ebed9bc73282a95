package shard

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/querygraph/querygraph/internal/core"
	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/index"
	"github.com/querygraph/querygraph/internal/live"
	"github.com/querygraph/querygraph/internal/synth"
)

// foldFixture builds a world of 60 documents, splits its collection at
// cut, and returns: the monolithic system over every document (the
// reference a compaction must be indistinguishable from), a loaded Set
// partitioned over just the first cut documents, and a delta segment
// holding the tail.
func foldFixture(t testing.TB, seed int64, n, cut int) (*core.System, []core.Query, *Set, *live.Delta) {
	t.Helper()
	return foldFixtureSized(t, seed, n, 12, cut)
}

// foldFixtureSized is foldFixture over a world of 5·docsPerTopic
// documents.
func foldFixtureSized(t testing.TB, seed int64, n, docsPerTopic, cut int) (*core.System, []core.Query, *Set, *live.Delta) {
	t.Helper()
	cfg := synth.Default()
	cfg.Seed = seed
	cfg.Topics = 5
	cfg.ArticlesPerTopic = 8
	cfg.DocsPerTopic = docsPerTopic
	cfg.Queries = 6
	w, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.FromWorld(w)
	if err != nil {
		t.Fatal(err)
	}
	queries := core.QueriesFromWorld(w)
	docs := w.Collection.Docs()
	if cut > len(docs) {
		t.Fatalf("cut %d beyond %d docs", cut, len(docs))
	}
	// The base snapshot can only reference base documents in its
	// benchmark (the store validates relevant ids against the corpus), so
	// clamp the relevant lists to the base range on both sides of the
	// comparison; a live deployment's benchmark likewise predates ingest.
	for i := range queries {
		kept := queries[i].Relevant[:0:0]
		for _, d := range queries[i].Relevant {
			if int(d) < cut {
				kept = append(kept, d)
			}
		}
		queries[i].Relevant = kept
	}
	baseColl, err := corpus.LoadCollection(docs[:cut])
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.NewSystem(w.Snapshot, baseColl)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := WriteShards(dir, base.Archive(queries), n); err != nil {
		t.Fatal(err)
	}
	set, err := Load(filepath.Join(dir, ManifestFileName))
	if err != nil {
		t.Fatal(err)
	}
	an := base.Engine.Analyzer()
	lcfg := live.Config{Mu: base.Engine.Mu(), RemoveStopwords: an.RemovesStopwords(), Stem: an.Stems()}
	var delta *live.Delta
	// Two appends so the segment's own merge path is exercised too.
	mid := cut + (len(docs)-cut)/2
	for _, span := range [][]corpus.Document{docs[cut:mid], docs[mid:]} {
		imgs := make([]corpus.Image, len(span))
		for i, d := range span {
			imgs[i] = d.Image
		}
		delta, err = live.Append(delta, lcfg, cut, imgs)
		if err != nil {
			t.Fatal(err)
		}
	}
	return full, queries, set, delta
}

// TestFoldMatchesPartition pins the compaction contract structurally:
// folding the delta into the loaded base generation produces, shard for
// shard, the archives Partition produces from the monolithic system that
// indexed every document from scratch — postings, positions, block tables
// and document lengths alike. The larger world has a term in every
// document, so its merged postings cross index.BlockSize on every shard
// with the base's last block partial.
func TestFoldMatchesPartition(t *testing.T) {
	for _, size := range []struct{ docsPerTopic, cut int }{{12, 40}, {100, 330}} {
		for _, n := range []int{1, 3} {
			full, queries, set, delta := foldFixtureSized(t, 29, n, size.docsPerTopic, size.cut)
			folded, err := Fold(set, delta)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Partition(full.Archive(queries), n)
			if err != nil {
				t.Fatal(err)
			}
			if len(folded) != len(want) {
				t.Fatalf("n=%d: %d folded archives, want %d", n, len(folded), len(want))
			}
			crossed := false
			for s := range want {
				w, g := want[s], folded[s]
				if !reflect.DeepEqual(w.Shard, g.Shard) {
					t.Fatalf("n=%d shard %d: shard info diverged\nwant %+v\ngot  %+v", n, s, w.Shard, g.Shard)
				}
				if !reflect.DeepEqual(w.Collection.Docs(), g.Collection.Docs()) {
					t.Fatalf("n=%d shard %d: collections diverged", n, s)
				}
				if !reflect.DeepEqual(w.Queries, g.Queries) {
					t.Fatalf("n=%d shard %d: benchmark diverged", n, s)
				}
				wantTerms := w.Index.Terms()
				if !reflect.DeepEqual(wantTerms, g.Index.Terms()) {
					t.Fatalf("n=%d shard %d: vocabulary diverged", n, s)
				}
				base := set.Systems()[s].Engine.Index()
				for _, term := range wantTerms {
					wp, wb, wcf := w.Index.LookupBlocks(term)
					gp, gb, gcf := g.Index.LookupBlocks(term)
					if wcf != gcf || !reflect.DeepEqual(wp, gp) {
						t.Fatalf("n=%d shard %d term %q: postings diverged", n, s, term)
					}
					if !reflect.DeepEqual(w.Index.Positions(term), g.Index.Positions(term)) {
						t.Fatalf("n=%d shard %d term %q: positions diverged", n, s, term)
					}
					if !reflect.DeepEqual(wb, gb) {
						t.Fatalf("n=%d shard %d term %q: block tables diverged\nwant %+v\ngot  %+v", n, s, term, wb, gb)
					}
					if len(wp) > index.BlockSize && len(base.Postings(term))%index.BlockSize != 0 {
						crossed = true
					}
				}
				if w.Index.TotalTokens() != g.Index.TotalTokens() || w.Index.NumDocs() != g.Index.NumDocs() ||
					w.Index.MaxDocLen() != g.Index.MaxDocLen() || w.Index.NumPostings() != g.Index.NumPostings() {
					t.Fatalf("n=%d shard %d: index shape diverged", n, s)
				}
				if !reflect.DeepEqual(w.Index.DocLens(), g.Index.DocLens()) {
					t.Fatalf("n=%d shard %d: document lengths diverged", n, s)
				}
			}
			if size.docsPerTopic > 12 && !crossed {
				t.Fatalf("n=%d: no term's merged postings cross a block above a partial base block", n)
			}
		}
	}
}

// TestFoldWriteLoadServes is the end-to-end compaction path: fold, write
// with WriteArchives over the old generation's directory, Load the new
// generation, and check it serves bit-identically to the monolithic
// system — the restart-equivalence a compacted snapshot must satisfy.
func TestFoldWriteLoadServes(t *testing.T) {
	full, queries, set, delta := foldFixture(t, 31, 2, 55)
	folded, err := Fold(set, delta)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, ManifestFileName)
	if _, err := WriteArchives(manifestPath, folded); err != nil {
		t.Fatal(err)
	}
	next, err := Load(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if next.GlobalDocs() != full.Collection.Len() {
		t.Fatalf("compacted generation holds %d docs, want %d", next.GlobalDocs(), full.Collection.Len())
	}
	ctx := context.Background()
	for _, q := range queries {
		node, err := full.Engine.Parse(q.Keywords)
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.Engine.Search(node, 15)
		if err != nil {
			t.Fatal(err)
		}
		got, err := next.Search(ctx, node, 15)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %q: compacted ranking diverged\nwant %+v\ngot  %+v", q.Keywords, want, got)
		}
	}
}

// TestFoldRejectsMismatchedDelta: a delta built above a different base
// doc count must be refused, not folded into the wrong id space.
func TestFoldRejectsMismatchedDelta(t *testing.T) {
	_, _, set, _ := foldFixture(t, 29, 2, 40)
	wrong, err := live.Append(nil, live.Config{Mu: 2500, RemoveStopwords: true, Stem: true}, set.GlobalDocs()+1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fold(set, wrong); err == nil {
		t.Fatal("fold accepted a delta above the wrong base")
	}
}

// BenchmarkFold folds a 4 500-document delta into a 2-shard generation of
// 500 documents: the compaction's own cost, without the write.
func BenchmarkFold(b *testing.B) {
	_, _, set, delta := foldFixtureSized(b, 29, 2, 1000, 500)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Fold(set, delta); err != nil {
			b.Fatal(err)
		}
	}
}
