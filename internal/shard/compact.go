package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/index"
	"github.com/querygraph/querygraph/internal/live"
	"github.com/querygraph/querygraph/internal/store"
)

// Fold distributes a delta segment's documents over a loaded generation
// and returns the per-shard archives of the next generation — the
// compaction output, ready for WriteArchives. Delta document j takes
// global id GlobalDocs()+j, exactly the id the serving scatter
// already exposed for it, and is hashed to its owning shard by ShardOf
// like any other document. Because delta global ids sort above every
// base id, each shard's new locals append at the tail of its dense local
// space: the base postings and doc maps are reused untouched (shared,
// not copied) and the merged per-shard index is index.Merge of the base
// and a mini-index over the shard's new documents — bit-identical to
// Partition of a monolithic rebuild holding the same documents, which
// TestFoldMatchesPartition pins. An unsharded Set (Single) folds to one
// complete archive with no partition identity: the snapshot a cold
// rebuild over base plus delta would save.
func Fold(s *Set, delta *live.Delta) ([]*store.Archive, error) {
	if s == nil || len(s.systems) == 0 {
		return nil, fmt.Errorf("shard: fold into an empty set")
	}
	if delta.BaseDocs() != s.globalDocs {
		return nil, fmt.Errorf("shard: delta sits above %d docs, set holds %d", delta.BaseDocs(), s.globalDocs)
	}
	n := len(s.systems)
	an := s.systems[0].Engine.Analyzer()

	// Assign the delta documents: owner shard and, per shard, the new
	// globals in ascending order (delta docs arrive in ascending global
	// order already).
	newDocs := delta.Docs()
	newGlobals := make([][]int32, n)
	newLocal := make([][]corpus.Document, n)
	minis := make([]*index.Index, n)
	var deltaTokens int64
	for i := range minis {
		minis[i] = index.New()
	}
	for j, doc := range newDocs {
		g := int32(s.globalDocs + j)
		sh := ShardOf(g, n)
		newGlobals[sh] = append(newGlobals[sh], g)
		newLocal[sh] = append(newLocal[sh], doc)
		tokens := an.Analyze(doc.Text)
		minis[sh].AddDocument(tokens)
		deltaTokens += int64(len(tokens))
	}

	out := make([]*store.Archive, n)
	for sh := 0; sh < n; sh++ {
		sys := s.systems[sh]
		baseDocs := sys.Collection.Docs()
		docs := make([]corpus.Document, 0, len(baseDocs)+len(newLocal[sh]))
		docs = append(docs, baseDocs...)
		for _, doc := range newLocal[sh] {
			doc.ID = corpus.DocID(len(docs))
			docs = append(docs, doc)
		}
		coll, err := corpus.LoadCollection(docs)
		if err != nil {
			return nil, fmt.Errorf("shard: fold shard %d: %w", sh, err)
		}
		arch := sys.Archive(s.queries)
		arch.Collection = coll
		arch.Index = index.Merge(sys.Engine.Index(), minis[sh])
		if s.docMaps != nil {
			docGlobal := make([]int32, 0, len(s.docMaps[sh])+len(newGlobals[sh]))
			docGlobal = append(docGlobal, s.docMaps[sh]...)
			docGlobal = append(docGlobal, newGlobals[sh]...)
			arch.Shard = &store.ShardInfo{
				ShardID:      sh,
				ShardCount:   n,
				GlobalDocs:   s.globalDocs + len(newDocs),
				GlobalTokens: s.globalTokens + deltaTokens,
				DocGlobal:    docGlobal,
			}
		}
		out[sh] = arch
	}
	return out, nil
}

// WriteArchives publishes a generation of shard archives as the sharded
// snapshot at manifestPath: each shard lands as shard-NNN.qgs next to
// the manifest via a temp file and atomic rename, and the manifest is
// written last, so a concurrent Load sees either the old generation, the
// new one, or a cross-validation failure it can retry — never a torn
// mix. The archives must carry their ShardInfo (Partition and Fold
// both produce it).
func WriteArchives(manifestPath string, archives []*store.Archive) (*Manifest, error) {
	if len(archives) == 0 {
		return nil, fmt.Errorf("shard: write of zero archives")
	}
	dir := filepath.Dir(manifestPath)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manifest{Version: ManifestVersion, ShardCount: len(archives)}
	for s, part := range archives {
		if part.Shard == nil {
			return nil, fmt.Errorf("shard: archive %d carries no shard info", s)
		}
		name := fmt.Sprintf("shard-%03d.qgs", s)
		if err := writeArchiveFile(filepath.Join(dir, name), part); err != nil {
			return nil, err
		}
		m.Shards = append(m.Shards, ManifestShard{ID: s, Path: name, Docs: part.Index.NumDocs()})
	}
	m.GlobalDocs = archives[0].Shard.GlobalDocs
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	tmp := manifestPath + ".tmp"
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, manifestPath); err != nil {
		return nil, err
	}
	return m, nil
}
