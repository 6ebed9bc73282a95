package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/index"
	"github.com/querygraph/querygraph/internal/live"
	"github.com/querygraph/querygraph/internal/store"
)

// Fold distributes a delta segment's documents over a loaded generation
// and returns the per-shard archives of the next generation — the
// compaction output, ready for WriteArchives. Delta document j takes
// global id GlobalDocs()+j, exactly the id the serving scatter already
// exposed for it, and is dealt to its owning shard by partition, with the
// postings and positions the segment indexed it with: no text is analysed
// again. Because delta global ids sort above every base id, each shard's
// new locals append at the tail of its dense local space: the base
// postings are reused untouched (shared, not copied), the merged per-shard
// index is index.Merge of the base and the shard's part of the delta, and
// the doc map is the base's followed by the part's — bit-identical to
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
	ix := index.New() // the nil segment's
	if e := delta.Engine(); e != nil {
		ix = e.Index()
	}
	coll, err := corpus.LoadCollection(delta.Docs())
	if err != nil {
		return nil, fmt.Errorf("shard: fold: %w", err)
	}
	parts, err := partition(&store.Archive{Collection: coll, Index: ix}, len(s.systems), s.globalDocs)
	if err != nil {
		return nil, err
	}
	out := make([]*store.Archive, len(parts))
	for sh, part := range parts {
		sys := s.systems[sh]
		baseDocs := sys.Collection.Docs()
		docs := slices.Concat(baseDocs, part.Collection.Docs())
		for i := len(baseDocs); i < len(docs); i++ {
			docs[i].ID = corpus.DocID(i)
		}
		coll, err := corpus.LoadCollection(docs)
		if err != nil {
			return nil, fmt.Errorf("shard: fold shard %d: %w", sh, err)
		}
		arch := sys.Archive(s.queries)
		arch.Collection = coll
		arch.Index = index.Merge(sys.Engine.Index(), part.Index)
		if s.docMaps != nil {
			arch.Shard = part.Shard
			arch.Shard.GlobalTokens = s.globalTokens + delta.TotalTokens()
			arch.Shard.DocGlobal = slices.Concat(s.docMaps[sh], part.Shard.DocGlobal)
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
