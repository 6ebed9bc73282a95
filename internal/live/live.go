// Package live implements the in-memory delta segment of the live index:
// an append-only mini-index over the documents ingested since the serving
// snapshot was built, searched on every request as one more source of
// the scatter (search.SearchSourcesLeaves, via shard.Set.WithDelta) and
// folded into the next snapshot generation by compaction (shard.Fold).
//
// A Delta is immutable: Append returns a new value sharing the previous
// segment's postings (index.Merge), so readers pinned to an old delta —
// in-flight searches on a retired generation — never observe mutation.
// The nil *Delta is the empty segment; every accessor is nil-safe.
//
// Doc-id layout: delta documents occupy the global id range
// [BaseDocs, BaseDocs+NumDocs) in ingest order, exactly the ids a cold
// rebuild appending the same documents would assign. That alignment is
// what makes the multi-source merge and the compaction fold bit-identical
// to the rebuilt index.
package live

import (
	"fmt"

	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/index"
	"github.com/querygraph/querygraph/internal/search"
	"github.com/querygraph/querygraph/internal/text"
)

// Config fixes the segment's analysis and scoring configuration, which
// must match the base engine's so that merged-statistics scoring equals
// the monolithic rebuild.
type Config struct {
	// Mu is the engine's Dirichlet smoothing parameter.
	Mu float64
	// RemoveStopwords and Stem configure the analyzer chain.
	RemoveStopwords bool
	Stem            bool
}

// Delta is one immutable delta segment. The zero pointer (nil) is the
// empty segment.
type Delta struct {
	cfg      Config
	an       *text.Analyzer
	baseDocs int
	docs     []corpus.Document // local dense ids 0..n-1
	col      *corpus.Collection
	ix       *index.Index
	engine   *search.Engine
	bytes    int64
}

// Append extends prev (nil = empty) with imgs and returns the new
// segment; prev is unchanged. The new documents take the next local ids,
// i.e. global ids baseDocs+len(prev docs) onward. cfg and baseDocs
// describe the base snapshot the segment sits above and must agree with
// prev's when extending. Duplicate external ids within the segment are
// rejected (uniqueness against the base collection is the caller's
// check, since only the runtime holds both sides).
func Append(prev *Delta, cfg Config, baseDocs int, imgs []corpus.Image) (*Delta, error) {
	if prev != nil && (prev.cfg != cfg || prev.baseDocs != baseDocs) {
		return nil, fmt.Errorf("live: append against config %+v base %d, segment built for %+v base %d",
			cfg, baseDocs, prev.cfg, prev.baseDocs)
	}
	var (
		prevDocs  []corpus.Document
		prevIx    = index.New()
		prevBytes int64
	)
	if prev != nil {
		prevDocs, prevIx, prevBytes = prev.docs, prev.ix, prev.bytes
	}
	an := text.NewAnalyzer(cfg.RemoveStopwords, cfg.Stem)
	if prev != nil {
		an = prev.an
	}
	docs := make([]corpus.Document, 0, len(prevDocs)+len(imgs))
	docs = append(docs, prevDocs...)
	mini := index.New()
	bytes := prevBytes
	for _, im := range imgs {
		txt := im.RelevantText()
		docs = append(docs, corpus.Document{ID: corpus.DocID(len(docs)), Image: im, Text: txt})
		mini.AddDocument(an.Analyze(txt))
		bytes += int64(len(txt))
	}
	col, err := corpus.LoadCollection(docs)
	if err != nil {
		return nil, err
	}
	ix := index.Merge(prevIx, mini)
	engine, err := search.NewEngine(ix, an, search.WithMu(cfg.Mu))
	if err != nil {
		return nil, err
	}
	return &Delta{
		cfg:      cfg,
		an:       an,
		baseDocs: baseDocs,
		docs:     docs,
		col:      col,
		ix:       ix,
		engine:   engine,
		bytes:    bytes,
	}, nil
}

// NumDocs returns the number of documents in the segment.
func (d *Delta) NumDocs() int {
	if d == nil {
		return 0
	}
	return len(d.docs)
}

// Bytes returns the pending-compaction size: the total extracted text
// bytes held by the segment.
func (d *Delta) Bytes() int64 {
	if d == nil {
		return 0
	}
	return d.bytes
}

// BaseDocs returns the base snapshot's document count the segment was
// built above (0 for the empty segment).
func (d *Delta) BaseDocs() int {
	if d == nil {
		return 0
	}
	return d.baseDocs
}

// TotalTokens returns the segment's token count (added to the base's for
// merged-statistics scoring).
func (d *Delta) TotalTokens() int64 {
	if d == nil {
		return 0
	}
	return d.ix.TotalTokens()
}

// Docs returns the segment's documents in local dense-id order, owned by
// the segment (read-only).
func (d *Delta) Docs() []corpus.Document {
	if d == nil {
		return nil
	}
	return d.docs
}

// Engine returns the segment's scoring engine (nil for the empty
// segment).
func (d *Delta) Engine() *search.Engine {
	if d == nil {
		return nil
	}
	return d.engine
}

// Source is the segment's slot in the multi-source search: its engine with
// local ids shifted into the global range above the base.
func (d *Delta) Source() search.Source {
	return search.Source{Engine: d.Engine(), Offset: int32(d.BaseDocs())}
}
