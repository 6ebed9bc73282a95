// Package shard is the horizontal-scaling subsystem of the serving stack:
// it partitions a complete serving snapshot into N per-shard snapshots
// plus a versioned manifest, and serves the partition through a
// scatter-gather runtime (Set) whose results are bit-identical to the
// single-snapshot system.
//
// The split follows the paper's structure: the knowledge graph (and the
// query benchmark) is small and drives expansion, so it is replicated
// into every shard; the document collection and its positional index are
// the bulk, so they are hash-partitioned by document id. Collection
// statistics — document counts, token counts — are aggregated globally at
// build time and stored in every shard's snapshot, and per-leaf collection
// frequencies are aggregated at query time by exact integer summation
// across shards, so each shard scores against the whole collection's
// background model and the merged ranking equals the unsharded one score
// for score.
package shard

import (
	"fmt"

	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/index"
	"github.com/querygraph/querygraph/internal/store"
)

// ShardOf maps a global document id to its owning shard: FNV-1a over the
// id's four little-endian bytes, mod the shard count. A hash (rather than
// a range or modulo split) keeps topically clustered id ranges — the
// synthetic generator emits documents topic by topic — spread evenly.
func ShardOf(doc int32, shards int) int {
	h := uint32(2166136261)
	for i := 0; i < 4; i++ {
		h ^= uint32(byte(doc >> (8 * i)))
		h *= 16777619
	}
	return int(h % uint32(shards))
}

// Partition splits a complete (unsharded) archive into n per-shard
// archives: graph, names and the query benchmark are replicated; the
// corpus and the positional index are partitioned by ShardOf with local
// doc ids densely reassigned in ascending global order. Every shard
// carries the global doc/token counts so its scorer smooths against the
// whole collection. The shard archives share the parent's strings and
// graph; treat everything as read-only. Fold deals a delta segment's
// documents and postings with the same code.
func Partition(a *store.Archive, n int) ([]*store.Archive, error) {
	if a == nil || a.Index == nil || a.Collection == nil || a.Snapshot == nil {
		return nil, fmt.Errorf("shard: partition of an incomplete archive")
	}
	if a.Shard != nil {
		return nil, fmt.Errorf("shard: archive is already shard %d of %d; partition a complete snapshot",
			a.Shard.ShardID, a.Shard.ShardCount)
	}
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count %d must be >= 1", n)
	}
	return partition(a, n, 0)
}

// partition is Partition of the documents of a, with document d taking
// global id first+d: Partition's with first 0, and Fold's deal of a delta
// segment above a base of first documents. The shards' GlobalDocs is
// first plus a's documents, their GlobalTokens a's tokens alone.
func partition(a *store.Archive, n, first int) ([]*store.Archive, error) {
	numDocs := a.Index.NumDocs()

	// Assign documents: owner[d] = shard, localID[d] = dense id within the
	// owner (ascending global order within each shard).
	owner := make([]int, numDocs)
	localID := make([]int32, numDocs)
	docGlobal := make([][]int32, n)
	for d := 0; d < numDocs; d++ {
		g := int32(first + d)
		s := ShardOf(g, n)
		owner[d] = s
		localID[d] = int32(len(docGlobal[s]))
		docGlobal[s] = append(docGlobal[s], g)
	}

	// Partition the corpus and document lengths.
	docs := a.Collection.Docs()
	docLens := a.Index.DocLens()
	partDocs := make([][]corpus.Document, n)
	partLens := make([][]int64, n)
	for s := 0; s < n; s++ {
		partDocs[s] = make([]corpus.Document, 0, len(docGlobal[s]))
		partLens[s] = make([]int64, 0, len(docGlobal[s]))
	}
	for d := 0; d < numDocs; d++ {
		s := owner[d]
		doc := docs[d]
		doc.ID = corpus.DocID(localID[d])
		partDocs[s] = append(partDocs[s], doc)
		partLens[s] = append(partLens[s], docLens[d])
	}

	// Partition the postings in two passes over the vocabulary: size each
	// shard's share, then deal every term's postings — and the stretch of
	// its positions slab each one owns — into per-shard arenas of exactly
	// that size, keeping the term only in shards where it occurs.
	terms := a.Index.Terms()
	numPost, numPos := make([]int, n), make([]int, n)
	for _, term := range terms {
		for _, post := range a.Index.Postings(term) {
			numPost[owner[post.Doc]]++
			numPos[owner[post.Doc]] += int(post.TF)
		}
	}
	postArena := make([][]index.Posting, n)
	posArena := make([][]uint32, n)
	for s := 0; s < n; s++ {
		postArena[s] = make([]index.Posting, 0, numPost[s])
		posArena[s] = make([]uint32, 0, numPos[s])
	}
	partTerms := make([][]string, n)
	partPostings := make([][][]index.Posting, n)
	partPositions := make([][][]uint32, n)
	postStart, posStart := make([]int, n), make([]int, n) // where the term begins in each arena
	for _, term := range terms {
		for s := 0; s < n; s++ {
			postStart[s], posStart[s] = len(postArena[s]), len(posArena[s])
		}
		slab := a.Index.Positions(term)
		for _, post := range a.Index.Postings(term) {
			s := owner[post.Doc]
			postArena[s] = append(postArena[s], index.Posting{Doc: localID[post.Doc], TF: post.TF})
			posArena[s] = append(posArena[s], slab[:post.TF]...)
			slab = slab[post.TF:]
		}
		for s := 0; s < n; s++ {
			if end, posEnd := len(postArena[s]), len(posArena[s]); end > postStart[s] {
				partTerms[s] = append(partTerms[s], term)
				partPostings[s] = append(partPostings[s], postArena[s][postStart[s]:end:end])
				partPositions[s] = append(partPositions[s], posArena[s][posStart[s]:posEnd:posEnd])
			}
		}
	}

	out := make([]*store.Archive, n)
	for s := 0; s < n; s++ {
		coll, err := corpus.LoadCollection(partDocs[s])
		if err != nil {
			return nil, fmt.Errorf("shard: partition shard %d: %w", s, err)
		}
		ix, err := index.Load(partLens[s], partTerms[s], partPostings[s], partPositions[s])
		if err != nil {
			return nil, fmt.Errorf("shard: partition shard %d: %w", s, err)
		}
		out[s] = &store.Archive{
			Snapshot:   a.Snapshot,
			Collection: coll,
			Index:      ix,
			Queries:    a.Queries,
			Shard: &store.ShardInfo{
				ShardID:      s,
				ShardCount:   n,
				GlobalDocs:   first + numDocs,
				GlobalTokens: a.Index.TotalTokens(),
				DocGlobal:    docGlobal[s],
			},
		}
	}
	return out, nil
}
