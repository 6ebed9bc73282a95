// Package store implements the versioned, checksummed binary snapshot
// format that persists a complete serving state — the wiki knowledge base,
// the document collection, the positional inverted index and the query
// benchmark — so that serving startup is a decode, not a rebuild: world
// generation, entity-dictionary construction and corpus indexing are all
// paid once at build time (cmd/qgen -out world.qgs) and never again
// (cmd/qbench -load, cmd/qgraph -load, core.LoadSystem).
//
// # Layout
//
//	offset 0   magic "QGSNAP\r\n" (8 bytes; \r\n catches text-mode mangling)
//	offset 8   format version, uint16 little-endian
//	then       eight sections, in fixed order:
//
//	  tag  section    payload
//	  'M'  meta       the one engine configuration, 11 fixed bytes (see meta)
//	  'H'  shard      partition identity: shard id/count, global doc and
//	                  token counts, local→global doc-id map (one flag byte
//	                  for a complete, unsharded snapshot)
//	  'S'  strings    deduplicated string table; every other section refers
//	                  to strings by uvarint table index ("ref")
//	  'G'  graph      node kinds + per-node out-arc lists in stored order
//	  'N'  names      one ref per node (display titles)
//	  'C'  corpus     ImageCLEF records by ref, plus the precomputed
//	                  relevant text so Figure 2 extraction is not re-run
//	  'I'  index      doc lengths, vocabulary refs and positional postings
//	                  with varint delta compression (doc gaps, position gaps)
//	  'Q'  queries    the benchmark: id, keywords ref, relevant doc ids
//
// Every section is framed as
//
//	tag (1 byte) | payload length (uvarint) | payload | CRC32-IEEE (4 bytes LE)
//
// so a truncated or bit-flipped file fails loudly with the offending
// section named, instead of decoding into a silently corrupt system. All
// multi-byte integers inside payloads are varints; floats are IEEE-754
// bits, little-endian.
//
// # Version policy
//
// Version is bumped on any incompatible layout change; readers reject
// unknown versions rather than guessing. There is no cross-version
// migration: a snapshot is a cache of a deterministic build, so the
// recovery path for an old file is to regenerate it, never to migrate it.
package store

import (
	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/index"
	"github.com/querygraph/querygraph/internal/wiki"
)

// Magic identifies a querygraph snapshot file.
const Magic = "QGSNAP\r\n"

// Version is the current snapshot format version. Version 2 added the
// shard section ('H'): a version-1 file has no partition identity, so a
// sharded serving runtime could not tell a full snapshot from a fragment.
const Version = 2

// meta is the meta section's payload: the engine configuration the paper
// fixes (Section 2.2) in the layout every earlier build wrote it — mu 2500
// as float64 bits, then one byte each for keyword terms (off), stopword
// removal (on) and stemming (on). Write emits it and Read refuses any
// other payload, so a snapshot is never served under a configuration it
// was not built for.
var meta = []byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x88, 0xa3, 0x40, 0x00, 0x01, 0x01}

// Section tags, in file order.
const (
	secMeta    = 'M'
	secShard   = 'H'
	secStrings = 'S'
	secGraph   = 'G'
	secNames   = 'N'
	secCorpus  = 'C'
	secIndex   = 'I'
	secQueries = 'Q'
)

// sectionName names a tag for error messages.
func sectionName(tag byte) string {
	switch tag {
	case secMeta:
		return "meta"
	case secShard:
		return "shard"
	case secStrings:
		return "strings"
	case secGraph:
		return "graph"
	case secNames:
		return "names"
	case secCorpus:
		return "corpus"
	case secIndex:
		return "index"
	case secQueries:
		return "queries"
	}
	return "unknown"
}

// sectionOrder is the fixed on-disk section sequence. The shard section
// sits right after meta because, like meta, it frames how every later
// section is interpreted (local doc ids vs the global id space) without
// referring to the string table.
var sectionOrder = []byte{secMeta, secShard, secStrings, secGraph, secNames, secCorpus, secIndex, secQueries}

// Query is one benchmark query carried alongside the serving state.
type Query struct {
	ID       int
	Keywords string
	Relevant []int32
}

// ShardInfo is the partition identity of a sharded snapshot: which slice
// of a hash-partitioned corpus this file holds, and the globally
// aggregated collection statistics fixed at build time so every shard
// scores against the whole collection's background model (bit-identical
// to the single-snapshot scorer). Graph and benchmark are replicated into
// every shard; corpus, index and the doc-id map are per shard.
type ShardInfo struct {
	// ShardID / ShardCount locate this file in the partition (0-based).
	ShardID    int
	ShardCount int
	// GlobalDocs / GlobalTokens are the whole collection's document and
	// token counts, aggregated over all shards at build time.
	GlobalDocs   int
	GlobalTokens int64
	// DocGlobal maps this shard's dense local doc ids to global ids, in
	// strictly ascending order (one entry per local document). Benchmark
	// relevance lists and served results are in the global id space.
	DocGlobal []int32
}

// Archive is the decoded (or to-be-encoded) content of one snapshot file:
// everything core.LoadSystem needs to assemble a serving System without
// reconstruction.
type Archive struct {
	Snapshot   *wiki.Snapshot
	Collection *corpus.Collection
	Index      *index.Index
	Queries    []Query

	// Shard is the partition identity when this archive is one shard of a
	// hash-partitioned corpus; nil for a complete single-system snapshot.
	Shard *ShardInfo
}
