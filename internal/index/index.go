// Package index implements the positional inverted index underneath the
// search engine: term dictionary, per-term postings with in-document
// positions, document lengths and collection statistics, plus the
// positional intersection used to evaluate exact-phrase (#1) operators.
//
// The index stores analyzed terms; the caller (the search layer) owns the
// analysis chain so that indexing and querying agree on tokenization.
package index

import (
	"fmt"
	"sort"
)

// Posting is one term's occurrence count in one document: a flat,
// pointer-free 8-byte record. The occurrences themselves live in the
// term's positions slab (Index.Positions), which the term's postings
// consume TF entries at a time, in order.
type Posting struct {
	Doc int32
	TF  uint32
}

// BlockSize is the number of consecutive postings one Block summarises.
const BlockSize = 128

// Block summarises postings [b·BlockSize, (b+1)·BlockSize) of one term's
// list — the last block may be shorter — for a scorer that skips or seeks
// through the list instead of walking it: where the block ends, and the
// most a document in it can score (the largest frequency, the shortest
// document).
type Block struct {
	LastDoc int32  // doc of the block's last posting
	MaxTF   uint32 // largest TF in the block
	MinDL   int64  // shortest document length in the block
}

// Index is a positional inverted index over dense document IDs. Documents
// are added once each via AddDocument; afterwards the index is safe for
// concurrent reads.
type Index struct {
	dict     map[string]int32
	terms    []string    // termID -> term
	postings [][]Posting // termID -> postings sorted by doc
	// positions[termID] is the term's slab: the ascending in-document token
	// offsets of posting 0, then posting 1's, and so on. Its length is the
	// term's collection frequency.
	positions [][]uint32
	// blocks[termID] is the block table of each term with more than
	// BlockSize postings — a map, since they are few, so that a Merge per
	// ingest copies those instead of one more entry per term. It is derived
	// from postings and docLens wherever those are built — AddDocument,
	// Load, Merge — and never stored.
	blocks      map[int32][]Block
	docLens     []int64
	maxDocLen   int64
	total       int64 // total token count across the collection
	numPostings int64
}

// New returns an empty index.
func New() *Index {
	return &Index{dict: make(map[string]int32), blocks: make(map[int32][]Block)}
}

// AddDocument appends a document with the next dense ID and returns that ID.
// Token positions are their offsets in the supplied slice. Empty documents
// are allowed (an image with no usable text still occupies a rank).
func (ix *Index) AddDocument(tokens []string) int32 {
	doc, dl := int32(len(ix.docLens)), int64(len(tokens))
	ix.docLens = append(ix.docLens, dl)
	ix.maxDocLen = max(ix.maxDocLen, dl)
	ix.total += dl
	for pos, tok := range tokens {
		tid, ok := ix.dict[tok]
		if !ok {
			tid = int32(len(ix.terms))
			ix.dict[tok] = tid
			ix.terms = append(ix.terms, tok)
			ix.postings = append(ix.postings, nil)
			ix.positions = append(ix.positions, nil)
		}
		plist := ix.postings[tid]
		if n := len(plist); n > 0 && plist[n-1].Doc == doc {
			plist[n-1].TF++
			if n > BlockSize {
				bl := ix.blocks[tid]
				last := &bl[len(bl)-1]
				last.MaxTF = max(last.MaxTF, plist[n-1].TF)
			}
		} else {
			plist = append(plist, Posting{Doc: doc, TF: 1})
			ix.postings[tid] = plist
			ix.numPostings++
			switch {
			case n > BlockSize:
				ix.blocks[tid] = foldBlock(ix.blocks[tid], n, plist[n], dl)
			case n == BlockSize: // the list just outgrew one block
				ix.blocks[tid] = appendBlocks(nil, plist, 0, ix.docLens)
			}
		}
		ix.positions[tid] = append(ix.positions[tid], uint32(pos))
	}
	return doc
}

// foldBlock folds posting i of a list, p, in a document of length dl,
// into the list's block table: it opens block i/BlockSize or extends it.
// Postings are folded in order.
func foldBlock(bl []Block, i int, p Posting, dl int64) []Block {
	if i%BlockSize == 0 {
		return append(bl, Block{LastDoc: p.Doc, MaxTF: p.TF, MinDL: dl})
	}
	last := &bl[len(bl)-1]
	last.LastDoc, last.MaxTF, last.MinDL = p.Doc, max(last.MaxTF, p.TF), min(last.MinDL, dl)
	return bl
}

// appendBlocks appends to bl the blocks of plist from posting from (a
// multiple of BlockSize) on.
func appendBlocks(bl []Block, plist []Posting, from int, docLens []int64) []Block {
	for i := from; i < len(plist); i++ {
		bl = foldBlock(bl, i, plist[i], docLens[plist[i].Doc])
	}
	return bl
}

// Load reconstructs an index directly from its decoded state — document
// lengths, vocabulary, per-term postings and per-term positions slabs —
// bypassing AddDocument: no tokens are replayed and no postings are
// re-merged. This is the decode path of the binary snapshot subsystem
// (internal/store). The collection length and the postings count are
// derived in one pass over the input, which is validated for shape (doc
// bounds, ascending postings, no empty posting, every slab exactly as long
// as its postings' frequencies add up to) so a corrupted snapshot fails
// loudly instead of silently corrupting scoring; the same pass derives the
// block tables. The slices are owned by the index afterwards.
func Load(docLens []int64, terms []string, postings [][]Posting, positions [][]uint32) (*Index, error) {
	if len(terms) != len(postings) || len(terms) != len(positions) {
		return nil, fmt.Errorf("index: load: %d terms but %d postings lists and %d positions slabs",
			len(terms), len(postings), len(positions))
	}
	ix := &Index{
		dict:      make(map[string]int32, len(terms)),
		terms:     terms,
		postings:  postings,
		positions: positions,
		blocks:    make(map[int32][]Block),
		docLens:   docLens,
	}
	for doc, dl := range docLens {
		if dl < 0 {
			return nil, fmt.Errorf("index: load: negative length %d for doc %d", dl, doc)
		}
		ix.total += dl
		ix.maxDocLen = max(ix.maxDocLen, dl)
	}
	for tid, term := range terms {
		if _, dup := ix.dict[term]; dup {
			return nil, fmt.Errorf("index: load: duplicate term %q", term)
		}
		ix.dict[term] = int32(tid)
		prev := int32(-1)
		var cf int64
		var bl []Block
		if n := len(postings[tid]); n > BlockSize {
			bl = make([]Block, 0, (n+BlockSize-1)/BlockSize)
		}
		for i, p := range postings[tid] {
			if p.Doc <= prev || int(p.Doc) >= len(docLens) {
				return nil, fmt.Errorf("index: load: term %q: doc %d out of order or out of range", term, p.Doc)
			}
			if p.TF == 0 {
				return nil, fmt.Errorf("index: load: term %q: empty posting for doc %d", term, p.Doc)
			}
			if bl != nil {
				bl = foldBlock(bl, i, p, docLens[p.Doc])
			}
			prev = p.Doc
			cf += int64(p.TF)
		}
		if bl != nil {
			ix.blocks[int32(tid)] = bl
		}
		if cf != int64(len(positions[tid])) {
			return nil, fmt.Errorf("index: load: term %q: postings count %d occurrences, slab holds %d", term, cf, len(positions[tid]))
		}
		ix.numPostings += int64(len(postings[tid]))
	}
	return ix, nil
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return len(ix.docLens) }

// DocLen returns the token count of document doc.
func (ix *Index) DocLen(doc int32) (int64, error) {
	if doc < 0 || int(doc) >= len(ix.docLens) {
		return 0, fmt.Errorf("index: unknown document %d", doc)
	}
	return ix.docLens[doc], nil
}

// DocLens returns every document's token count, indexed by doc id. The
// slice is owned by the index and must not be modified.
func (ix *Index) DocLens() []int64 { return ix.docLens }

// MaxDocLen returns the longest document's token count (0 when empty).
func (ix *Index) MaxDocLen() int64 { return ix.maxDocLen }

// TotalTokens returns the collection length (sum of document lengths).
func (ix *Index) TotalTokens() int64 { return ix.total }

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int { return len(ix.terms) }

// NumPostings returns the total number of (term, document) pairs — the sum
// of document frequencies over the vocabulary, counted as the index is
// built. Serving stats report it per shard as a size measure of the
// partitioned index.
func (ix *Index) NumPostings() int64 { return ix.numPostings }

// Postings returns the postings list for term, or nil when absent. The
// returned slice is owned by the index and must not be modified.
func (ix *Index) Postings(term string) []Posting {
	tid, ok := ix.dict[term]
	if !ok {
		return nil
	}
	return ix.postings[tid]
}

// Positions returns term's positions slab (nil when absent): for each of
// Postings(term) in order, that posting's TF ascending token offsets. A
// reader walks the two together, advancing an offset by TF per posting.
// The returned slice is owned by the index and must not be modified.
func (ix *Index) Positions(term string) []uint32 {
	tid, ok := ix.dict[term]
	if !ok {
		return nil
	}
	return ix.positions[tid]
}

// Lookup returns the postings list and collection frequency of term in
// one dictionary probe ((nil, 0) when absent) — the planner's fast path,
// which otherwise pays two probes per term per partition.
func (ix *Index) Lookup(term string) ([]Posting, int64) {
	tid, ok := ix.dict[term]
	if !ok {
		return nil, 0
	}
	return ix.postings[tid], int64(len(ix.positions[tid]))
}

// LookupBlocks is Lookup plus the term's block table: nil unless the list
// is longer than BlockSize, else one Block per BlockSize postings (a
// second probe, for those lists only). The returned slices are owned by
// the index and must not be modified.
func (ix *Index) LookupBlocks(term string) ([]Posting, []Block, int64) {
	tid, ok := ix.dict[term]
	if !ok {
		return nil, nil, 0
	}
	postings := ix.postings[tid]
	var bl []Block
	if len(postings) > BlockSize {
		bl = ix.blocks[tid]
	}
	return postings, bl, int64(len(ix.positions[tid]))
}

// CollectionFreq returns the total number of occurrences of term.
func (ix *Index) CollectionFreq(term string) int64 {
	return int64(len(ix.Positions(term)))
}

// DocFreq returns the number of documents containing term.
func (ix *Index) DocFreq(term string) int {
	return len(ix.Postings(term))
}

// phraseCursor walks one phrase term's postings and slab together.
type phraseCursor struct {
	list []Posting
	slab []uint32
	i    int // next posting
	off  int // slab offset of posting i's positions
}

// PhraseScratch holds the reusable per-caller working state of
// PhrasePostingsScratch — the per-term cursors and the surviving start
// positions of the document being intersected — so hot planners allocate
// nothing per phrase but its result. The zero value is ready to use.
type PhraseScratch struct {
	cursors []phraseCursor
	starts  []uint32
}

// PhrasePostings computes the postings of the exact phrase (terms adjacent
// and in order), i.e. INDRI's #1 operator, by positional intersection. The
// result lists each document containing the phrase with its number of
// occurrences. A single-term phrase returns that term's postings; an empty
// phrase returns nil.
func (ix *Index) PhrasePostings(terms []string) []Posting {
	var sc PhraseScratch
	return ix.PhrasePostingsScratch(terms, &sc)
}

// PhrasePostingsScratch is PhrasePostings with caller-owned scratch: same
// results, and the result list is the only allocation. The returned
// postings are fresh (not part of the scratch) and stay valid across
// further calls.
func (ix *Index) PhrasePostingsScratch(terms []string, sc *PhraseScratch) []Posting {
	switch len(terms) {
	case 0:
		return nil
	case 1:
		return ix.Postings(terms[0])
	}
	if cap(sc.cursors) < len(terms) {
		sc.cursors = make([]phraseCursor, len(terms))
	}
	cursors := sc.cursors[:len(terms)]
	minDF := -1
	for i, term := range terms {
		tid, ok := ix.dict[term]
		if !ok {
			clear(cursors[:i])
			return nil
		}
		cursors[i] = phraseCursor{list: ix.postings[tid], slab: ix.positions[tid]}
		if df := len(cursors[i].list); minDF < 0 || df < minDF {
			minDF = df
		}
	}
	// Galloping doc-level intersection seeded by the rarest list would be
	// the classic optimization; collection sizes here make the simple merge
	// clearer and fast enough (see BenchmarkPhrasePostings). The output is
	// sized by the tightest document frequency, the upper bound on matches.
	out := make([]Posting, 0, minDF)
	first, rest := &cursors[0], cursors[1:]
docLoop:
	for _, p0 := range first.list {
		starts := first.slab[first.off : first.off+int(p0.TF)]
		first.off += int(p0.TF)
		for i := range rest {
			c := &rest[i]
			for c.i < len(c.list) && c.list[c.i].Doc < p0.Doc {
				c.off += int(c.list[c.i].TF)
				c.i++
			}
			if c.i >= len(c.list) {
				break docLoop // no later document can hold the whole phrase
			}
			if c.list[c.i].Doc != p0.Doc {
				continue docLoop
			}
			// Filtering in place is safe from the second term on: the
			// output never runs ahead of the input it reads.
			sc.starts = shiftIntersect(sc.starts[:0], starts, c.slab[c.off:c.off+int(c.list[c.i].TF)], uint32(i+1))
			if starts = sc.starts; len(starts) == 0 {
				continue docLoop
			}
		}
		out = append(out, Posting{Doc: p0.Doc, TF: uint32(len(starts))})
	}
	clear(cursors) // do not pin the index behind a pooled scratch
	if len(out) == 0 {
		return nil
	}
	return out
}

// shiftIntersect appends to dst the start positions p such that p+offset
// occurs in next. Both inputs are ascending; the output is ascending. dst
// may be starts[:0].
func shiftIntersect(dst, starts, next []uint32, offset uint32) []uint32 {
	i, j := 0, 0
	for i < len(starts) && j < len(next) {
		want := starts[i] + offset
		switch {
		case next[j] == want:
			dst = append(dst, starts[i])
			i++
			j++
		case next[j] < want:
			j++
		default:
			i++
		}
	}
	return dst
}

// PhraseCollectionFreq returns the total occurrences of the exact phrase in
// the collection.
func (ix *Index) PhraseCollectionFreq(terms []string) int64 {
	return PostingsCollectionFreq(ix.PhrasePostings(terms))
}

// PostingsCollectionFreq sums the occurrence counts of a postings list —
// the collection frequency of whatever produced it. Callers that already
// hold a phrase's postings use this instead of re-running the positional
// intersection behind PhraseCollectionFreq.
func PostingsCollectionFreq(postings []Posting) int64 {
	var n int64
	for _, p := range postings {
		n += int64(p.TF)
	}
	return n
}

// Terms returns the vocabulary in sorted order (for diagnostics and tests).
func (ix *Index) Terms() []string {
	out := append([]string(nil), ix.terms...)
	sort.Strings(out)
	return out
}
