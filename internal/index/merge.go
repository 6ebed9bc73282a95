package index

import "maps"

// Merge builds the index of the concatenated collection base ++ delta:
// delta's documents keep their relative order but are renumbered above
// base's doc-id space (delta doc j becomes base.NumDocs()+j). The result
// is exactly the index AddDocument would produce replaying base's token
// streams followed by delta's — same postings, same positions, same
// vocabulary discovery order — which is what lets a compaction fold a
// delta segment into a snapshot without re-analyzing the base corpus (see
// internal/live and shard.Fold).
//
// Sharing discipline: the postings list and positions slab of a term that
// appears only in base are aliased from base, and a delta-only term
// aliases delta's slab — both are immutable after build, so aliasing is
// safe and keeps the fold allocation cost proportional to the delta, not
// the base. A term present in both gets a fresh list and a fresh slab,
// each plain concatenation: the shifted delta postings sort strictly
// after every base posting, and a slab is consumed in posting order. Its
// block table keeps base's full blocks (the postings under them did not
// move) and derives only the blocks from base's last partial one on.
// Neither input is modified, and the merged index must never see
// AddDocument (it would append through shared slabs); compaction only
// reads and re-encodes it.
func Merge(base, delta *Index) *Index {
	terms := len(base.terms) + len(delta.terms)
	out := &Index{
		dict:        make(map[string]int32, terms),
		terms:       append(make([]string, 0, terms), base.terms...),
		postings:    append(make([][]Posting, 0, terms), base.postings...),
		positions:   append(make([][]uint32, 0, terms), base.positions...),
		blocks:      maps.Clone(base.blocks),
		docLens:     make([]int64, 0, len(base.docLens)+len(delta.docLens)),
		maxDocLen:   max(base.maxDocLen, delta.maxDocLen),
		total:       base.total + delta.total,
		numPostings: base.numPostings + delta.numPostings,
	}
	out.docLens = append(out.docLens, base.docLens...)
	out.docLens = append(out.docLens, delta.docLens...)
	for term, tid := range base.dict {
		out.dict[term] = tid
	}
	off := int32(len(base.docLens))
	for dtid, term := range delta.terms {
		dpost, dpos := delta.postings[dtid], delta.positions[dtid]
		btid, ok := out.dict[term]
		if !ok {
			btid = int32(len(out.terms))
			out.dict[term] = btid
			out.terms = append(out.terms, term)
			out.postings = append(out.postings, nil)
			out.positions = append(out.positions, dpos)
		} else {
			bpos := out.positions[btid]
			out.positions[btid] = append(append(make([]uint32, 0, len(bpos)+len(dpos)), bpos...), dpos...)
		}
		bpost := out.postings[btid]
		merged := appendShifted(append(make([]Posting, 0, len(bpost)+len(dpost)), bpost...), dpost, off)
		out.postings[btid] = merged
		if n := len(merged); n > BlockSize {
			bblocks := out.blocks[btid]
			keep := min(len(bblocks), len(bpost)/BlockSize) // base's full blocks
			bl := append(make([]Block, 0, (n+BlockSize-1)/BlockSize), bblocks[:keep]...)
			out.blocks[btid] = appendBlocks(bl, merged, keep*BlockSize, out.docLens)
		}
	}
	return out
}

// appendShifted appends src to dst with every doc id raised by off.
func appendShifted(dst, src []Posting, off int32) []Posting {
	for _, p := range src {
		dst = append(dst, Posting{Doc: p.Doc + off, TF: p.TF})
	}
	return dst
}
