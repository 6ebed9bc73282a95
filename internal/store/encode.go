package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/index"
)

// payload accumulates one section's bytes.
type payload struct{ b []byte }

func (p *payload) uvarint(v uint64) { p.b = binary.AppendUvarint(p.b, v) }
func (p *payload) varint(v int64)   { p.b = binary.AppendVarint(p.b, v) }
func (p *payload) byte(v byte)      { p.b = append(p.b, v) }
func (p *payload) raw(v []byte)     { p.b = append(p.b, v...) }
func (p *payload) bool(v bool) {
	if v {
		p.byte(1)
	} else {
		p.byte(0)
	}
}

// interner builds the deduplicated string table: every string written by
// any section goes through ref, so repeated titles, language tags and
// boilerplate are stored once.
type interner struct {
	ids  map[string]uint64
	strs []string
}

func newInterner() *interner { return &interner{ids: make(map[string]uint64)} }

func (in *interner) ref(s string) uint64 {
	id, ok := in.ids[s]
	if !ok {
		id = uint64(len(in.strs))
		in.ids[s] = id
		in.strs = append(in.strs, s)
	}
	return id
}

// Write encodes the archive in the snapshot format described in the
// package documentation. The string table is built while the referring
// sections are encoded, then written before them (file order is fixed by
// sectionOrder, buffering makes that possible).
func Write(w io.Writer, a *Archive) error {
	if a == nil || a.Snapshot == nil || a.Collection == nil || a.Index == nil {
		return fmt.Errorf("store: incomplete archive: snapshot, collection and index are all required")
	}
	if a.Index.NumDocs() != a.Collection.Len() {
		return fmt.Errorf("store: index has %d documents but corpus has %d; dense ids must coincide",
			a.Index.NumDocs(), a.Collection.Len())
	}
	if err := validateShard(a); err != nil {
		return err
	}
	in := newInterner()
	sections := map[byte][]byte{
		secMeta:    meta,
		secShard:   encodeShard(a.Shard),
		secGraph:   encodeGraph(a.Snapshot.Graph()),
		secNames:   encodeNames(in, a),
		secCorpus:  encodeCorpus(in, a.Collection),
		secIndex:   encodeIndex(in, a.Index),
		secQueries: encodeQueries(in, a.Queries),
	}
	sections[secStrings] = encodeStrings(in)

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return fmt.Errorf("store: write magic: %w", err)
	}
	var ver [2]byte
	binary.LittleEndian.PutUint16(ver[:], Version)
	if _, err := bw.Write(ver[:]); err != nil {
		return fmt.Errorf("store: write version: %w", err)
	}
	for _, tag := range sectionOrder {
		if err := writeSection(bw, tag, sections[tag]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeSection frames one payload: tag, uvarint length, payload, CRC32.
func writeSection(bw *bufio.Writer, tag byte, body []byte) error {
	if err := bw.WriteByte(tag); err != nil {
		return fmt.Errorf("store: write %s section: %w", sectionName(tag), err)
	}
	var frame [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(frame[:], uint64(len(body)))
	if _, err := bw.Write(frame[:n]); err != nil {
		return fmt.Errorf("store: write %s section: %w", sectionName(tag), err)
	}
	if _, err := bw.Write(body); err != nil {
		return fmt.Errorf("store: write %s section: %w", sectionName(tag), err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(body))
	if _, err := bw.Write(sum[:]); err != nil {
		return fmt.Errorf("store: write %s section: %w", sectionName(tag), err)
	}
	return nil
}

// validateShard rejects a partition identity that disagrees with the
// archive it frames, so a malformed shard can never be written, only
// caught here with a message naming the inconsistency.
func validateShard(a *Archive) error {
	sh := a.Shard
	if sh == nil {
		return nil
	}
	if sh.ShardCount < 1 || sh.ShardID < 0 || sh.ShardID >= sh.ShardCount {
		return fmt.Errorf("store: shard %d of %d is not a valid partition slot", sh.ShardID, sh.ShardCount)
	}
	if len(sh.DocGlobal) != a.Index.NumDocs() {
		return fmt.Errorf("store: shard doc map has %d entries for %d documents",
			len(sh.DocGlobal), a.Index.NumDocs())
	}
	if a.Index.NumDocs() > sh.GlobalDocs {
		return fmt.Errorf("store: shard holds %d documents but the collection has only %d globally",
			a.Index.NumDocs(), sh.GlobalDocs)
	}
	if a.Index.TotalTokens() > sh.GlobalTokens {
		return fmt.Errorf("store: shard holds %d tokens but the collection has only %d globally",
			a.Index.TotalTokens(), sh.GlobalTokens)
	}
	prev := int32(-1)
	for i, g := range sh.DocGlobal {
		if g <= prev || int(g) >= sh.GlobalDocs {
			return fmt.Errorf("store: shard doc map entry %d (global %d) out of order or beyond %d documents",
				i, g, sh.GlobalDocs)
		}
		prev = g
	}
	return nil
}

// encodeShard writes the partition identity; an unsharded snapshot is a
// single zero flag byte.
func encodeShard(sh *ShardInfo) []byte {
	var p payload
	if sh == nil {
		p.bool(false)
		return p.b
	}
	p.bool(true)
	p.uvarint(uint64(sh.ShardID))
	p.uvarint(uint64(sh.ShardCount))
	p.uvarint(uint64(sh.GlobalDocs))
	p.uvarint(uint64(sh.GlobalTokens))
	p.uvarint(uint64(len(sh.DocGlobal)))
	prev := int64(-1)
	for _, g := range sh.DocGlobal {
		// Strictly ascending global ids: gaps (>= 1) compress to small
		// varints, like postings doc gaps.
		p.uvarint(uint64(int64(g) - prev - 1))
		prev = int64(g)
	}
	return p.b
}

func encodeStrings(in *interner) []byte {
	var p payload
	p.uvarint(uint64(len(in.strs)))
	for _, s := range in.strs {
		p.uvarint(uint64(len(s)))
		p.raw([]byte(s))
	}
	return p.b
}

func encodeGraph(g *graph.Graph) []byte {
	var p payload
	n := g.NumNodes()
	p.uvarint(uint64(n))
	for i := 0; i < n; i++ {
		p.byte(byte(g.Kind(graph.NodeID(i))))
	}
	for i := 0; i < n; i++ {
		arcs := g.Out(graph.NodeID(i))
		p.uvarint(uint64(len(arcs)))
		for _, a := range arcs {
			p.uvarint(uint64(a.To))
			p.byte(byte(a.Kind))
		}
	}
	return p.b
}

func encodeNames(in *interner, a *Archive) []byte {
	var p payload
	n := a.Snapshot.Graph().NumNodes()
	p.uvarint(uint64(n))
	for i := 0; i < n; i++ {
		p.uvarint(in.ref(a.Snapshot.Name(graph.NodeID(i))))
	}
	return p.b
}

func encodeCorpus(in *interner, c *corpus.Collection) []byte {
	var p payload
	docs := c.Docs()
	p.uvarint(uint64(len(docs)))
	for _, d := range docs {
		im := d.Image
		p.uvarint(in.ref(im.ID))
		p.uvarint(in.ref(im.File))
		p.uvarint(in.ref(im.Name))
		p.uvarint(in.ref(im.Comment))
		p.uvarint(in.ref(im.License))
		p.uvarint(uint64(len(im.Texts)))
		for _, t := range im.Texts {
			p.uvarint(in.ref(t.Lang))
			p.uvarint(in.ref(t.Description))
			p.uvarint(in.ref(t.Comment))
			p.uvarint(uint64(len(t.Captions)))
			for _, cap := range t.Captions {
				p.uvarint(in.ref(cap.Article))
				p.uvarint(in.ref(cap.Value))
			}
		}
		p.uvarint(in.ref(d.Text))
	}
	return p.b
}

// encodeIndex writes doc lengths and the positional postings. Postings are
// delta-compressed: within a term, document ids are strictly ascending, so
// gaps (>= 1 after the first) fit small varints; the same holds for the
// positions inside one posting, which the term's slab yields TF at a time.
func encodeIndex(in *interner, ix *index.Index) []byte {
	var p payload
	docLens := ix.DocLens()
	p.uvarint(uint64(len(docLens)))
	for _, dl := range docLens {
		p.uvarint(uint64(dl))
	}
	terms := ix.Terms()
	p.uvarint(uint64(len(terms)))
	for _, term := range terms {
		postings, slab := ix.Postings(term), ix.Positions(term)
		p.uvarint(in.ref(term))
		p.uvarint(uint64(len(postings)))
		prevDoc := int64(-1)
		for _, post := range postings {
			p.uvarint(uint64(int64(post.Doc) - prevDoc - 1))
			prevDoc = int64(post.Doc)
			p.uvarint(uint64(post.TF))
			prevPos := int64(-1)
			for _, pos := range slab[:post.TF] {
				p.uvarint(uint64(int64(pos) - prevPos - 1))
				prevPos = int64(pos)
			}
			slab = slab[post.TF:]
		}
	}
	return p.b
}

func encodeQueries(in *interner, qs []Query) []byte {
	var p payload
	p.uvarint(uint64(len(qs)))
	for _, q := range qs {
		p.varint(int64(q.ID))
		p.uvarint(in.ref(q.Keywords))
		p.uvarint(uint64(len(q.Relevant)))
		prev := int64(0)
		for _, d := range q.Relevant {
			// Zigzag deltas: benchmark relevance lists are ascending, so
			// deltas are small, but the format does not require order.
			p.varint(int64(d) - prev)
			prev = int64(d)
		}
	}
	return p.b
}
