package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/querygraph/querygraph/internal/corpus"
	"github.com/querygraph/querygraph/internal/graph"
	"github.com/querygraph/querygraph/internal/index"
	"github.com/querygraph/querygraph/internal/wiki"
)

// maxSectionLen bounds a single section payload. The length prefix is the
// one field not covered by a checksum, so an implausible value is treated
// as corruption instead of being handed to make().
const maxSectionLen = 1 << 31

// Read decodes a snapshot written by Write. Decoding is direct: the graph,
// title dictionary, corpus and inverted index are loaded through the
// substrate packages' Load constructors, not rebuilt through their
// builders. Any framing violation — bad magic, unknown version, section
// out of order, checksum mismatch, truncation — returns an error naming
// what failed and where.
func Read(r io.Reader) (*Archive, error) {
	br := bufio.NewReader(r)
	header := make([]byte, len(Magic)+2)
	if _, err := io.ReadFull(br, header); err != nil {
		return nil, fmt.Errorf("store: truncated header (%d bytes needed): %w", len(header), unexpectedEOF(err))
	}
	if string(header[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("store: bad magic %q: not a querygraph snapshot", header[:len(Magic)])
	}
	if v := binary.LittleEndian.Uint16(header[len(Magic):]); v != Version {
		return nil, fmt.Errorf("store: unsupported snapshot version %d (this build reads version %d); regenerate the snapshot", v, Version)
	}

	sections := make(map[byte][]byte, len(sectionOrder))
	for _, tag := range sectionOrder {
		body, err := readSection(br, tag)
		if err != nil {
			return nil, err
		}
		sections[tag] = body
	}

	if !bytes.Equal(sections[secMeta], meta) {
		return nil, fmt.Errorf("store: meta section: engine configuration % .16x is not this build's % x (mu 2500, title phrases only, stopwords removed, stemmed); regenerate the snapshot",
			sections[secMeta], meta)
	}
	a := &Archive{}
	sh, err := decodeShard(sections[secShard])
	if err != nil {
		return nil, err
	}
	a.Shard = sh
	strs, err := decodeStrings(sections[secStrings])
	if err != nil {
		return nil, err
	}
	g, err := decodeGraph(sections[secGraph])
	if err != nil {
		return nil, err
	}
	names, err := decodeNames(sections[secNames], strs, g.NumNodes())
	if err != nil {
		return nil, err
	}
	snap, err := wiki.Load(g, names)
	if err != nil {
		return nil, fmt.Errorf("store: names section: %w", err)
	}
	a.Snapshot = snap
	coll, err := decodeCorpus(sections[secCorpus], strs)
	if err != nil {
		return nil, err
	}
	a.Collection = coll
	ix, err := decodeIndex(sections[secIndex], strs)
	if err != nil {
		return nil, err
	}
	if ix.NumDocs() != coll.Len() {
		return nil, fmt.Errorf("store: index section: %d documents disagree with corpus (%d)", ix.NumDocs(), coll.Len())
	}
	a.Index = ix
	// Benchmark relevance ids live in the global doc-id space: for a shard
	// they range over the whole partitioned collection, not this file.
	queryDocs := coll.Len()
	if a.Shard != nil {
		if len(a.Shard.DocGlobal) != coll.Len() {
			return nil, fmt.Errorf("store: shard section: doc map has %d entries for %d documents",
				len(a.Shard.DocGlobal), coll.Len())
		}
		if coll.Len() > a.Shard.GlobalDocs {
			return nil, fmt.Errorf("store: shard section: %d local documents exceed %d global",
				coll.Len(), a.Shard.GlobalDocs)
		}
		if ix.TotalTokens() > a.Shard.GlobalTokens {
			return nil, fmt.Errorf("store: shard section: %d local tokens exceed %d global",
				ix.TotalTokens(), a.Shard.GlobalTokens)
		}
		queryDocs = a.Shard.GlobalDocs
	}
	a.Queries, err = decodeQueries(sections[secQueries], strs, queryDocs)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// unexpectedEOF maps a bare io.EOF to io.ErrUnexpectedEOF so that every
// truncation error wraps the same sentinel regardless of where the stream
// was cut.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadDeclared reads the n bytes a length prefix declared — a section
// here, a frame in internal/rpc — believing n only as far as the stream
// backs it: the buffer grows eightfold as bytes actually arrive, so a
// corrupt prefix costs a small multiple of what was read, not what it
// claims. The first size is n divided down by eights, so the growth lands
// on n exactly and an honest body is copied over a seventh of itself; up
// to 64 KB is read in one piece. A stream that ends early is
// io.ErrUnexpectedEOF.
func ReadDeclared(r io.Reader, n uint64) ([]byte, error) {
	first := n
	for first > 1<<16 {
		first = (first + 7) / 8
	}
	body := make([]byte, 0, first)
	for uint64(len(body)) < n {
		if len(body) == cap(body) {
			body = append(make([]byte, 0, min(n, 8*uint64(cap(body)))), body...)
		}
		m, err := io.ReadFull(r, body[len(body):cap(body)])
		body = body[:len(body)+m]
		if err != nil {
			return nil, unexpectedEOF(err)
		}
	}
	return body, nil
}

// readSection reads one framed section and verifies its checksum.
func readSection(br *bufio.Reader, want byte) ([]byte, error) {
	name := sectionName(want)
	tag, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("store: %s section: truncated before section tag: %w", name, unexpectedEOF(err))
	}
	if tag != want {
		return nil, fmt.Errorf("store: expected %s section (tag %q), found tag %q", name, want, tag)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: %s section: truncated length prefix: %w", name, unexpectedEOF(err))
	}
	if n > maxSectionLen {
		return nil, fmt.Errorf("store: %s section: implausible length %d (corrupted length prefix?)", name, n)
	}
	body, err := ReadDeclared(br, n)
	if err != nil {
		return nil, fmt.Errorf("store: %s section: truncated payload (%d bytes declared): %w", name, n, err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, fmt.Errorf("store: %s section: truncated checksum: %w", name, unexpectedEOF(err))
	}
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("store: %s section: checksum mismatch (file corrupted): got %08x, want %08x", name, got, want)
	}
	return body, nil
}

// The section decoders below read a whole section through one Reader and
// check its error once, before the substrate Load constructors see what
// was read. Every Count passes the fewest bytes Write emits per element.

// decodeShard parses the partition identity; a zero flag byte means this
// is a complete, unsharded snapshot (nil ShardInfo).
func decodeShard(body []byte) (*ShardInfo, error) {
	r := NewReader("store: shard section", body)
	if r.Byte() == 0 {
		return nil, r.Done()
	}
	id, count := r.Uvarint(), r.Uvarint()
	if count == 0 || count > 1<<20 || id >= count {
		r.Failf("shard %d of %d is not a valid partition slot", id, count)
	}
	globalDocs := r.Uvarint()
	if globalDocs > maxSectionLen {
		r.Failf("implausible global document count %d", globalDocs)
	}
	sh := &ShardInfo{
		ShardID:      int(id),
		ShardCount:   int(count),
		GlobalDocs:   int(globalDocs),
		GlobalTokens: int64(r.Uvarint()),
		DocGlobal:    make([]int32, r.Count(1)), // a gap each
	}
	prev := int64(-1)
	for i := range sh.DocGlobal {
		gap := r.Uvarint()
		if gap > math.MaxUint32 {
			r.Failf("doc map gap %d overflows", gap)
		}
		g := prev + 1 + int64(gap)
		if g >= int64(sh.GlobalDocs) {
			r.Failf("doc map entry %d (global %d) beyond %d documents", i, g, sh.GlobalDocs)
		}
		prev = g
		sh.DocGlobal[i] = int32(g)
	}
	return sh, r.Done()
}

func decodeStrings(body []byte) ([]string, error) {
	r := NewReader("store: strings section", body)
	// One bulk copy, then zero-copy substrings: the table holds tens of
	// thousands of strings and per-string conversions dominate decode
	// allocation otherwise.
	all := string(body)
	strs := make([]string, r.Count(1)) // a length each
	for i := range strs {
		s := r.Bytes(r.Len())
		end := len(body) - len(r.Rest())
		strs[i] = all[end-len(s) : end]
	}
	return strs, r.Done()
}

func decodeGraph(body []byte) (*graph.Graph, error) {
	r := NewReader("store: graph section", body)
	n := r.Count(1) // a kind byte each
	kinds := make([]graph.NodeKind, n)
	for i := range kinds {
		k := r.Byte()
		if k > byte(graph.Category) {
			r.Failf("node %d has unknown kind %d", i, k)
		}
		kinds[i] = graph.NodeKind(k)
	}
	out := make([][]graph.Arc, n)
	for i := range out {
		arcs := make([]graph.Arc, r.Count(2)) // a target and a kind byte each
		for j := range arcs {
			// Bound before the NodeID (uint32) cast: a wider value would
			// silently wrap into some valid node and decode a structurally
			// wrong graph.
			to := r.Uvarint()
			if to >= uint64(n) {
				r.Failf("arc %d->%d beyond %d nodes", i, to, n)
			}
			kind := r.Byte()
			if kind > byte(graph.Redirect) {
				r.Failf("arc %d->%d has unknown kind %d", i, to, kind)
			}
			arcs[j] = graph.Arc{To: graph.NodeID(to), Kind: graph.EdgeKind(kind)}
		}
		out[i] = arcs
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	g, err := graph.Load(kinds, out)
	if err != nil {
		return nil, fmt.Errorf("store: graph section: %w", err)
	}
	return g, nil
}

func decodeNames(body []byte, strs []string, numNodes int) ([]string, error) {
	r := NewReader("store: names section", body)
	names := make([]string, r.Count(1)) // a ref each
	if len(names) != numNodes {
		r.Failf("%d names for %d graph nodes", len(names), numNodes)
	}
	for i := range names {
		names[i] = r.Ref(strs)
	}
	return names, r.Done()
}

func decodeCorpus(body []byte, strs []string) (*corpus.Collection, error) {
	r := NewReader("store: corpus section", body)
	docs := make([]corpus.Document, r.Count(7)) // five refs, a text count and the text ref
	for i := range docs {
		im := corpus.Image{ID: r.Ref(strs), File: r.Ref(strs), Name: r.Ref(strs), Comment: r.Ref(strs), License: r.Ref(strs)}
		if n := r.Count(4); n > 0 { // three refs and a caption count
			im.Texts = make([]corpus.Text, n)
		}
		for t := range im.Texts {
			txt := &im.Texts[t]
			txt.Lang, txt.Description, txt.Comment = r.Ref(strs), r.Ref(strs), r.Ref(strs)
			if n := r.Count(2); n > 0 { // two refs
				txt.Captions = make([]corpus.Caption, n)
			}
			for c := range txt.Captions {
				txt.Captions[c] = corpus.Caption{Article: r.Ref(strs), Value: r.Ref(strs)}
			}
		}
		docs[i] = corpus.Document{ID: corpus.DocID(i), Image: im, Text: r.Ref(strs)}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	coll, err := corpus.LoadCollection(docs)
	if err != nil {
		return nil, fmt.Errorf("store: corpus section: %w", err)
	}
	return coll, nil
}

func decodeIndex(body []byte, strs []string) (*index.Index, error) {
	r := NewReader("store: index section", body)
	docLens := make([]int64, r.Count(1)) // a length each
	for i := range docLens {
		docLens[i] = int64(r.Uvarint())
	}
	// A term is its ref, its posting count and at least one posting: an
	// index gains a term only with a posting, so Write never emits one
	// without, and one read without is refused below — which is what keeps
	// 3 a lower bound of any term this decoder accepts and Write re-emits.
	terms := make([]string, r.Count(3))
	postings := make([][]index.Posting, len(terms))
	positions := make([][]uint32, len(terms))
	// Chunked arenas: the index holds one postings list and one positions
	// slab per term, most of them short, and allocating each individually
	// is the dominant decode cost. Full slice expressions cap every
	// sub-slice at its own length, so a later append can never bleed into
	// a neighbor's region.
	var postArena []index.Posting
	var posArena []uint32
	for t := range terms {
		terms[t] = r.Ref(strs)
		df := r.Count(2) // a doc gap and a frequency each
		if df == 0 {
			r.Failf("term %q has no postings", terms[t])
		}
		if df > cap(postArena)-len(postArena) {
			postArena = make([]index.Posting, 0, max(df, 1<<13))
		}
		plist := postArena[len(postArena) : len(postArena)+df : len(postArena)+df]
		postArena = postArena[:len(postArena)+df]
		// The slab's length is only known once the term is decoded, so it
		// grows at the arena's tail from slabStart.
		slabStart := len(posArena)
		prevDoc := int64(-1)
		for i := range plist {
			// Bound the raw gap before any int64 arithmetic: a 64-bit
			// varint would otherwise overflow the sum (or truncate in the
			// int32 cast) and sneak a garbage but in-range doc id through.
			gap := r.Uvarint()
			if gap > math.MaxUint32 {
				r.Failf("term %q posting doc gap %d overflows", terms[t], gap)
			}
			doc := prevDoc + 1 + int64(gap)
			if doc >= int64(len(docLens)) {
				r.Failf("term %q posting doc %d beyond %d documents", terms[t], doc, len(docLens))
			}
			prevDoc = doc
			tf := r.Count(1) // a position gap each
			if tf > cap(posArena)-len(posArena) {
				// Move the slab so far to a chunk with room for the rest;
				// doubling keeps a long term's copying linear.
				grown := make([]uint32, 0, max(2*(len(posArena)-slabStart)+tf, 1<<15))
				posArena = append(grown, posArena[slabStart:]...)
				slabStart = 0
			}
			prevPos := int64(-1)
			for j := 0; j < tf; j++ {
				pgap := r.Uvarint()
				if pgap > math.MaxUint32 {
					r.Failf("term %q position gap %d overflows", terms[t], pgap)
				}
				pos := prevPos + 1 + int64(pgap)
				if pos > math.MaxUint32 {
					r.Failf("term %q position %d overflows", terms[t], pos)
				}
				prevPos = pos
				posArena = append(posArena, uint32(pos))
			}
			plist[i] = index.Posting{Doc: int32(doc), TF: uint32(tf)}
		}
		postings[t] = plist
		positions[t] = posArena[slabStart:len(posArena):len(posArena)]
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	ix, err := index.Load(docLens, terms, postings, positions)
	if err != nil {
		return nil, fmt.Errorf("store: index section: %w", err)
	}
	return ix, nil
}

func decodeQueries(body []byte, strs []string, numDocs int) ([]Query, error) {
	r := NewReader("store: queries section", body)
	var qs []Query
	if n := r.Count(3); n > 0 { // an id, a keywords ref and a relevance count
		qs = make([]Query, n)
	}
	for i := range qs {
		qs[i] = Query{ID: int(r.Varint()), Keywords: r.Ref(strs), Relevant: make([]int32, r.Count(1))} // a delta each
		prev := int64(0)
		for j := range qs[i].Relevant {
			d := prev + r.Varint()
			if d < 0 || d >= int64(numDocs) {
				r.Failf("query %d relevant doc %d beyond %d documents", qs[i].ID, d, numDocs)
			}
			prev = d
			qs[i].Relevant[j] = int32(d)
		}
	}
	return qs, r.Done()
}
