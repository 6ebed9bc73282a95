package store

import (
	"bufio"
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

	a := &Archive{}
	if err := decodeMeta(sections[secMeta], a); err != nil {
		return nil, err
	}
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

// decodeShard parses the partition identity; a zero flag byte means this
// is a complete, unsharded snapshot (nil ShardInfo).
func decodeShard(body []byte) (*ShardInfo, error) {
	p := &parser{b: body, sec: "shard"}
	sharded, err := p.bool()
	if err != nil {
		return nil, err
	}
	if !sharded {
		return nil, p.done()
	}
	sh := &ShardInfo{}
	id, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	count, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if count == 0 || count > 1<<20 || id >= count {
		return nil, p.fail("shard %d of %d is not a valid partition slot", id, count)
	}
	sh.ShardID, sh.ShardCount = int(id), int(count)
	globalDocs, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if globalDocs > maxSectionLen {
		return nil, p.fail("implausible global document count %d", globalDocs)
	}
	sh.GlobalDocs = int(globalDocs)
	globalTokens, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	sh.GlobalTokens = int64(globalTokens)
	n, err := p.count("doc map entry", 1)
	if err != nil {
		return nil, err
	}
	sh.DocGlobal = make([]int32, n)
	prev := int64(-1)
	for i := range sh.DocGlobal {
		gap, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		if gap > math.MaxUint32 {
			return nil, p.fail("doc map gap %d overflows", gap)
		}
		g := prev + 1 + int64(gap)
		if g >= int64(sh.GlobalDocs) {
			return nil, p.fail("doc map entry %d (global %d) beyond %d documents", i, g, sh.GlobalDocs)
		}
		prev = g
		sh.DocGlobal[i] = int32(g)
	}
	return sh, p.done()
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

// parser walks one section payload.
type parser struct {
	b   []byte
	off int
	sec string
}

func (p *parser) fail(format string, args ...any) error {
	return fmt.Errorf("store: %s section: %s (offset %d)", p.sec, fmt.Sprintf(format, args...), p.off)
}

func (p *parser) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		return 0, p.fail("bad varint")
	}
	p.off += n
	return v, nil
}

func (p *parser) varint() (int64, error) {
	v, n := binary.Varint(p.b[p.off:])
	if n <= 0 {
		return 0, p.fail("bad varint")
	}
	p.off += n
	return v, nil
}

func (p *parser) byte() (byte, error) {
	if p.off >= len(p.b) {
		return 0, p.fail("unexpected end of payload")
	}
	v := p.b[p.off]
	p.off++
	return v, nil
}

func (p *parser) f64() (float64, error) {
	if p.off+8 > len(p.b) {
		return 0, p.fail("unexpected end of payload")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(p.b[p.off:]))
	p.off += 8
	return v, nil
}

func (p *parser) bool() (bool, error) {
	v, err := p.byte()
	return v != 0, err
}

// count reads a uvarint element count and sanity-bounds it by the bytes
// remaining: every element occupies at least minBytes, so a count beyond
// remaining/minBytes cannot decode and would only inflate allocations.
func (p *parser) count(what string, minBytes int) (int, error) {
	v, err := p.uvarint()
	if err != nil {
		return 0, err
	}
	if max := uint64(len(p.b)-p.off)/uint64(minBytes) + 1; v > max {
		return 0, p.fail("%s count %d exceeds payload", what, v)
	}
	return int(v), nil
}

// ref resolves a string-table reference.
func (p *parser) ref(strs []string) (string, error) {
	v, err := p.uvarint()
	if err != nil {
		return "", err
	}
	if v >= uint64(len(strs)) {
		return "", p.fail("string ref %d beyond table of %d", v, len(strs))
	}
	return strs[v], nil
}

// done errors when payload bytes remain: trailing garbage means the
// section length and its content disagree.
func (p *parser) done() error {
	if p.off != len(p.b) {
		return p.fail("%d trailing bytes", len(p.b)-p.off)
	}
	return nil
}

func decodeMeta(body []byte, a *Archive) error {
	p := &parser{b: body, sec: "meta"}
	var err error
	if a.Mu, err = p.f64(); err != nil {
		return err
	}
	if a.IncludeKeywordTerms, err = p.bool(); err != nil {
		return err
	}
	if a.RemoveStopwords, err = p.bool(); err != nil {
		return err
	}
	if a.Stem, err = p.bool(); err != nil {
		return err
	}
	return p.done()
}

func decodeStrings(body []byte) ([]string, error) {
	p := &parser{b: body, sec: "strings"}
	n, err := p.count("string", 1)
	if err != nil {
		return nil, err
	}
	// One bulk copy, then zero-copy substrings: the table holds tens of
	// thousands of strings and per-string conversions dominate decode
	// allocation otherwise.
	all := string(p.b)
	strs := make([]string, n)
	for i := range strs {
		l, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		if uint64(len(p.b)-p.off) < l {
			return nil, p.fail("string %d of length %d exceeds payload", i, l)
		}
		strs[i] = all[p.off : p.off+int(l)]
		p.off += int(l)
	}
	return strs, p.done()
}

func decodeGraph(body []byte) (*graph.Graph, error) {
	p := &parser{b: body, sec: "graph"}
	n, err := p.count("node", 1)
	if err != nil {
		return nil, err
	}
	kinds := make([]graph.NodeKind, n)
	for i := range kinds {
		k, err := p.byte()
		if err != nil {
			return nil, err
		}
		if k > byte(graph.Category) {
			return nil, p.fail("node %d has unknown kind %d", i, k)
		}
		kinds[i] = graph.NodeKind(k)
	}
	out := make([][]graph.Arc, n)
	for i := range out {
		deg, err := p.count("arc", 2)
		if err != nil {
			return nil, err
		}
		arcs := make([]graph.Arc, deg)
		for j := range arcs {
			to, err := p.uvarint()
			if err != nil {
				return nil, err
			}
			// Bound before the NodeID (uint32) cast: a wider value would
			// silently wrap into some valid node and decode a structurally
			// wrong graph.
			if to >= uint64(n) {
				return nil, p.fail("arc %d->%d beyond %d nodes", i, to, n)
			}
			kind, err := p.byte()
			if err != nil {
				return nil, err
			}
			if kind > byte(graph.Redirect) {
				return nil, p.fail("arc %d->%d has unknown kind %d", i, to, kind)
			}
			arcs[j] = graph.Arc{To: graph.NodeID(to), Kind: graph.EdgeKind(kind)}
		}
		out[i] = arcs
	}
	if err := p.done(); err != nil {
		return nil, err
	}
	g, err := graph.Load(kinds, out)
	if err != nil {
		return nil, fmt.Errorf("store: graph section: %w", err)
	}
	return g, nil
}

func decodeNames(body []byte, strs []string, numNodes int) ([]string, error) {
	p := &parser{b: body, sec: "names"}
	n, err := p.count("name", 1)
	if err != nil {
		return nil, err
	}
	if n != numNodes {
		return nil, p.fail("%d names for %d graph nodes", n, numNodes)
	}
	names := make([]string, n)
	for i := range names {
		if names[i], err = p.ref(strs); err != nil {
			return nil, err
		}
	}
	return names, p.done()
}

func decodeCorpus(body []byte, strs []string) (*corpus.Collection, error) {
	p := &parser{b: body, sec: "corpus"}
	n, err := p.count("document", 7)
	if err != nil {
		return nil, err
	}
	docs := make([]corpus.Document, n)
	for i := range docs {
		var im corpus.Image
		if im.ID, err = p.ref(strs); err != nil {
			return nil, err
		}
		if im.File, err = p.ref(strs); err != nil {
			return nil, err
		}
		if im.Name, err = p.ref(strs); err != nil {
			return nil, err
		}
		if im.Comment, err = p.ref(strs); err != nil {
			return nil, err
		}
		if im.License, err = p.ref(strs); err != nil {
			return nil, err
		}
		numTexts, err := p.count("text", 4)
		if err != nil {
			return nil, err
		}
		if numTexts > 0 {
			im.Texts = make([]corpus.Text, numTexts)
		}
		for t := range im.Texts {
			txt := &im.Texts[t]
			if txt.Lang, err = p.ref(strs); err != nil {
				return nil, err
			}
			if txt.Description, err = p.ref(strs); err != nil {
				return nil, err
			}
			if txt.Comment, err = p.ref(strs); err != nil {
				return nil, err
			}
			numCaps, err := p.count("caption", 2)
			if err != nil {
				return nil, err
			}
			if numCaps > 0 {
				txt.Captions = make([]corpus.Caption, numCaps)
			}
			for c := range txt.Captions {
				if txt.Captions[c].Article, err = p.ref(strs); err != nil {
					return nil, err
				}
				if txt.Captions[c].Value, err = p.ref(strs); err != nil {
					return nil, err
				}
			}
		}
		text, err := p.ref(strs)
		if err != nil {
			return nil, err
		}
		docs[i] = corpus.Document{ID: corpus.DocID(i), Image: im, Text: text}
	}
	if err := p.done(); err != nil {
		return nil, err
	}
	coll, err := corpus.LoadCollection(docs)
	if err != nil {
		return nil, fmt.Errorf("store: corpus section: %w", err)
	}
	return coll, nil
}

func decodeIndex(body []byte, strs []string) (*index.Index, error) {
	p := &parser{b: body, sec: "index"}
	numDocs, err := p.count("document", 1)
	if err != nil {
		return nil, err
	}
	docLens := make([]int64, numDocs)
	for i := range docLens {
		dl, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		docLens[i] = int64(dl)
	}
	numTerms, err := p.count("term", 3)
	if err != nil {
		return nil, err
	}
	terms := make([]string, numTerms)
	postings := make([][]index.Posting, numTerms)
	positions := make([][]uint32, numTerms)
	// Chunked arenas: the index holds one postings list and one positions
	// slab per term, most of them short, and allocating each individually
	// is the dominant decode cost. Full slice expressions cap every
	// sub-slice at its own length, so a later append can never bleed into
	// a neighbor's region.
	var postArena []index.Posting
	var posArena []uint32
	for t := range terms {
		if terms[t], err = p.ref(strs); err != nil {
			return nil, err
		}
		df, err := p.count("posting", 2)
		if err != nil {
			return nil, err
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
			gap, err := p.uvarint()
			if err != nil {
				return nil, err
			}
			// Bound the raw gap before any int64 arithmetic: a 64-bit
			// varint would otherwise overflow the sum (or truncate in the
			// int32 cast) and sneak a garbage but in-range doc id through.
			if gap > math.MaxUint32 {
				return nil, p.fail("term %q posting doc gap %d overflows", terms[t], gap)
			}
			doc := prevDoc + 1 + int64(gap)
			if doc >= int64(numDocs) {
				return nil, p.fail("term %q posting doc %d beyond %d documents", terms[t], doc, numDocs)
			}
			prevDoc = doc
			tf, err := p.count("position", 1)
			if err != nil {
				return nil, err
			}
			if tf > cap(posArena)-len(posArena) {
				// Move the slab so far to a chunk with room for the rest;
				// doubling keeps a long term's copying linear.
				grown := make([]uint32, 0, max(2*(len(posArena)-slabStart)+tf, 1<<15))
				posArena = append(grown, posArena[slabStart:]...)
				slabStart = 0
			}
			prevPos := int64(-1)
			for j := 0; j < tf; j++ {
				pgap, err := p.uvarint()
				if err != nil {
					return nil, err
				}
				if pgap > math.MaxUint32 {
					return nil, p.fail("term %q position gap %d overflows", terms[t], pgap)
				}
				pos := prevPos + 1 + int64(pgap)
				if pos > math.MaxUint32 {
					return nil, p.fail("term %q position %d overflows", terms[t], pos)
				}
				prevPos = pos
				posArena = append(posArena, uint32(pos))
			}
			plist[i] = index.Posting{Doc: int32(doc), TF: uint32(tf)}
		}
		postings[t] = plist
		positions[t] = posArena[slabStart:len(posArena):len(posArena)]
	}
	if err := p.done(); err != nil {
		return nil, err
	}
	ix, err := index.Load(docLens, terms, postings, positions)
	if err != nil {
		return nil, fmt.Errorf("store: index section: %w", err)
	}
	return ix, nil
}

func decodeQueries(body []byte, strs []string, numDocs int) ([]Query, error) {
	p := &parser{b: body, sec: "queries"}
	n, err := p.count("query", 3)
	if err != nil {
		return nil, err
	}
	var qs []Query
	if n > 0 {
		qs = make([]Query, n)
	}
	for i := range qs {
		id, err := p.varint()
		if err != nil {
			return nil, err
		}
		qs[i].ID = int(id)
		if qs[i].Keywords, err = p.ref(strs); err != nil {
			return nil, err
		}
		numRel, err := p.count("relevant doc", 1)
		if err != nil {
			return nil, err
		}
		rel := make([]int32, numRel)
		prev := int64(0)
		for j := range rel {
			delta, err := p.varint()
			if err != nil {
				return nil, err
			}
			d := prev + delta
			if d < 0 || d >= int64(numDocs) {
				return nil, p.fail("query %d relevant doc %d beyond %d documents", qs[i].ID, d, numDocs)
			}
			prev = d
			rel[j] = int32(d)
		}
		qs[i].Relevant = rel
	}
	return qs, p.done()
}
