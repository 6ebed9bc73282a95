package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"
)

// FuzzRead drives Read with arbitrary bytes. Every input is decoded twice:
// as it is, which exercises the framing, and resealed — each section's
// checksum recomputed over whatever payload the mutation left — which is
// the only way a mutated payload gets past the CRC to the section decoders.
// The contract under fuzzing:
//
//   - Read never panics: hostile bytes are errors;
//   - no count read from the input sizes an allocation the input cannot
//     back: what one Read allocates is bounded by a multiple of the input's
//     length (decoded structures are wider than their varint encodings,
//     hence the factor) plus the fixed arena chunks;
//   - an accepted input's archive is writable, and what Write emits for it
//     is a fixed point: it decodes again and re-encodes byte-identically
//     (an accepted input itself may carry over-long varints or an unsorted
//     vocabulary, which Write normalizes, so the input's own bytes are held
//     to that only where they came from Write — the seeds below).
func FuzzRead(f *testing.F) {
	pristine := encodeArchive(f, testArchive(f))
	sharded := testArchive(f)
	sharded.Shard = &ShardInfo{ShardID: 2, ShardCount: 4, GlobalDocs: 12, GlobalTokens: 40, DocGlobal: []int32{1, 5, 11}}
	for _, valid := range [][]byte{pristine, encodeArchive(f, sharded)} {
		if got := rewrite(f, valid); !bytes.Equal(got, valid) {
			f.Fatalf("a written snapshot does not re-encode byte-identically (%d bytes became %d)", len(valid), len(got))
		}
		f.Add(valid)
	}
	secs := walkSections(f, pristine)
	for _, c := range framingCorruptions(secs) {
		f.Add(c.mutate(bytes.Clone(pristine)))
	}
	replace := func(tag byte, body []byte) { f.Add(withSection(f, pristine, tag, body)) }
	for _, c := range metaCorruptions() {
		replace(secMeta, c.payload)
	}
	for _, c := range shardCorruptions() {
		replace(secShard, c.payload)
	}
	for _, target := range wideArcTargets {
		replace(secGraph, wideArcGraphPayload(target))
	}
	for _, gaps := range [][2]uint64{{1 << 40, 0}, {0, 1 << 63}, {0, 0}} {
		replace(secIndex, indexPayload(gaps[0], gaps[1]))
	}
	f.Add(danglingStringRefFile(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkRead(t, data)
		if resealed, ok := reseal(data); ok {
			checkRead(t, resealed)
		}
	})
}

// checkRead holds one input to FuzzRead's contract.
func checkRead(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if allocated, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); allocated > limit {
		t.Fatalf("Read allocated %d bytes for a %d-byte input (limit %d)", allocated, len(data), limit)
	}
	if err != nil {
		return
	}
	var out bytes.Buffer
	if err := Write(&out, a); err != nil {
		t.Fatalf("Read accepted an archive Write rejects: %v", err)
	}
	if again := rewrite(t, out.Bytes()); !bytes.Equal(again, out.Bytes()) {
		t.Fatalf("re-encoding is not a fixed point: %d bytes, then %d", out.Len(), len(again))
	}
}

// rewrite decodes a snapshot Write produced and encodes it again.
func rewrite(t testing.TB, written []byte) []byte {
	a, err := Read(bytes.NewReader(written))
	if err != nil {
		t.Fatalf("a written snapshot does not decode: %v", err)
	}
	return encodeArchive(t, a)
}

// reseal returns data with every section's checksum rewritten to match its
// payload, or false when the framing cannot be walked that far.
func reseal(data []byte) ([]byte, bool) {
	out := bytes.Clone(data)
	off := len(Magic) + 2
	for range sectionOrder {
		if off >= len(out) {
			return nil, false
		}
		n, read := binary.Uvarint(out[off+1:])
		if read <= 0 || n > uint64(len(out)) {
			return nil, false
		}
		body := off + 1 + read
		end := body + int(n)
		if end+4 > len(out) {
			return nil, false
		}
		binary.LittleEndian.PutUint32(out[end:], crc32.ChecksumIEEE(out[body:end]))
		off = end + 4
	}
	return out, true
}
