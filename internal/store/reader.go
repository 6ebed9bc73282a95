package store

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader decodes one byte body — a snapshot section here, a message of
// the shard protocol in internal/rpc — with a sticky error: after the
// first malformed field every read returns a zero value, and Err reports
// that first failure, so a decoder reads a whole structure and checks
// once. Its errors name the body (the label NewReader is given) and the
// offset the failure was found at. No count it reads can size more than
// the body backs: Count believes n elements only when n·minSize bytes
// remain.
type Reader struct {
	b     []byte
	i     int
	err   error
	label string
}

// NewReader wraps body; label starts every error message, e.g.
// "store: graph section".
func NewReader(label string, body []byte) *Reader { return &Reader{b: body, label: label} }

// Err returns the first decode error (nil when all reads succeeded).
func (r *Reader) Err() error { return r.err }

// Rest returns the undecoded remainder (for layered decoding).
func (r *Reader) Rest() []byte { return r.b[r.i:] }

// Failf fails the reader with a semantic rejection — a value that decoded
// but is out of range — unless it already failed: the first error stands.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %s (offset %d)", r.label, fmt.Sprintf(format, args...), r.i)
	}
}

// Done reports a fully consumed body and flags trailing garbage: bytes
// left over mean the body's length and its content disagree.
func (r *Reader) Done() error {
	if r.i != len(r.b) {
		r.Failf("%d trailing bytes", len(r.b)-r.i)
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.i >= len(r.b) {
		r.Failf("truncated byte")
		return 0
	}
	v := r.b[r.i]
	r.i++
	return v
}

// Uvarint reads one uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.i:])
	if n <= 0 {
		r.Failf("bad varint")
		return 0
	}
	r.i += n
	return v
}

// Varint reads one zigzag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.i:])
	if n <= 0 {
		r.Failf("bad varint")
		return 0
	}
	r.i += n
	return v
}

// Int reads a uvarint that must fit a non-negative int32.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.Failf("int %d out of range", v)
		return 0
	}
	return int(v)
}

// Count reads the uvarint element count of a list whose elements encode
// to at least minSize bytes each, and fails the reader unless that many
// bytes remain: a corrupt count returns 0, so it can size neither an
// allocation nor a loop. minSize must be a true lower bound of what the
// writer emits per element, or an honest list is refused.
func (r *Reader) Count(minSize int) int {
	n := r.Int()
	if n > (len(r.b)-r.i)/minSize {
		r.Failf("count %d exceeds the %d bytes left", n, len(r.b)-r.i)
		return 0
	}
	return n
}

// Len reads a uvarint length in bytes, bounded by the bytes remaining.
func (r *Reader) Len() int { return r.Count(1) }

// Bytes reads n raw bytes, which alias the body; nil once failed.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil || n > len(r.b)-r.i {
		r.Failf("%d bytes exceed the %d left", n, len(r.b)-r.i)
		return nil
	}
	v := r.b[r.i : r.i+n]
	r.i += n
	return v
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes(r.Len())) }

// Ref reads a string-table reference and resolves it against strs.
func (r *Reader) Ref(strs []string) string {
	v := r.Uvarint()
	if r.err != nil || v >= uint64(len(strs)) {
		r.Failf("string ref %d beyond table of %d", v, len(strs))
		return ""
	}
	return strs[v]
}

// F64 reads 8 little-endian IEEE-754 bytes.
func (r *Reader) F64() float64 {
	if r.err != nil || len(r.b)-r.i < 8 {
		r.Failf("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.i:]))
	r.i += 8
	return v
}
