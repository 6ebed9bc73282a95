package store

import (
	"strings"
	"testing"
)

// TestReader pins the contract of the one reader both binary formats
// decode through: a failed read fails every later one with zero values,
// counts are believed exactly as far as the bytes remaining back them, the
// first error stands, and every error names the body it was found in.
func TestReader(t *testing.T) {
	cases := []struct {
		name    string
		body    []byte
		read    func(t *testing.T, r *Reader)
		wantErr string // "" when the body must decode cleanly
	}{
		{
			name: "sticky error",
			body: []byte{0x05}, // length prefix 5 with no bytes behind it
			read: func(t *testing.T, r *Reader) {
				if s := r.String(); s != "" {
					t.Errorf("truncated string = %q, want empty", s)
				}
				if r.Err() == nil {
					t.Fatal("no error after truncated read")
				}
				if v, f, b, s := r.Uvarint(), r.F64(), r.Byte(), r.Ref([]string{"a"}); v != 0 || f != 0 || b != 0 || s != "" {
					t.Errorf("post-error reads = %d, %v, %d, %q; want zero values", v, f, b, s)
				}
			},
			wantErr: "count 5 exceeds the 0 bytes left",
		},
		{
			name: "trailing garbage",
			body: []byte{7, 0xFF},
			read: func(t *testing.T, r *Reader) {
				if v := r.Uvarint(); v != 7 {
					t.Errorf("uvarint = %d", v)
				}
			},
			wantErr: "1 trailing bytes",
		},
		{
			name: "count at the bound",
			body: []byte{2, 1, 2, 3, 4}, // two elements of at least 2 bytes
			read: func(t *testing.T, r *Reader) {
				if n := r.Count(2); n != 2 {
					t.Errorf("count = %d, want 2", n)
				}
				r.Bytes(4)
			},
		},
		{
			name: "count one past the bound",
			body: []byte{3, 1, 2, 3, 4, 5}, // three such elements need 6 bytes
			read: func(t *testing.T, r *Reader) {
				if n := r.Count(2); n != 0 {
					t.Errorf("count = %d, want 0", n)
				}
			},
			wantErr: "count 3 exceeds the 5 bytes left",
		},
		{
			name: "string ref beyond the table",
			body: []byte{1, 2},
			read: func(t *testing.T, r *Reader) {
				strs := []string{"a", "b"}
				if s := r.Ref(strs); s != "b" {
					t.Errorf("ref 1 = %q, want b", s)
				}
				if s := r.Ref(strs); s != "" {
					t.Errorf("ref 2 = %q, want empty", s)
				}
			},
			wantErr: "string ref 2 beyond table of 2",
		},
		{
			name: "truncated f64",
			body: make([]byte, 7),
			read: func(t *testing.T, r *Reader) {
				if v := r.F64(); v != 0 {
					t.Errorf("f64 = %v", v)
				}
			},
			wantErr: "truncated float64",
		},
		{
			name: "Failf after a failed read keeps the first error",
			body: []byte{0x80}, // a varint cut after its first byte
			read: func(t *testing.T, r *Reader) {
				r.Uvarint()
				r.Failf("a later rejection")
			},
			wantErr: "test: body: bad varint (offset 0)",
		},
		{
			name: "Failf names its problem and offset",
			body: []byte{9},
			read: func(t *testing.T, r *Reader) {
				if k := r.Byte(); k > 3 {
					r.Failf("unknown kind %d", k)
				}
			},
			wantErr: "test: body: unknown kind 9 (offset 1)",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader("test: body", c.body)
			c.read(t, r)
			err := r.Done()
			switch {
			case c.wantErr == "":
				if err != nil {
					t.Fatalf("well-formed body rejected: %v", err)
				}
			case err == nil || !strings.Contains(err.Error(), c.wantErr):
				t.Fatalf("error %v does not mention %q", err, c.wantErr)
			case !strings.HasPrefix(err.Error(), "test: body: "):
				t.Fatalf("error %q does not name its body", err)
			}
		})
	}
}
