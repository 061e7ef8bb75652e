package binfmt

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestRoundTrip: every Append has a Reader method that restores the
// value exactly, nil and empty slice lengths stay distinct, and the
// input is consumed exactly.
func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendInt(b, -1)
	b = AppendInt(b, math.MaxInt64)
	b = AppendFloat(b, math.Copysign(0, -1))
	b = AppendFloat(b, math.Float64frombits(0x7ff8000000000123)) // NaN payload
	b = AppendString(b, "u42")
	b = AppendBlob(b, []byte{0, 1, 2})
	b = AppendBool(b, true)
	b = AppendLen(b, 0, true)
	b = AppendLen(b, 0, false)
	b = AppendLen(b, 2, false)
	b = append(b, 7, 8)

	r := NewReader(b)
	if v := r.Int(); v != -1 {
		t.Fatalf("Int = %d", v)
	}
	if v := r.Int(); v != math.MaxInt64 {
		t.Fatalf("Int = %d", v)
	}
	if v := r.Float(); math.Float64bits(v) != 1<<63 {
		t.Fatalf("negative zero became %v", v)
	}
	if v := r.Float(); math.Float64bits(v) != 0x7ff8000000000123 {
		t.Fatalf("NaN payload lost: %#x", math.Float64bits(v))
	}
	if v := r.Str(); v != "u42" {
		t.Fatalf("Str = %q", v)
	}
	if v := r.Blob(); len(v) != 3 || v[2] != 2 {
		t.Fatalf("Blob = %v", v)
	}
	if !r.Bool() {
		t.Fatal("Bool = false")
	}
	if n := r.Len(1); n != -1 {
		t.Fatalf("nil Len = %d, want -1", n)
	}
	if n := r.Len(1); n != 0 {
		t.Fatalf("empty Len = %d, want 0", n)
	}
	if n := r.Len(1); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	r.Byte()
	r.Byte()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejects: lengths beyond the remaining bytes, truncated
// values, invalid bools and trailing bytes are errors, and errors are
// sticky (later reads return zero values).
func TestReaderRejects(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	for _, tc := range []struct {
		name string
		data []byte
		read func(r *Reader)
	}{
		{"count past input", append(huge, 1, 2, 3), func(r *Reader) { r.Count(1) }},
		{"count by element size", []byte{2, 0, 0, 0}, func(r *Reader) { r.Count(2) }},
		{"len past input", binary.AppendUvarint(nil, 5), func(r *Reader) { r.Len(1) }},
		{"blob past input", []byte{4, 'a', 'b'}, func(r *Reader) { r.Blob() }},
		{"truncated float", []byte{1, 2, 3}, func(r *Reader) { r.Float() }},
		{"truncated varint", []byte{0x80}, func(r *Reader) { r.Int() }},
		{"empty", nil, func(r *Reader) { r.Byte() }},
		{"bad bool", []byte{2}, func(r *Reader) { r.Bool() }},
		{"trailing", []byte{1, 9}, func(r *Reader) { r.Byte() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.data)
			tc.read(r)
			if r.Done() == nil {
				t.Fatal("accepted")
			}
			if n := r.Count(0); n != 0 || r.Int() != 0 || r.Str() != "" {
				t.Fatal("read after an error returned a value")
			}
		})
	}
}
