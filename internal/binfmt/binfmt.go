// Package binfmt holds the primitives of the repository's compact binary
// encodings (the netlist codec and the campaign entry framing): varint
// integers, float64 bit patterns, length-prefixed strings, and a Reader
// that decodes them from untrusted bytes.
//
// The Reader never panics and never trusts a length it reads: every
// count is checked against the bytes that remain before the caller
// allocates for it, so a crafted varint cannot make a decoder allocate
// more than a small multiple of its input. Errors are sticky — after the
// first failure every read returns a zero value — so a decoder can read
// a whole structure and check Err once, provided it allocates only
// through Count or Len.
package binfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

var errTruncated = errors.New("binfmt: truncated input")

// AppendInt appends v as a zig-zag varint.
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendFloat appends the 8 little-endian bytes of math.Float64bits(f),
// so every value — NaN payloads and negative zero included — round-trips
// bit-exactly.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendString appends a uvarint byte length followed by the bytes of s.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBlob appends a uvarint byte length followed by p.
func AppendBlob(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendBool appends one byte, 1 for true and 0 for false.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendLen appends the length of a slice in the form Len reads: 0 for a
// nil slice, n+1 for a non-nil slice of length n, so a decoder restores
// nil and empty slices exactly.
func AppendLen(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

// Reader decodes the values the Append functions write.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. Values that Blob returns alias b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns the first decode error, or an error if bytes remain
// unread: a well-formed encoding is consumed exactly.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.err = fmt.Errorf("binfmt: %d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// Fail records err as the decode error unless one is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.err = errTruncated
		return 0
	}
	c := r.buf[r.off]
	r.off++
	return c
}

// Bool reads a byte written by AppendBool; any value but 0 or 1 is an
// error.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail(errors.New("binfmt: invalid bool"))
	return false
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("binfmt: bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Int reads a value written by AppendInt.
func (r *Reader) Int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 || int64(int(v)) != v {
		r.err = fmt.Errorf("binfmt: bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return int(v)
}

// Float reads a value written by AppendFloat.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

// Blob reads a value written by AppendBlob or AppendString, aliasing the
// Reader's input.
func (r *Reader) Blob() []byte {
	n := r.Count(1)
	if r.err != nil {
		return nil
	}
	p := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// Str reads a value written by AppendString.
func (r *Reader) Str() string { return string(r.Blob()) }

// Count reads a uvarint element count and checks that count elements of
// at least minSize encoded bytes each fit in the bytes that remain. It
// returns 0 after any error, so a caller may size an allocation by it.
func (r *Reader) Count(minSize int) int {
	return r.bound(r.Uvarint(), minSize)
}

// Len reads a length written by AppendLen, bounded like Count. It
// returns -1 for a nil slice, and 0 after any error.
func (r *Reader) Len(minSize int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v == 0 {
		return -1
	}
	return r.bound(v-1, minSize)
}

func (r *Reader) bound(v uint64, minSize int) int {
	if r.err != nil {
		return 0
	}
	if minSize < 1 {
		minSize = 1
	}
	left := len(r.buf) - r.off
	if v > uint64(left/minSize) {
		r.err = fmt.Errorf("binfmt: count %d exceeds the %d bytes left", v, left)
		return 0
	}
	return int(v)
}
