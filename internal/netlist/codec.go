package netlist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/binfmt"
	"repro/internal/cellib"
)

// codecVersion is the first byte of every encoded netlist.
const codecVersion = 1

// Smallest encodings, used to bound counts before allocating: an
// instance is ID, name length, cell reference and level (one byte each)
// plus X and Y; a net is ID, name length, driver, sink length and the
// clock flag plus ExternalCap; a sink is its instance and pin.
const (
	minInstBytes = 4 + 2*8
	minNetBytes  = 5 + 8
	minSinkBytes = 2
)

// AppendBinary appends the netlist's lossless binary encoding to b. The
// library is written once; each instance's cell is written as its index
// in that library, or in full when it is not bit-identical to the
// library's cell of that name (or the netlist has no library). Integers
// are varints (IDs as their offset from the slice position, which is 0
// in a valid netlist), floats are their IEEE-754 bits, and nil slices
// stay distinct from empty ones. The unexported placement-extent cache is
// not written; a decoded netlist recomputes it on demand.
func (n *Netlist) AppendBinary(b []byte) []byte {
	// Typical instances and nets encode to ~30 bytes and library cells
	// to ~70; growing once up front saves the copies of repeated growth.
	hint := 32 * (len(n.Insts) + len(n.Nets))
	if n.Lib != nil {
		hint += 72 * len(n.Lib.Cells())
	}
	b = slices.Grow(b, hint)
	b = append(b, codecVersion)
	b = binfmt.AppendString(b, n.Name)
	b = binfmt.AppendBool(b, n.Lib != nil)
	if n.Lib != nil {
		b = n.Lib.AppendBinary(b)
	}
	b = binfmt.AppendInt(b, n.ClockNet)
	b = binfmt.AppendFloat(b, n.ClockPeriodPs)

	b = binfmt.AppendLen(b, len(n.Insts), n.Insts == nil)
	for i := range n.Insts {
		inst := &n.Insts[i]
		b = binfmt.AppendInt(b, inst.ID-i)
		b = binfmt.AppendString(b, inst.Name)
		b = appendCellRef(b, n.Lib, inst.Cell)
		b = binfmt.AppendInt(b, inst.Level)
		b = binfmt.AppendFloat(b, inst.X)
		b = binfmt.AppendFloat(b, inst.Y)
	}

	b = binfmt.AppendLen(b, len(n.Nets), n.Nets == nil)
	for i := range n.Nets {
		net := &n.Nets[i]
		b = binfmt.AppendInt(b, net.ID-i)
		b = binfmt.AppendString(b, net.Name)
		b = binfmt.AppendInt(b, net.Driver)
		b = binfmt.AppendLen(b, len(net.Sinks), net.Sinks == nil)
		for _, s := range net.Sinks {
			b = binfmt.AppendInt(b, s.Inst)
			b = binfmt.AppendInt(b, s.Pin)
		}
		b = binfmt.AppendBool(b, net.IsClock)
		b = binfmt.AppendFloat(b, net.ExternalCap)
	}

	b = binfmt.AppendLen(b, len(n.FaninNet), n.FaninNet == nil)
	for _, pins := range n.FaninNet {
		b = appendInts(b, pins)
	}
	return appendInts(b, n.FanoutNet)
}

// appendCellRef writes a cell as 1 + its library index, or as 0 followed
// by the full cell.
func appendCellRef(b []byte, lib *cellib.Library, c cellib.Cell) []byte {
	if lib != nil {
		if i, ok := lib.Index(c); ok {
			return binary.AppendUvarint(b, uint64(i)+1)
		}
	}
	return cellib.AppendCell(append(b, 0), c)
}

func appendInts(b []byte, v []int) []byte {
	b = binfmt.AppendLen(b, len(v), v == nil)
	for _, x := range v {
		b = binfmt.AppendInt(b, x)
	}
	return b
}

// MarshalBinary implements encoding.BinaryMarshaler with AppendBinary
// (gob uses it too, so a gob-encoded netlist takes the same codec).
func (n *Netlist) MarshalBinary() ([]byte, error) { return n.AppendBinary(nil), nil }

// UnmarshalBinary implements encoding.BinaryUnmarshaler: it decodes an
// encoding written by AppendBinary, replacing n. It checks the format,
// not the design: a netlist that round-trips is returned as it was
// encoded, valid or not. Every count is bounded by the bytes that remain
// before anything is allocated for it.
func (n *Netlist) UnmarshalBinary(data []byte) error {
	r := binfmt.NewReader(data)
	out := Read(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("netlist: decode: %w", err)
	}
	*n = *out
	return nil
}

// Read decodes one netlist written by AppendBinary from r, leaving r at
// the byte after it. It returns a partial netlist once r has failed;
// callers check r.Err.
func Read(r *binfmt.Reader) *Netlist {
	if v := r.Byte(); r.Err() == nil && v != codecVersion {
		r.Fail(fmt.Errorf("unknown format version %d", v))
	}
	n := &Netlist{Name: r.Str()}
	if r.Bool() {
		n.Lib = cellib.ReadLibrary(r)
	}
	n.ClockNet = r.Int()
	n.ClockPeriodPs = r.Float()

	if k := r.Len(minInstBytes); k >= 0 {
		n.Insts = make([]Instance, k)
	}
	for i := range n.Insts {
		inst := &n.Insts[i]
		inst.ID = r.Int() + i
		inst.Name = r.Str()
		inst.Cell = readCellRef(r, n.Lib)
		inst.Level = r.Int()
		inst.X = r.Float()
		inst.Y = r.Float()
	}

	if k := r.Len(minNetBytes); k >= 0 {
		n.Nets = make([]Net, k)
	}
	var sinks slab[PinRef]
	for i := range n.Nets {
		net := &n.Nets[i]
		net.ID = r.Int() + i
		net.Name = r.Str()
		net.Driver = r.Int()
		if k := r.Len(minSinkBytes); k >= 0 {
			net.Sinks = sinks.take(k)
		}
		for j := range net.Sinks {
			net.Sinks[j] = PinRef{Inst: r.Int(), Pin: r.Int()}
		}
		net.IsClock = r.Bool()
		net.ExternalCap = r.Float()
	}

	if k := r.Len(1); k >= 0 {
		n.FaninNet = make([][]int, k)
	}
	var ints slab[int]
	for i := range n.FaninNet {
		n.FaninNet[i] = readInts(r, &ints)
	}
	n.FanoutNet = readInts(r, &ints)
	return n
}

func readCellRef(r *binfmt.Reader, lib *cellib.Library) cellib.Cell {
	ref := r.Uvarint()
	if ref == 0 {
		return cellib.ReadCell(r)
	}
	if lib == nil || ref > uint64(len(lib.Cells())) {
		r.Fail(errors.New("cell index out of range"))
		return cellib.Cell{}
	}
	return lib.Cells()[ref-1]
}

func readInts(r *binfmt.Reader, s *slab[int]) []int {
	k := r.Len(1)
	if k < 0 {
		return nil
	}
	v := s.take(k)
	for i := range v {
		v[i] = r.Int()
	}
	return v
}

// slab hands out short slices carved from shared chunks, so a decode
// makes one allocation per chunk instead of one per net or instance.
// Each slice's capacity ends at its length: an append to one reallocates
// instead of overwriting its neighbour.
type slab[T any] struct{ free []T }

const slabChunk = 1024

func (s *slab[T]) take(k int) []T {
	if k == 0 {
		return []T{}
	}
	if k > len(s.free) {
		s.free = make([]T, max(k, slabChunk))
	}
	v := s.free[:k:k]
	s.free = s.free[k:]
	return v
}
