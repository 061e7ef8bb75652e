package cellib

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/binfmt"
)

// AppendBinary appends the library's binary encoding to b: exactly the
// constructor inputs (name, wire, row pitch and the cells in order). The
// derived indices are rebuilt on decode, so a decoded library is fully
// functional and structurally identical to one assembled by New.
func (l *Library) AppendBinary(b []byte) []byte {
	b = binfmt.AppendString(b, l.Name)
	b = binfmt.AppendFloat(b, l.Wire.ResPerUm)
	b = binfmt.AppendFloat(b, l.Wire.CapPerUm)
	b = binfmt.AppendFloat(b, l.RowPitch)
	b = binary.AppendUvarint(b, uint64(len(l.cells)))
	for _, c := range l.cells {
		b = AppendCell(b, c)
	}
	return b
}

// ReadLibrary decodes a library written by AppendBinary, rebuilding it
// through New. It returns nil once r has failed.
func ReadLibrary(r *binfmt.Reader) *Library {
	name := r.Str()
	wire := Wire{ResPerUm: r.Float(), CapPerUm: r.Float()}
	rowPitch := r.Float()
	cells := make([]Cell, r.Count(minCellBytes))
	for i := range cells {
		cells[i] = ReadCell(r)
	}
	if r.Err() != nil {
		return nil
	}
	return New(name, wire, rowPitch, cells)
}

// MarshalBinary implements encoding.BinaryMarshaler (and through it gob
// encoding, though the library keeps unexported lookup indices).
func (l *Library) MarshalBinary() ([]byte, error) { return l.AppendBinary(nil), nil }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (l *Library) UnmarshalBinary(data []byte) error {
	r := binfmt.NewReader(data)
	lib := ReadLibrary(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("cellib: decode library: %w", err)
	}
	*l = *lib
	return nil
}

// minCellBytes is the smallest encoding of a Cell: one byte each for the
// name length, class, drive and VT, plus seven float64s.
const minCellBytes = 4 + 7*8

// AppendCell appends the binary encoding of one cell, every parameter
// included, so a cell that matches no library entry survives a round
// trip.
func AppendCell(b []byte, c Cell) []byte {
	b = binfmt.AppendString(b, c.Name)
	b = binfmt.AppendInt(b, int(c.Class))
	b = binfmt.AppendInt(b, c.Drive)
	b = binfmt.AppendInt(b, int(c.VT))
	for _, f := range [...]float64{c.Area, c.InputCap, c.Intrinsic, c.Resist, c.Leakage, c.SetupTime, c.ClkToQ} {
		b = binfmt.AppendFloat(b, f)
	}
	return b
}

// ReadCell decodes a cell written by AppendCell. A class outside the
// library's enumeration is an error: library construction indexes by
// class.
func ReadCell(r *binfmt.Reader) Cell {
	c := Cell{Name: r.Str(), Class: Class(r.Int()), Drive: r.Int(), VT: VT(r.Int())}
	c.Area, c.InputCap, c.Intrinsic = r.Float(), r.Float(), r.Float()
	c.Resist, c.Leakage, c.SetupTime, c.ClkToQ = r.Float(), r.Float(), r.Float(), r.Float()
	if c.Class < 0 || c.Class >= numClasses {
		r.Fail(errors.New("cellib: cell class out of range"))
		return Cell{}
	}
	return c
}

// Index returns the position in Cells of the library cell identical to
// c — same name and bit-identical parameters — and whether there is one.
func (l *Library) Index(c Cell) (int, bool) {
	i, ok := l.byName[c.Name]
	if !ok || !identical(l.cells[i], c) {
		return 0, false
	}
	return i, true
}

func identical(a, b Cell) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Name == b.Name && a.Class == b.Class && a.Drive == b.Drive && a.VT == b.VT &&
		eq(a.Area, b.Area) && eq(a.InputCap, b.InputCap) && eq(a.Intrinsic, b.Intrinsic) &&
		eq(a.Resist, b.Resist) && eq(a.Leakage, b.Leakage) && eq(a.SetupTime, b.SetupTime) &&
		eq(a.ClkToQ, b.ClkToQ)
}
