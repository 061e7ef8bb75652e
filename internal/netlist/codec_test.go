package netlist

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/cellib"
)

// TestBinaryRoundTrip: the codec is lossless — the decoded netlist is
// reflect.DeepEqual to the encoded one, including cells that match no
// library entry, netlists without a library, and empty-but-non-nil sink
// lists left behind by edits — and the decoded library is functional.
func TestBinaryRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(n *Netlist)
	}{
		{"generated", func(n *Netlist) {}},
		{"edited", func(n *Netlist) {
			net := n.FaninNet[len(n.Insts)-1][0]
			for _, s := range append([]PinRef(nil), n.Nets[net].Sinks...) {
				n.detachSink(net, s.Inst, s.Pin)
			}
			if n.Nets[net].Sinks == nil {
				t.Fatal("detach left a nil sink list")
			}
			n.Insts[3].Cell.Leakage *= 2
			n.Insts[4].Cell.Name = "CUSTOM"
		}},
		{"no-library", func(n *Netlist) { n.Lib = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := Generate(cellib.Default14nmMultiVT(), Tiny(1))
			tc.edit(n)
			data, err := n.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var got Netlist
			if err := got.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&got, n) {
				t.Fatal("decoded netlist differs from the encoded one")
			}
			if n.Lib != nil {
				small := got.Lib.Smallest(cellib.Nand2)
				if up, ok := got.Lib.Upsize(small); !ok || up.Drive <= small.Drive {
					t.Fatal("decoded library cannot upsize")
				}
			}
		})
	}
}

// TestBinaryRejectsDamage: every truncation of a valid encoding, an
// unknown version and a crafted huge count are errors, never panics or
// giant allocations.
func TestBinaryRejectsDamage(t *testing.T) {
	data := Generate(cellib.Default14nm(), Tiny(1)).AppendBinary(nil)
	var n Netlist
	for cut := 0; cut < len(data); cut++ {
		if err := n.UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded", cut, len(data))
		}
	}
	bad := append([]byte{codecVersion + 1}, data[1:]...)
	if err := n.UnmarshalBinary(bad); err == nil {
		t.Fatal("unknown version decoded")
	}
	// Version, empty name, no library, clock net, clock period, then an
	// instance count of 2^40 with nothing behind it.
	crafted := append([]byte{codecVersion, 0, 0, 0}, make([]byte, 8)...)
	crafted = binary.AppendUvarint(crafted, 1<<40)
	if err := n.UnmarshalBinary(crafted); err == nil {
		t.Fatal("huge instance count decoded")
	}
}
