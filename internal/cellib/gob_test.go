package cellib

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// TestLibraryGobRoundTrip proves a gob round-trip, which goes through
// the library's binary codec (MarshalBinary), reproduces the library
// exactly, indices included.
func TestLibraryGobRoundTrip(t *testing.T) {
	lib := Default14nm()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(lib); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var got *Library
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(lib, got) {
		t.Fatal("decoded library differs from original")
	}
	// The decoded library must be functional, not just equal: lookups
	// and sizing walks exercise the rebuilt indices.
	for _, c := range lib.Cells() {
		if _, ok := got.ByName(c.Name); !ok {
			t.Fatalf("decoded library lost cell %s", c.Name)
		}
	}
	small := got.Smallest(Nand2)
	if up, ok := got.Upsize(small); !ok || up.Drive <= small.Drive {
		t.Fatal("decoded library cannot upsize")
	}
}
