package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
)

// Checked-in entries: parentEntryFile is a tiny-design entry written by
// the build before the binary entry framing (a bare gob stream);
// tinyEntryFile is the same point in the current format.
const (
	parentEntryFile = "testdata/parent_entry.gob"
	tinyEntryFile   = "testdata/entry_tiny.bin"
)

func readTestdata(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzDecodeEntry drives the entry decoder — reached by journal replay,
// store puts and store gets — with arbitrary bytes. It must return an
// error or an entry, never panic; and an entry it accepts must re-encode
// to a canonical form that decodes and re-encodes to the same bytes.
// Seeds: the checked-in current-format entry, truncations of it, and
// the parent-format entry.
func FuzzDecodeEntry(f *testing.F) {
	valid := readTestdata(f, tinyEntryFile)
	f.Add(valid)
	for _, cut := range []int{0, 1, 2, 3, 64, len(valid) / 2, len(valid) - 9, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	f.Add(readTestdata(f, parentEntryFile))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEntry(data)
		if err != nil {
			return
		}
		canon, err := EncodeEntry(e)
		if err != nil {
			t.Fatalf("accepted entry does not re-encode: %v", err)
		}
		e2, err := DecodeEntry(canon)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		again, err := EncodeEntry(e2)
		if err != nil {
			t.Fatal(err)
		}
		if e2.Key != e.Key || !bytes.Equal(again, canon) {
			t.Fatal("canonical encoding is not stable")
		}
	})
}

// TestCurrentFormatEntryDecodes pins the format: the checked-in entry
// must keep decoding, so a layout change that forgets to change the
// format byte fails here instead of misreading durable journals.
func TestCurrentFormatEntryDecodes(t *testing.T) {
	e, err := DecodeEntry(readTestdata(t, tinyEntryFile))
	if err != nil {
		t.Fatal(err)
	}
	if e.Key == "" || len(e.Steps) == 0 || e.Res.Netlist == nil || e.Res.Synth.Netlist != e.Res.Netlist {
		t.Fatalf("checked-in entry decoded to key %q, %d steps, netlist %p/%p",
			e.Key, len(e.Steps), e.Res.Netlist, e.Res.Synth.Netlist)
	}
	if err := e.Res.Netlist.Validate(); err != nil {
		t.Fatalf("checked-in entry decoded to an invalid netlist: %v", err)
	}
}

// TestParentFormatEntry: an entry journaled by the build before the
// binary framing is never misdecoded. The decoder rejects it, journal
// recovery counts it corrupt, and a resume recomputes the point to the
// reference result.
func TestParentFormatEntry(t *testing.T) {
	old := readTestdata(t, parentEntryFile)
	if _, err := DecodeEntry(old); err == nil {
		t.Fatal("parent-format entry decoded without error")
	}

	dir := filepath.Join(t.TempDir(), "journal")
	log, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(old); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, corrupt := journalKeys(t, dir); corrupt != 1 {
		t.Fatalf("Journal.Entries counted %d corrupt records, want 1", corrupt)
	}

	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 1, 1)
	ctx := context.Background()
	want, err := New(Config{Workers: 1}).Run(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	jrn := openJournal(t, dir)
	defer jrn.Close()
	got, st, err := New(Config{Workers: 1, Journal: jrn}).Resume(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt != 1 || st.Replayed != 0 {
		t.Fatalf("resume stats %+v, want 1 corrupt and 0 replayed", st)
	}
	assertSameResults(t, "resume over a parent-format journal", got, want)
}
