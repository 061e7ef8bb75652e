package campaign

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cellib"
	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/netlist"
)

// stepLog collects a flow run's step records.
type stepLog struct{ steps []flow.StepRecord }

func (l *stepLog) OnStep(rec flow.StepRecord) { l.steps = append(l.steps, rec) }

// TestEntryCodecRoundTrip: the exported codec is the journal's wire
// format — an encoded entry must decode back to the identical record
// (netlist included, with Synth.Netlist aliasing Netlist as in a live
// result), re-encode to the same bytes, and structurally empty or
// garbage inputs must be rejected, not half-decoded.
func TestEntryCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec netlist.Spec
		// offLibrary gives one instance a cell that matches no library
		// entry, so it must round-trip through the full-cell fallback.
		offLibrary bool
	}{
		{"tiny", netlist.Tiny(1), false},
		{"pulpino", netlist.PulpinoProxy(1), false},
		{"cpu", netlist.EmbeddedCPU(1), false},
		{"artificial", netlist.Artificial(1), false},
		{"tiny-off-library-cell", netlist.Tiny(2), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			design := netlist.Generate(cellib.Default14nm(), tc.spec)
			var log stepLog
			res := flow.RunObserved(design, flow.Options{TargetFreqGHz: 0.5, PlaceMoves: 4, Seed: 1}, &log)
			if res.Synth.Netlist != res.Netlist {
				t.Fatal("live result does not alias Synth.Netlist to Netlist")
			}
			if tc.offLibrary {
				cell := &res.Netlist.Insts[len(res.Netlist.Insts)/2].Cell
				cell.Area *= 1.5
				if _, ok := res.Netlist.Lib.Index(*cell); ok {
					t.Fatal("mutated cell still matches the library")
				}
			}
			in := Entry{
				Key:   KeyFor(design),
				Res:   res,
				Steps: log.steps,
				Spec:  &flow.SpecStats{Launched: 2, Committed: 1},
			}
			data, err := EncodeEntry(in)
			if err != nil {
				t.Fatal(err)
			}
			out, err := DecodeEntry(data)
			if err != nil {
				t.Fatal(err)
			}
			if out.Key != in.Key || !reflect.DeepEqual(out.Steps, in.Steps) || !reflect.DeepEqual(out.Spec, in.Spec) {
				t.Fatalf("round trip lost key, steps or spec: %+v", out)
			}
			got, want := out.Res.Netlist, in.Res.Netlist
			for _, f := range []struct {
				field     string
				got, want any
			}{
				{"Insts", got.Insts, want.Insts},
				{"Nets", got.Nets, want.Nets},
				{"FaninNet", got.FaninNet, want.FaninNet},
				{"FanoutNet", got.FanoutNet, want.FanoutNet},
				{"ClockNet", got.ClockNet, want.ClockNet},
				{"ClockPeriodPs", got.ClockPeriodPs, want.ClockPeriodPs},
				{"Lib.Cells", got.Lib.Cells(), want.Lib.Cells()},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("netlist %s differs after round trip", f.field)
				}
			}
			if out.Res.Synth.Netlist != out.Res.Netlist {
				t.Error("decoded Synth.Netlist does not alias Netlist")
			}
			if !reflect.DeepEqual(out.Res, in.Res) {
				t.Error("decoded result differs from the encoded one")
			}
			again, err := EncodeEntry(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Errorf("re-encoding the decoded entry changed its bytes (%d vs %d)", len(again), len(data))
			}
		})
	}
	if _, err := DecodeEntry([]byte("not an entry")); err == nil {
		t.Fatal("garbage decoded without error")
	}
	empty, err := EncodeEntry(Entry{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEntry(empty); err == nil {
		t.Fatal("structurally empty entry decoded without error")
	}
}

// TestJournalRecordAfterClose: an append that arrives after Close must
// be dropped safely AND surfaced via Err — a caller that requires
// durability has to find out the journal is missing points.
func TestJournalRecordAfterClose(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 1, 1)
	res, err := New(Config{Workers: 1}).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	jrn := openJournal(t, filepath.Join(t.TempDir(), "journal"))
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}
	jrn.record(pts[0].cacheKey(), res[0], nil, nil)
	if jerr := jrn.Err(); !errors.Is(jerr, journal.ErrClosed) {
		t.Fatalf("Err = %v, want wrapped journal.ErrClosed", jerr)
	}
}

// TestJournalDoubleClose: closing twice is safe and idempotent — the
// second call returns the first close's outcome without touching the
// log again.
func TestJournalDoubleClose(t *testing.T) {
	jrn := openJournal(t, filepath.Join(t.TempDir(), "journal"))
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jrn.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// TestJournalRecordAfterFailStaysSticky: after one append failure the
// first error must stay the surfaced one while later records still try
// (and in this torn-down journal, fail) without panicking or masking it.
func TestJournalRecordAfterFailStaysSticky(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 1, 2)
	res, err := New(Config{Workers: 1}).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	jrn := openJournal(t, filepath.Join(t.TempDir(), "journal"))
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}
	jrn.record(pts[0].cacheKey(), res[0], nil, nil)
	first := jrn.Err()
	if first == nil {
		t.Fatal("first failure not surfaced")
	}
	jrn.record(pts[1].cacheKey(), res[1], nil, nil)
	if jrn.Err() != first {
		t.Fatalf("later failure replaced the sticky error: %v", jrn.Err())
	}
}

// TestJournalCloseRacesInFlightAppends: Close fired concurrently with a
// storm of record calls must neither panic nor corrupt the log: every
// append either landed durably before the close or is surfaced via Err,
// and the journal on disk decodes cleanly.
func TestJournalCloseRacesInFlightAppends(t *testing.T) {
	design := tinyDesign(1)
	pts := sweepPoints(design, KeyFor(design), 3, 4)
	res, err := New(Config{Workers: 4}).Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "journal")
	jrn := openJournal(t, dir)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range pts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			jrn.record(pts[i].cacheKey(), res[i], nil, nil)
		}(i)
	}
	wg.Add(1)
	var closeErr error
	go func() {
		defer wg.Done()
		<-start
		closeErr = jrn.Close()
	}()
	close(start)
	wg.Wait()
	if closeErr != nil {
		t.Fatalf("racing Close = %v", closeErr)
	}
	if err := jrn.Close(); err != nil {
		t.Fatalf("post-race Close = %v", err)
	}

	// Reopen: every record that made it in must decode; appends that
	// lost the race to Close must have been surfaced, not silently gone.
	keys, corrupt := journalKeys(t, dir)
	if corrupt != 0 {
		t.Fatalf("%d corrupt records after close race", corrupt)
	}
	if len(keys)+0 > len(pts) {
		t.Fatalf("journal holds %d records for %d points", len(keys), len(pts))
	}
	if len(keys) < len(pts) && jrn.Err() == nil {
		t.Fatalf("journal holds %d of %d points but Err is nil", len(keys), len(pts))
	}
}
