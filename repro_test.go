package repro

import (
	"reflect"
	"testing"
)

// TestDesignByName covers the design table the CLIs share: every name
// resolves to its generator's spec, an unknown name is an error, and
// sprflow's and campd's sweep inputs (same -design/-freq/-seed/-sweep
// flags) derive the same campaign.
func TestDesignByName(t *testing.T) {
	for name, want := range map[string]DesignSpec{
		"pulpino":    PulpinoProxy(3),
		"cpu":        EmbeddedCPU(3),
		"artificial": Artificial(3),
		"tiny":       TinyDesign(3),
	} {
		got, err := DesignByName(name, 3)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("DesignByName(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	if _, err := DesignByName("nosuch", 3); err == nil {
		t.Error("unknown design name accepted")
	}

	// sprflow -design pulpino -sweep 2 (default -freq 0.5 -seed 1
	// -effort 2, kernel flags at their serial defaults) and campd with
	// the same flags, each built the way its main builds it.
	spec, err := DesignByName("pulpino", 1)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDesign(DefaultLibrary(), spec)
	freqs, seeds := SweepAxes(0.5, 1, 2)
	if !reflect.DeepEqual(freqs, []float64{0.4, 0.5, 0.6}) || !reflect.DeepEqual(seeds, []int64{1, 2}) {
		t.Fatalf("SweepAxes(0.5, 1, 2) = %v x %v", freqs, seeds)
	}
	sprflow := SweepConfig{
		Design: d, Freqs: freqs, Seeds: seeds,
		Base: FlowOptions{SynthEffort: 2, PlaceWorkers: 0, RouteTiles: 0, RouteWorkers: 0},
	}
	campd := SweepConfig{Design: d, Freqs: freqs, Seeds: seeds, Base: FlowOptions{SynthEffort: 2}}
	ids := make([]string, 2)
	for i, cfg := range []SweepConfig{sprflow, campd} {
		pts, err := CampaignPoints(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = CampaignID(pts)
	}
	// The id the warehouse dump of that sweep carries; it moves only if
	// the point derivation does.
	const want = "ef8d97318198b9b2"
	if ids[0] != want || ids[1] != want {
		t.Fatalf("campaign ids sprflow=%s campd=%s, want both %s", ids[0], ids[1], want)
	}
}
