package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// valuesRun numbers test invocations so each one (under -count=N too)
// observes into fresh names of the process-wide Values registry.
var valuesRun atomic.Int64

func freshPrefix() string {
	return fmt.Sprintf("predict.tolerr.test%d", valuesRun.Add(1))
}

// TestHistsRegistryWrite drives the process-wide value registry through
// the debug mount: predictor tolerance errors observed into Values must
// come out of /debug/hist as sorted "name count=N ..." lines.
func TestHistsRegistryWrite(t *testing.T) {
	_, base := startServer(t)
	p := freshPrefix()
	Values.Observe(p+".synth", 0.2)
	Values.Observe(p+".synth", 3)
	Values.Observe(p+".place", 1)

	_, _, out := get(t, base+"/debug/hist")
	if !strings.Contains(out, p+".synth count=2") {
		t.Errorf("missing synth line:\n%s", out)
	}
	// Sorted by name: place before synth.
	place := strings.Index(out, p+".place")
	if place < 0 || place > strings.Index(out, p+".synth") {
		t.Errorf("histogram lines missing or not sorted:\n%s", out)
	}
}

// TestValueHistConcurrent hammers one name of the value registry from
// many goroutines, each also racing the registry's first-use lookup:
// count, max and the CAS-accumulated mean must all be exact.
func TestValueHistConcurrent(t *testing.T) {
	name := freshPrefix() + ".concurrent"
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1020; i++ { // 60 whole cycles of 0..16
				Values.Observe(name, float64(i%17))
			}
		}()
	}
	wg.Wait()
	s := Values.Hist(name).Snapshot(name)
	if s.Count != 8160 {
		t.Fatalf("count = %d, want 8160", s.Count)
	}
	if s.Max != 16 {
		t.Errorf("max = %g, want 16", s.Max)
	}
	var want float64
	for i := 0; i < 17; i++ {
		want += float64(i)
	}
	want /= 17
	if math.Abs(s.Mean-want) > 1e-9 {
		t.Errorf("mean = %g, want %g (CAS-accumulated sum lost updates?)", s.Mean, want)
	}
}
