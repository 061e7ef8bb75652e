// Command perfbench is the repository's campaign benchmark. It drives
// the public sweep API (repro.Sweep, repro.DistSweep), the campaign
// entry codec and the METRICS warehouse from outside, checks every
// campaign's output, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with
// tracing off. With --trace 1 it alternates untraced and traced
// campaigns and prints the per-layer ledger built from the spans the
// program already emits. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workDir holds everything a run writes: journals and warehouse WALs.
// It sits inside the checkout, next to the built binary.
const workDir = ".bench_build/perfbench/work"

// deadline bounds a whole run: a hung campaign must not outlive the
// harness's patience, so the process reports failure instead.
const deadline = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same point list")
	seconds := flag.Int("seconds", 20, "how long to measure")
	traced := flag.Int("trace", 0, "0 = end-to-end metrics with tracing off, 1 = per-layer ledger")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(workDir, w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := newBench(w, *seed, dir)
	res, err := b.run(time.Duration(*seconds)*time.Second, *traced == 1)
	os.RemoveAll(dir) //nolint:errcheck // scratch space; a leftover is harmless
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error { //nolint:errcheck
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// median returns the middle of xs (the mean of the two middles for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// iqr returns the distance between the first and third quartiles of
// xs, or 0 below two values.
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return quantile(xs, 0.75) - quantile(xs, 0.25)
}

// quantile returns the p-quantile of xs by the exclusive method, as
// Python's statistics.quantiles, or 0 for none.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := p * float64(len(s)+1)
	j := int(m)
	switch {
	case j < 1:
		return s[0]
	case j >= len(s):
		return s[len(s)-1]
	}
	return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
}
