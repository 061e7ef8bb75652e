package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// histBuckets is the bucket count of a histogram: bucket 0 holds
// samples below 2^-20 (including zero) and bucket b >= 1 holds
// [2^(b-21), 2^(b-20)), so 68 log-spaced buckets span ~1e-6 to 2^47
// (the last bucket also takes everything above). In microseconds that
// is sub-nanosecond to ~4.5 years; as plain values it covers the
// percentage-scale magnitudes (predictor tolerance errors, ratios) —
// fixed memory either way, a few atomic operations per observation.
const histBuckets = 68

// subUnitBuckets is the number of buckets below 1: bucket b >= 1 has
// upper bound 2^(b-subUnitBuckets), so bucket subUnitBuckets is [0.5, 1).
const subUnitBuckets = 20

// Hist is one log-bucketed histogram of non-negative float64 samples in
// one unit: "us" for span latencies, none for plain values (the zero
// Hist; a HistSet stamps its unit on the histograms it creates).
// Observations are a few atomic operations; snapshots are lock-free
// reads, so a /debug/hist scrape never stalls the campaign writing to
// it.
type Hist struct {
	unit   string
	counts [histBuckets]atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	max    atomic.Uint64 // float64 bits
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v float64) int {
	if !(v >= math.Ldexp(1, -subUnitBuckets)) { // also NaN
		return 0
	}
	_, exp := math.Frexp(v) // v in [2^(exp-1), 2^exp)
	return min(exp+subUnitBuckets, histBuckets-1)
}

// bucketUpper returns the exclusive upper bound of bucket b.
func bucketUpper(b int) float64 {
	return math.Ldexp(1, b-subUnitBuckets)
}

// Observe records one sample. Negative and NaN samples are clamped to
// zero — the histograms hold magnitudes, not signed values.
func (h *Hist) Observe(v float64) {
	if !(v >= 0) {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.fold(v, v)
}

// fold adds sum to the running sum and raises the running max to hi.
func (h *Hist) fold(sum, hi float64) {
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sum)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if hi <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(hi)) {
			break
		}
	}
}

// HistSnapshot is a point-in-time summary of one histogram. Quantile
// Pq is the upper bound of the bucket holding the sample of rank
// floor(q·(n−1))+1 (1-based, in sorted order). That bounds the sample
// at that rank from above, within one power of two, but it is not
// conservative for small n: with 5 samples P99 reads the 4th, so it
// can sit below Max.
type HistSnapshot struct {
	Name  string
	Unit  string
	Count int64
	Mean  float64
	P50   float64
	P90   float64
	P99   float64
	Max   float64
	// Buckets holds the non-empty buckets as (upper bound, count)
	// pairs, for callers that want the full shape.
	Buckets []HistBucket
}

// HistBucket is one non-empty histogram bucket.
type HistBucket struct {
	Upper float64
	Count int64
}

// Snapshot summarizes the histogram. Writers may race with the reads —
// each bucket is read atomically, so counts are never torn, merely up
// to one observation apart between buckets.
func (h *Hist) Snapshot(name string) HistSnapshot {
	s := HistSnapshot{Name: name, Unit: h.unit}
	var counts [histBuckets]int64
	for i := range counts {
		counts[i] = h.counts[i].Load()
		s.Count += counts[i]
	}
	if s.Count == 0 {
		return s
	}
	s.Mean = math.Float64frombits(h.sum.Load()) / float64(s.Count)
	s.Max = math.Float64frombits(h.max.Load())
	quantile := func(q float64) float64 {
		target := int64(q*float64(s.Count-1)) + 1
		var cum int64
		for i, c := range counts {
			cum += c
			if cum >= target {
				return bucketUpper(i)
			}
		}
		return bucketUpper(histBuckets - 1)
	}
	s.P50 = quantile(0.50)
	s.P90 = quantile(0.90)
	s.P99 = quantile(0.99)
	for i, c := range counts {
		if c > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Upper: bucketUpper(i), Count: c})
		}
	}
	return s
}

// Merge folds a snapshot taken on another node into this histogram —
// the cross-node aggregation path: each worker snapshots its per-stage
// Hist, ships it inside warehouse records or span batches, and the
// warehouse Merges them into fleet-wide percentiles. Every update is an
// atomic add/CAS, so Merge is safe against concurrent Observe and
// concurrent Merges from other nodes.
func (h *Hist) Merge(snap HistSnapshot) {
	var n int64
	for _, b := range snap.Buckets {
		_, exp := math.Frexp(b.Upper) // invert bucketUpper: 2^(i-20) → i
		i := max(0, min(exp-1+subUnitBuckets, histBuckets-1))
		h.counts[i].Add(b.Count)
		n += b.Count
	}
	if n == 0 {
		return
	}
	h.fold(snap.Mean*float64(snap.Count), snap.Max)
}

// HistSet is a registry of named histograms sharing one unit, with the
// same read-mostly locking idiom as metrics.Counters.
type HistSet struct {
	unit string
	mu   sync.RWMutex
	m    map[string]*Hist
}

// NewHistSet creates an empty registry of histograms in unit.
func NewHistSet(unit string) *HistSet { return &HistSet{unit: unit, m: map[string]*Hist{}} }

// Hist returns the named histogram, registering it on first use.
func (s *HistSet) Hist(name string) *Hist {
	s.mu.RLock()
	h, ok := s.m[name]
	s.mu.RUnlock()
	if ok {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok = s.m[name]; !ok {
		h = &Hist{unit: s.unit}
		s.m[name] = h
	}
	return h
}

// Observe records one sample into the named histogram.
func (s *HistSet) Observe(name string, v float64) { s.Hist(name).Observe(v) }

// Merge folds a set of remote snapshots into this registry by name.
func (s *HistSet) Merge(snaps []HistSnapshot) {
	for _, snap := range snaps {
		s.Hist(snap.Name).Merge(snap)
	}
}

// Snapshots summarizes every histogram, sorted by name.
func (s *HistSet) Snapshots() []HistSnapshot {
	s.mu.RLock()
	names := make([]string, 0, len(s.m))
	for k := range s.m {
		names = append(names, k)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	out := make([]HistSnapshot, 0, len(names))
	for _, n := range names {
		out = append(out, s.Hist(n).Snapshot(n))
	}
	return out
}

// Write renders one "name count=N mean_U=X p50_U=X p90_U=X p99_U=X
// max_U=X" line per histogram, sorted by name, where _U is the unit
// suffix ("_us" for span latencies, none for plain values) — the
// /debug/hist and /metrics exposition format.
func (s *HistSet) Write(w io.Writer) {
	for _, snap := range s.Snapshots() {
		u := ""
		if snap.Unit != "" {
			u = "_" + snap.Unit
		}
		fmt.Fprintf(w, "%[1]s count=%[2]d mean%[3]s=%[4]s p50%[3]s=%[5]g p90%[3]s=%[6]g p99%[3]s=%[7]g max%[3]s=%[8]s\n",
			snap.Name, snap.Count, u, magnitude(snap.Mean), snap.P50, snap.P90, snap.P99, magnitude(snap.Max))
	}
}

// magnitude renders a mean or max: one decimal from 1 up, where
// microsecond latencies live, and three significant digits below it,
// where plain values such as ratios and sub-percent errors live.
func magnitude(v float64) string {
	if v == 0 || v >= 1 {
		return strconv.FormatFloat(v, 'f', 1, 64)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}
