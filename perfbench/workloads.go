package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/dist"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/warehouse"
)

const (
	// concurrency is the number of flow runs in flight in every
	// workload: two licenses in one process, or two single-license
	// nodes.
	concurrency = 2
	// designSeed pins the pulpino-proxy netlist. The run seed varies the
	// point list instead: a different netlist per seed would move the
	// flow's work by more than the metrics' bounds.
	designSeed = 1
	// flowSeeds is the number of flow seeds per frequency.
	flowSeeds = 8
	// quickLookMoves is the placement effort (moves per cell) of the
	// durable and resume workloads; the default flow uses 60.
	quickLookMoves = 4
	// stagesPerPoint is the number of warehouse records one point emits
	// (synth, place, cts, groute, droute, sta).
	stagesPerPoint = 6
)

// freqs are the target frequencies (GHz) every workload sweeps.
var freqs = []float64{0.6, 0.7, 0.8}

// workload is one benchmark input shape.
type workload struct {
	name string
	// quickLook selects low-effort placement.
	quickLook bool
	// resume marks the workload whose campaigns are served entirely
	// from a journal: its cache guard wants every lookup to hit.
	resume bool
	// prepare runs once, untimed, before the warm-up campaign.
	prepare func(b *bench) error
	// campaign runs one campaign on a freshly generated design and
	// fills r (set-up, wall clock, CPU, table).
	campaign func(b *bench, r *rep) error
	// finish runs once after the timed campaigns, untimed: the checks
	// that need a second mode or the journal on disk.
	finish func(b *bench) error
}

var workloads = map[string]*workload{
	"sweep":   {name: "sweep", campaign: sweepCampaign, finish: sweepFinish},
	"dist":    {name: "dist", campaign: distCampaign, finish: distFinish},
	"durable": {name: "durable", quickLook: true, campaign: durableCampaign, finish: durableFinish},
	"resume":  {name: "resume", quickLook: true, resume: true, prepare: resumePrepare, campaign: resumeCampaign, finish: resumeFinish},
}

// bench is one run of one workload.
type bench struct {
	w     *workload
	dir   string
	seeds []int64
	base  repro.FlowOptions
	n     int // points per campaign

	// want is the reference table every campaign must reproduce and
	// wantHash its digest.
	want     []repro.SweepPoint
	wantHash string

	// kept is the durable workload's most recent campaign directory
	// (journal and warehouse), kept for the journal probe.
	kept string
	// written is the resume workload's journal.
	written string
	// probe is the entry-codec probe of the run's journaled entries.
	probe probeResult
}

func newBench(w *workload, seed int64, dir string) *bench {
	b := &bench{w: w, dir: dir, seeds: pointSeeds(seed)}
	if w.quickLook {
		b.base.PlaceMoves = quickLookMoves
	}
	b.n = len(freqs) * len(b.seeds)
	return b
}

// pointSeeds derives the flow seeds of a run from its seed (splitmix64),
// distinct and positive.
func pointSeeds(seed int64) []int64 {
	x := uint64(seed)
	seen := map[int64]bool{}
	var out []int64
	for len(out) < flowSeeds {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		s := int64(z>>33) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// rep is one campaign: its timings, output, and what the layers
// recorded while it ran.
type rep struct {
	setup, gen, wall, cpu time.Duration
	res                   repro.SweepResult
	err                   error
	delta                 map[string]int64
	coord                 dist.CoordStats
	wh                    *timedAppender
	whRecords             int
	journalBytes          int64
	traced                bool
	spans                 []trace.SpanData
	epoch                 time.Time
}

// counterNames are the process-wide counters a rep diffs.
var counterNames = []string{
	"campaign.cache.hit", "campaign.cache.miss", "campaign.cache.tier_hit",
	"campaign.point.retried", "journal.append.ok", "dist.rpc.retried",
}

func counters() map[string]int64 {
	m := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		m[n] = metrics.Get(n)
	}
	return m
}

// campaign runs one campaign of the workload, traced or not.
func (b *bench) campaign(traced bool) *rep {
	r := &rep{traced: traced}
	before := counters()
	var tr *trace.Tracer
	if traced {
		tr = trace.NewCfg(trace.Config{Retention: -1})
		trace.Enable(tr)
	}
	r.err = b.w.campaign(b, r)
	if traced {
		trace.Disable()
		r.spans, _ = tr.Snapshot()
		r.epoch = tr.Epoch()
	}
	r.delta = counters()
	for k, v := range before {
		r.delta[k] -= v
	}
	return r
}

// design generates the library and the pulpino-proxy netlist, timing
// both as r.gen.
func (b *bench) design(r *rep) *repro.Design {
	t := time.Now()
	d := repro.NewDesign(repro.DefaultLibrary(), repro.PulpinoProxy(designSeed))
	if r != nil {
		r.gen = time.Since(t)
	}
	return d
}

func (b *bench) sweepConfig(d *repro.Design, workers int, journalDir string) repro.SweepConfig {
	return repro.SweepConfig{
		Design: d, Base: b.base, Freqs: freqs, Seeds: b.seeds,
		Workers: workers, JournalDir: journalDir,
	}
}

// timed runs one campaign call, recording its wall clock and the
// process CPU it used.
func (r *rep) timed(call func() (repro.SweepResult, error)) error {
	c := cpuTime()
	t := time.Now()
	res, err := call()
	r.wall = time.Since(t)
	r.cpu = cpuTime() - c
	r.res = res
	if err == nil {
		err = res.JournalErr
	}
	return err
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ---------------------------------------------------------------------
// The four workloads.

func sweepCampaign(b *bench, r *rep) error {
	start := time.Now()
	cfg := b.sweepConfig(b.design(r), concurrency, "")
	r.setup = time.Since(start)
	return r.timed(func() (repro.SweepResult, error) { return repro.Sweep(cfg) })
}

func distCampaign(b *bench, r *rep) error {
	start := time.Now()
	cfg := repro.DistSweepConfig{
		SweepConfig: b.sweepConfig(b.design(r), 1, ""),
		Nodes:       concurrency,
		Stats:       &r.coord,
	}
	r.setup = time.Since(start)
	return r.timed(func() (repro.SweepResult, error) { return repro.DistSweep(cfg) })
}

func durableCampaign(b *bench, r *rep) error {
	start := time.Now()
	d := b.design(r)
	dir, err := os.MkdirTemp(b.dir, "campaign-")
	if err != nil {
		return err
	}
	wh, err := warehouse.Open(filepath.Join(dir, "warehouse"), journal.Options{})
	if err != nil {
		return err
	}
	r.wh = &timedAppender{sink: wh}
	cfg := b.sweepConfig(d, concurrency, filepath.Join(dir, "journal"))
	cfg.Warehouse = r.wh
	r.setup = time.Since(start)
	err = r.timed(func() (repro.SweepResult, error) { return repro.Sweep(cfg) })
	r.whRecords = wh.Stats().Records
	if cerr := wh.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close warehouse: %w", cerr)
	}
	r.journalBytes = dirBytes(dir)
	if b.kept != "" {
		os.RemoveAll(b.kept) //nolint:errcheck // scratch space
	}
	b.kept = dir
	return err
}

func resumePrepare(b *bench) error {
	b.written = filepath.Join(b.dir, "written")
	res, err := repro.Sweep(b.sweepConfig(b.design(nil), concurrency, b.written))
	if err == nil {
		err = res.JournalErr
	}
	if err != nil {
		return fmt.Errorf("write the journal to resume: %w", err)
	}
	return b.setReference(res.Points)
}

func resumeCampaign(b *bench, r *rep) error {
	start := time.Now()
	cfg := b.sweepConfig(b.design(r), concurrency, b.written)
	r.setup = time.Since(start)
	err := r.timed(func() (repro.SweepResult, error) { return repro.Sweep(cfg) })
	r.journalBytes = dirBytes(b.written)
	return err
}

// sweepFinish runs the same points once through the distributed
// service: byte-identity with the single-process table is the dist
// tier's contract.
func sweepFinish(b *bench) error {
	res, err := repro.DistSweep(repro.DistSweepConfig{
		SweepConfig: b.sweepConfig(b.design(nil), 1, ""), Nodes: concurrency,
	})
	return b.sameTable("dist", res, err)
}

// distFinish runs the same points once in a single process.
func distFinish(b *bench) error {
	res, err := repro.Sweep(b.sweepConfig(b.design(nil), concurrency, ""))
	return b.sameTable("sweep", res, err)
}

// durableFinish probes the last campaign's journal, then resumes that
// campaign in a fresh engine: the resumed table must equal the written
// one, every point served from the journal.
func durableFinish(b *bench) error {
	if err := b.probeJournal(filepath.Join(b.kept, "journal")); err != nil {
		return err
	}
	before := counters()
	res, err := repro.Sweep(b.sweepConfig(b.design(nil), concurrency, filepath.Join(b.kept, "journal")))
	if err := b.sameTable("resumed", res, err); err != nil {
		return err
	}
	hits := metrics.Get("campaign.cache.hit") - before["campaign.cache.hit"]
	miss := metrics.Get("campaign.cache.miss") - before["campaign.cache.miss"]
	if res.Resume.Replayed != b.n || hits != int64(b.n) || miss != 0 {
		return fmt.Errorf("resume replayed %d, hit %d, missed %d of %d points", res.Resume.Replayed, hits, miss, b.n)
	}
	return nil
}

func resumeFinish(b *bench) error { return b.probeJournal(b.written) }

// ---------------------------------------------------------------------
// Correctness.

// tableHash digests a point table in its printed form.
func tableHash(pts []repro.SweepPoint) string {
	var buf bytes.Buffer
	repro.SweepResult{Points: pts}.Print(&buf)
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// malformed counts the points of a table that are missing, out of
// order, or carry non-finite values.
func (b *bench) malformed(pts []repro.SweepPoint) int {
	if len(pts) != b.n {
		return b.n
	}
	bad := 0
	for i, p := range pts {
		ok := p.FreqGHz == freqs[i/len(b.seeds)] && p.Seed == b.seeds[i%len(b.seeds)]
		for _, v := range []float64{p.WNSPs, p.AreaUm2, p.PowerNW, p.MaxFreqGHz} {
			ok = ok && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		ok = ok && p.AreaUm2 > 0 && p.MaxFreqGHz > 0
		if !ok {
			bad++
		}
	}
	return bad
}

// setReference adopts a well-formed table as the run's reference.
func (b *bench) setReference(pts []repro.SweepPoint) error {
	if bad := b.malformed(pts); bad > 0 {
		return fmt.Errorf("reference table has %d malformed points", bad)
	}
	b.want = append([]repro.SweepPoint(nil), pts...)
	b.wantHash = tableHash(pts)
	return nil
}

func (b *bench) sameTable(what string, res repro.SweepResult, err error) error {
	if err == nil {
		err = res.JournalErr
	}
	if err != nil {
		return fmt.Errorf("%s campaign: %w", what, err)
	}
	if h := tableHash(res.Points); h != b.wantHash {
		return fmt.Errorf("%s table %s differs from the reference %s", what, h[:16], b.wantHash[:16])
	}
	return nil
}

// check returns how many of a campaign's points failed, and why.
func (b *bench) check(r *rep) (int, string) {
	if r.err != nil {
		return b.n, r.err.Error()
	}
	pts := r.res.Points
	if bad := b.malformed(pts); bad > 0 {
		return bad, fmt.Sprintf("%d malformed points", bad)
	}
	// Cache guard: these workloads time unique points on a fresh cache,
	// so a hit would book memoization as speed; the resume workload must
	// serve every point from its journal.
	hits, miss := r.delta["campaign.cache.hit"], r.delta["campaign.cache.miss"]
	tier := r.delta["campaign.cache.tier_hit"]
	switch {
	case b.w.resume && (hits != int64(b.n) || miss != 0 || r.res.Resume.Replayed != b.n):
		return b.n, fmt.Sprintf("resume hit %d, missed %d, replayed %d of %d", hits, miss, r.res.Resume.Replayed, b.n)
	case !b.w.resume && (hits != 0 || tier != 0):
		return b.n, fmt.Sprintf("cache guard: %d memo and %d tier hits", hits, tier)
	case b.w.resume && r.traced && countSpans(r.spans, "flow.run") != 0:
		return b.n, "resume ran the flow"
	case r.wh != nil && (r.whRecords != b.n*stagesPerPoint || len(r.wh.calls) != b.n*stagesPerPoint):
		return b.n, fmt.Sprintf("warehouse holds %d records, got %d appends", r.whRecords, len(r.wh.calls))
	}
	bad := 0
	for i, p := range pts {
		if p != b.want[i] {
			bad++
		}
	}
	if bad > 0 {
		return bad, fmt.Sprintf("%d points differ from the reference table", bad)
	}
	return 0, ""
}

// ---------------------------------------------------------------------
// Entry-codec probe.

type probeResult struct {
	bytes, encodeMS, decodeMS float64
}

// probeJournal decodes and re-encodes every entry of a campaign
// journal, timing both, and checks that the journal holds exactly the
// reference table.
func (b *bench) probeJournal(dir string) error {
	pts, err := repro.CampaignPoints(b.sweepConfig(b.design(nil), concurrency, ""))
	if err != nil {
		return err
	}
	index := make(map[string]int, len(pts))
	for i, p := range pts {
		index[p.CacheKey()] = i
	}
	log, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	defer log.Close()
	recs := log.Records()
	if len(recs) != b.n {
		return fmt.Errorf("probe: journal holds %d entries for %d points", len(recs), b.n)
	}
	var size, enc, dec []float64
	seen := map[int]bool{}
	for _, rec := range recs {
		t := time.Now()
		e, err := campaign.DecodeEntry(rec)
		dec = append(dec, ms(time.Since(t)))
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		t = time.Now()
		if _, err := campaign.EncodeEntry(e); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		enc = append(enc, ms(time.Since(t)))
		size = append(size, float64(len(rec)))
		i, ok := index[e.Key]
		if !ok || seen[i] {
			return fmt.Errorf("probe: journal entry for an unknown or repeated point")
		}
		seen[i] = true
		w := b.want[i]
		if e.Res.Met != w.Met || e.Res.WNSPs != w.WNSPs || e.Res.AreaUm2 != w.AreaUm2 ||
			e.Res.PowerNW != w.PowerNW || e.Res.MaxFreqGHz != w.MaxFreqGHz {
			return fmt.Errorf("probe: journaled point %d differs from the table", i)
		}
	}
	b.probe = probeResult{bytes: median(size), encodeMS: median(enc), decodeMS: median(dec)}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timedAppender times every warehouse append the sweep's emitter makes.
type timedAppender struct {
	sink  warehouse.Appender
	mu    sync.Mutex
	calls []appendCall
}

type appendCall struct {
	start time.Time
	dur   time.Duration
}

func (a *timedAppender) Append(rec warehouse.Record) error {
	t := time.Now()
	err := a.sink.Append(rec)
	d := time.Since(t)
	a.mu.Lock()
	a.calls = append(a.calls, appendCall{t, d})
	a.mu.Unlock()
	return err
}
