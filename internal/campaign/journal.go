// Campaign journaling: a write-ahead log of completed points, so a
// campaign killed at any moment — power cut, kill -9, scheduler
// preemption — resumes with every finished flow run intact instead of
// recomputing hours of tool time. This is the paper's "reducing time and
// effort" applied to the orchestration layer itself: the expensive
// artifact of a campaign is the set of completed runs, and the journal
// makes that set durable.
package campaign

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"

	"repro/internal/binfmt"
	"repro/internal/flow"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/trace"
)

// Entry is one journaled point: the memo key that identifies it plus
// everything a resumed campaign needs to serve the point from cache —
// the flow result and the step records its compute emitted (so the
// Observer replay of a resumed point matches a memoized one exactly).
type Entry struct {
	Key   string
	Res   *flow.Result
	Steps []flow.StepRecord
	// Spec is the run's speculation outcome (nil if it did not
	// speculate). Replaying it at resume re-counts the same predictor
	// hit/miss counters the live run counted, so a resumed campaign's
	// accounting matches an uninterrupted one. Journals written before
	// speculation existed decode with Spec nil.
	Spec *flow.SpecStats
}

// entryFormat is the first byte of every encoded entry. Builds before
// this framing wrote a bare gob stream, whose first byte (a gob length)
// is below 0x80 or at least 0xF8; so no record of theirs passes this
// check, and each costs one recompute instead of being misdecoded.
const entryFormat = 0x81

// Netlist layout of an encoded entry (its second byte).
const (
	entryNetlist      = 1 << iota // Res.Netlist follows
	entrySynthAliased             // Res.Synth.Netlist is Res.Netlist
	entrySynthNetlist             // a separate Res.Synth.Netlist follows
)

// entryMeta is the gob-encoded part of an entry: everything but the
// netlists, with step metrics as sorted slices so that encoding a
// decoded entry reproduces its bytes.
type entryMeta struct {
	Key   string
	Res   *flow.Result // Netlist and Synth.Netlist nil
	Steps []stepWire
	Spec  *flow.SpecStats
}

type stepWire struct {
	Design  string
	RunSeed int64
	Step    string
	Options flow.Options
	Keys    []string // Metrics, sorted by key
	Values  []float64
	Series  []float64
}

// EncodeEntry serializes an entry for the durable log or the network
// result store — the one wire format a journaled point has, so a store
// node and a local journal can exchange records byte-for-byte. The
// layout is a format byte, a netlist-layout byte, the length-prefixed
// gob of entryMeta, then each netlist's netlist.AppendBinary encoding.
// A Synth.Netlist that aliases Netlist (as every flow run's does) is
// written once, and DecodeEntry restores the alias.
func EncodeEntry(e Entry) ([]byte, error) {
	meta := entryMeta{Key: e.Key, Spec: e.Spec}
	for _, st := range e.Steps {
		w := stepWire{Design: st.Design, RunSeed: st.RunSeed, Step: st.Step, Options: st.Options, Series: st.Series}
		for k := range st.Metrics {
			w.Keys = append(w.Keys, k)
		}
		sort.Strings(w.Keys)
		for _, k := range w.Keys {
			w.Values = append(w.Values, st.Metrics[k])
		}
		meta.Steps = append(meta.Steps, w)
	}
	var layout byte
	var nets []*netlist.Netlist
	if e.Res != nil {
		res := *e.Res
		res.Netlist, res.Synth.Netlist = nil, nil
		meta.Res = &res
		if n := e.Res.Netlist; n != nil {
			layout |= entryNetlist
			nets = append(nets, n)
		}
		switch sn := e.Res.Synth.Netlist; {
		case sn == nil:
		case sn == e.Res.Netlist:
			layout |= entrySynthAliased
		default:
			layout |= entrySynthNetlist
			nets = append(nets, sn)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(meta); err != nil {
		return nil, fmt.Errorf("campaign: encode entry: %w", err)
	}
	out := append(make([]byte, 0, 16+buf.Len()), entryFormat, layout)
	out = binfmt.AppendBlob(out, buf.Bytes())
	for _, n := range nets {
		out = n.AppendBinary(out)
	}
	return out, nil
}

// DecodeEntry parses an encoded entry, rejecting unknown formats and
// structurally empty records (no key or no result) the same way journal
// recovery does. It returns an error, never panics, on any input.
func DecodeEntry(data []byte) (Entry, error) {
	e, err := decodeEntry(data)
	if err != nil {
		return Entry{}, fmt.Errorf("campaign: decode entry: %w", err)
	}
	return e, nil
}

func decodeEntry(data []byte) (Entry, error) {
	r := binfmt.NewReader(data)
	if f := r.Byte(); r.Err() == nil && f != entryFormat {
		return Entry{}, fmt.Errorf("unknown format byte %#x", f)
	}
	layout := r.Byte()
	metaBytes := r.Blob()
	var n, sn *netlist.Netlist
	if layout&entryNetlist != 0 {
		n = netlist.Read(r)
	}
	if layout&entrySynthNetlist != 0 {
		sn = netlist.Read(r)
	}
	if err := r.Done(); err != nil {
		return Entry{}, err
	}
	if layout&^(entryNetlist|entrySynthAliased|entrySynthNetlist) != 0 ||
		layout&entrySynthAliased != 0 && (n == nil || sn != nil) {
		return Entry{}, fmt.Errorf("invalid netlist layout %#x", layout)
	}
	if layout&entrySynthAliased != 0 {
		sn = n
	}
	var meta entryMeta
	mr := bytes.NewReader(metaBytes)
	if err := gob.NewDecoder(mr).Decode(&meta); err != nil {
		return Entry{}, err
	}
	if mr.Len() != 0 {
		return Entry{}, fmt.Errorf("%d trailing bytes after the gob part", mr.Len())
	}
	if meta.Key == "" || meta.Res == nil {
		return Entry{}, fmt.Errorf("missing key or result")
	}
	meta.Res.Netlist, meta.Res.Synth.Netlist = n, sn
	e := Entry{Key: meta.Key, Res: meta.Res, Spec: meta.Spec}
	for _, w := range meta.Steps {
		if len(w.Keys) != len(w.Values) {
			return Entry{}, fmt.Errorf("step %q has %d metric keys for %d values", w.Step, len(w.Keys), len(w.Values))
		}
		st := flow.StepRecord{Design: w.Design, RunSeed: w.RunSeed, Step: w.Step, Options: w.Options, Series: w.Series}
		if len(w.Keys) > 0 {
			st.Metrics = make(map[string]float64, len(w.Keys))
			for i, k := range w.Keys {
				st.Metrics[k] = w.Values[i]
			}
		}
		e.Steps = append(e.Steps, st)
	}
	return e, nil
}

// Journal is the campaign-facing wrapper over the durable log: it
// serializes entries with EncodeEntry, deduplicates appends by key (a
// point replayed from the journal is marked seen and never re-appended), and
// turns append failures into a sticky error surfaced via Err — the
// campaign itself keeps running, because losing durability must not
// lose the live computation too.
//
// Lifecycle contract: Close waits for any in-flight record to land
// (both hold the journal mutex), a record after Close is dropped but
// surfaced via Err — never silently lost — and closing twice is safe
// and returns the first close's outcome.
type Journal struct {
	log *journal.Log

	mu       sync.Mutex
	seen     map[string]struct{}
	err      error
	closed   bool
	closeErr error
}

// OpenJournal opens (or creates) the campaign journal in dir, recovering
// any torn tail left by a crash. The journal.Options choose the fsync
// policy; the zero value is fully durable (fsync every append).
func OpenJournal(dir string, opts journal.Options) (*Journal, error) {
	log, err := journal.Open(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	return &Journal{log: log, seen: map[string]struct{}{}}, nil
}

// Entries decodes every recovered record. Records that fail to decode —
// a journal written by an incompatible build, or garbage that survived
// the CRC by astronomical luck — are skipped and counted, never fatal:
// a corrupt entry costs one recompute, not the campaign.
func (j *Journal) Entries() (entries []Entry, corrupt int) {
	for _, rec := range j.log.Records() {
		e, err := DecodeEntry(rec)
		if err != nil {
			corrupt++
			continue
		}
		entries = append(entries, e)
	}
	if corrupt > 0 {
		metrics.Add("campaign.journal.corrupt", int64(corrupt))
	}
	return entries, corrupt
}

// Stats exposes the recovery statistics of the underlying log.
func (j *Journal) Stats() journal.RecoveryStats { return j.log.Stats() }

// record journals one completed point. Appends are best-effort and
// deduplicated: a key already journaled (or replayed at resume) is
// skipped, and an append failure is remembered in Err but does not fail
// the campaign.
func (j *Journal) record(key string, res *flow.Result, steps []flow.StepRecord, spec *flow.SpecStats) {
	sp := trace.Begin("campaign.journal.append")
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		// The entry is lost to durability (the campaign result itself is
		// fine); a silent drop here would make Err lie about completeness.
		j.fail(fmt.Errorf("campaign: journal append after close: %w", journal.ErrClosed))
		sp.EndWith(trace.Failed)
		return
	}
	if _, dup := j.seen[key]; dup {
		metrics.Add("campaign.journal.duplicate", 1)
		sp.EndWith(trace.CacheHit)
		return
	}
	buf, err := EncodeEntry(Entry{Key: key, Res: res, Steps: steps, Spec: spec})
	if err != nil {
		j.fail(err)
		sp.EndWith(trace.Failed)
		return
	}
	if err := j.log.Append(buf); err != nil {
		j.fail(fmt.Errorf("campaign: journal append: %w", err))
		sp.EndWith(trace.Failed)
		return
	}
	j.seen[key] = struct{}{}
	metrics.Add("campaign.journal.appended", 1)
	sp.SetInt("bytes", int64(len(buf)))
	sp.End()
}

// markSeen suppresses future appends for a key that is already durable
// (it was replayed out of the journal at resume).
func (j *Journal) markSeen(key string) {
	j.mu.Lock()
	j.seen[key] = struct{}{}
	j.mu.Unlock()
}

// fail records the first append-path error. Caller holds j.mu.
func (j *Journal) fail(err error) {
	if j.err == nil {
		j.err = err
	}
	metrics.Add("campaign.journal.append_err", 1)
}

// Err returns the first append-path error, if any. A non-nil Err means
// the campaign's results are complete in memory but the journal may be
// missing points; callers that require durability should surface it.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Sync forces the journal to stable storage (meaningful under the
// SyncInterval/SyncNever policies).
func (j *Journal) Sync() error { return j.log.Sync() }

// Close syncs and closes the underlying log. It serializes with
// in-flight record calls (whichever holds the mutex first wins: an
// append that beat Close is durable, one that lost is dropped and
// surfaced via Err). Closing an already-closed journal is a no-op that
// returns the first Close's error.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.closeErr
	}
	j.closed = true
	j.closeErr = j.log.Close()
	return j.closeErr
}

// ResumeStats reports what a resume replayed out of the journal.
type ResumeStats struct {
	// Replayed is the number of journal entries whose key matched a
	// requested point and was seeded into the cache.
	Replayed int
	// SkippedUnknown is the number of entries that matched no requested
	// point — a changed campaign spec; they are preserved on disk but
	// not served.
	SkippedUnknown int
	// Corrupt is the number of records that failed to decode.
	Corrupt int
	// Duplicate is the number of decodable entries whose key had already
	// been replayed (e.g. the same point journaled by two pre-crash
	// processes); first entry wins.
	Duplicate int
}

// Replay seeds the engine's cache with every journaled entry whose key
// matches one of pts, and marks those keys seen so the resumed campaign
// never re-appends them. Entries matching no requested point are
// skipped and counted (a resumed campaign may have a narrower spec than
// the one that crashed); corrupt records are skipped and counted. The
// engine must have been built with both Journal and Cache (Config.New
// auto-creates the cache when a journal is set).
func (e *Engine) Replay(pts []Point) (ResumeStats, error) {
	if e.journal == nil {
		return ResumeStats{}, fmt.Errorf("campaign: Replay: engine has no journal")
	}
	if e.cache == nil {
		return ResumeStats{}, fmt.Errorf("campaign: Replay: engine has no cache")
	}
	sp := trace.Begin("campaign.journal.replay")
	defer sp.End()
	known := make(map[string]struct{}, len(pts))
	for _, p := range pts {
		if p.DesignKey != "" {
			known[p.cacheKey()] = struct{}{}
		}
	}
	entries, corrupt := e.journal.Entries()
	st := ResumeStats{Corrupt: corrupt}
	for _, ent := range entries {
		if _, ok := known[ent.Key]; !ok {
			st.SkippedUnknown++
			metrics.Add("campaign.journal.skipped", 1)
			continue
		}
		if !e.cache.Put(ent.Key, ent.Res, ent.Steps) {
			st.Duplicate++
			e.journal.markSeen(ent.Key)
			continue
		}
		e.journal.markSeen(ent.Key)
		st.Replayed++
		metrics.Add("campaign.journal.replayed", 1)
		// Re-count the journaled speculation outcome: the resumed
		// campaign's predictor accounting must match the uninterrupted
		// run's, and the replayed point will never recompute to count
		// itself.
		countSpec(ent.Spec)
	}
	return st, nil
}

// Resume is Run preceded by a journal replay: every point already
// completed by the interrupted campaign is served from the journal
// (with its step records replayed to the Observer, like any memoized
// point), and only the remainder is computed. Because a flow run is a
// pure function of its point and results land by index, the resumed
// output is bit-identical to an uninterrupted run at any worker count.
func (e *Engine) Resume(ctx context.Context, pts []Point) ([]*flow.Result, ResumeStats, error) {
	st, err := e.Replay(pts)
	if err != nil {
		return nil, st, err
	}
	res, err := e.Run(ctx, pts)
	return res, st, err
}
