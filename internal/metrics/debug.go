package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/trace"
)

// Values is the process-wide registry of plain-value histograms
// (predict.tolerr.<stage> and friends), the distribution counterpart of
// Default: counters count events, these hold how big they were.
var Values = trace.NewHistSet("")

// MountDebug serves the live introspection surface on mux — the one
// debug mount of every process: the METRICS server, dist workers and
// dist stores.
//
//	/metrics      every counter ("name value") then every histogram line
//	/debug/spans  JSON snapshot of the tracer: in-flight spans (what the
//	              process is doing right now) and recent finished spans
//	/debug/hist   the histogram lines alone
//	/debug/pprof/ the standard net/http/pprof handlers
//
// reg, when non-nil, is a process-local counter registry rendered ahead
// of Default. tracer picks the tracer to introspect; nil means whatever
// tracer is armed process-wide at request time.
func MountDebug(mux *http.ServeMux, reg *Counters, tracer func() *trace.Tracer) {
	if tracer == nil {
		tracer = trace.Active
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeCounters(w, reg)
		writeHists(w, tracer())
	})
	mux.HandleFunc("/debug/hist", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeHists(w, tracer())
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		handleSpans(w, r, tracer())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// writeCounters renders the counter half of the exposition: reg (when
// non-nil), then the process-wide Default.
func writeCounters(w io.Writer, reg *Counters) {
	if reg != nil {
		reg.Write(w)
	}
	Default.Write(w)
}

// writeHists renders the histogram half: the process-wide value
// histograms, then tr's per-span-name latency histograms.
func writeHists(w io.Writer, tr *trace.Tracer) {
	Values.Write(w)
	if tr == nil {
		fmt.Fprintln(w, "# tracing off (run with -trace or trace.Enable)")
		return
	}
	tr.Histograms().Write(w)
}

// spansResponse is the /debug/spans JSON shape.
type spansResponse struct {
	Enabled bool       `json:"enabled"`
	Live    []liveSpan `json:"live,omitempty"`
	Done    []doneSpan `json:"done,omitempty"`
	Dropped int64      `json:"dropped,omitempty"`
}

type liveSpan struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	AgeUs  float64 `json:"age_us"`
}

type doneSpan struct {
	ID      uint64            `json:"id"`
	Parent  uint64            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartUs float64           `json:"start_us"`
	DurUs   float64           `json:"dur_us"`
	Outcome string            `json:"outcome"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// handleSpans renders t's in-flight spans (oldest first — a wedged
// stage shows up at the top with a growing age) plus up to ?n= most
// recent finished spans (default 100).
func handleSpans(w http.ResponseWriter, r *http.Request, t *trace.Tracer) {
	w.Header().Set("Content-Type", "application/json")
	if t == nil {
		json.NewEncoder(w).Encode(spansResponse{Enabled: false}) //nolint:errcheck
		return
	}
	limit := 100
	if q := r.URL.Query().Get("n"); q != "" {
		if n, err := strconv.Atoi(q); err == nil && n >= 0 {
			limit = n
		}
	}
	resp := spansResponse{Enabled: true}
	for _, ls := range t.Live() {
		resp.Live = append(resp.Live, liveSpan{
			ID: ls.ID, Parent: ls.Parent, Name: ls.Name,
			AgeUs: float64(ls.Age.Nanoseconds()) / 1e3,
		})
	}
	done, dropped := t.Snapshot()
	resp.Dropped = dropped
	if len(done) > limit {
		resp.Dropped += int64(len(done) - limit)
		done = done[len(done)-limit:] // keep the most recent
	}
	for _, sd := range done {
		ds := doneSpan{
			ID: sd.ID, Parent: sd.Parent, Name: sd.Name,
			StartUs: float64(sd.Start.Nanoseconds()) / 1e3,
			DurUs:   float64(sd.Dur.Nanoseconds()) / 1e3,
			Outcome: string(sd.Outcome),
		}
		if len(sd.Attrs) > 0 {
			ds.Attrs = make(map[string]string, len(sd.Attrs))
			for _, a := range sd.Attrs {
				ds.Attrs[a.Key] = a.Val
			}
		}
		resp.Done = append(resp.Done, ds)
	}
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}
