package metrics

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/trace"
)

// Server is the METRICS collection server: it accepts XML records over
// HTTP and serves queries — the central box of Fig. 11. (The original
// used Java servlets and EJB; "reimplementing METRICS with today's
// commodity networking ... will be much simpler", and it is.)
//
// Beyond record collection it is the live introspection surface of a
// running campaign: /stats (legacy one-line summary + counter dump) and
// the shared debug mount (MountDebug: /metrics, /debug/spans,
// /debug/hist, /debug/pprof/).
type Server struct {
	Store *Store

	// Reg is the server's own counter registry (accepted/rejected
	// records live here, so counter dumps and Received always agree).
	// NewServer creates a fresh one; the /metrics and /stats endpoints
	// render it alongside the process-wide Default registry.
	Reg *Counters

	// Trace overrides the tracer the /debug endpoints introspect
	// (default: whatever tracer is armed process-wide at request time).
	Trace *trace.Tracer

	// FrontDoor, when non-nil, mounts the campaign submission service
	// (/v1/campaigns...) on this server. Set it before Start.
	FrontDoor *FrontDoor

	// Aux mounts extra handlers by pattern before Start — how the span
	// collector ("/v1/spans") and the METRICS warehouse ("/warehouse/")
	// ride on this server without this package importing them.
	Aux map[string]http.Handler

	// mu guards the serve/close lifecycle so Start, Close and in-flight
	// handlers can race freely: Close is idempotent, Start after Close
	// fails instead of leaking a listener, and a handler that runs
	// during Close still sees the non-nil Store and Reg it started with.
	mu       sync.Mutex
	closed   bool
	httpSrv  *http.Server
	listener net.Listener
}

// Counter names for the collection path, registered in Server.Reg per
// the subsystem.noun.verb scheme.
const (
	counterReceived = "metrics.server.record.received"
	counterRejected = "metrics.server.record.rejected"
)

// maxBodyBytes caps every request body the server decodes (/collect
// and POST /v1/campaigns).
const maxBodyBytes = 1 << 20

// NewServer creates a server around a store (a fresh store if nil).
func NewServer(store *Store) *Server {
	if store == nil {
		store = NewStore()
	}
	return &Server{Store: store, Reg: NewCounters()}
}

// Start begins listening on addr ("127.0.0.1:0" for an ephemeral port)
// and returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", fmt.Errorf("metrics: server is closed")
	}
	if s.httpSrv != nil {
		return "", fmt.Errorf("metrics: server already started")
	}
	// Guard the zero-value Server: handlers must never see a nil store
	// or registry, no matter how the struct was built.
	if s.Store == nil {
		s.Store = NewStore()
	}
	if s.Reg == nil {
		s.Reg = NewCounters()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.listener = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/collect", s.handleCollect)
	mux.HandleFunc("/records", s.handleRecords)
	mux.HandleFunc("/stats", s.handleStats)
	MountDebug(mux, s.Reg, s.tracer)
	if s.FrontDoor != nil {
		s.FrontDoor.mount(mux)
	}
	for pattern, h := range s.Aux {
		mux.Handle(pattern, h)
	}
	s.httpSrv = &http.Server{Handler: mux}
	go s.httpSrv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return ln.Addr().String(), nil
}

// Close shuts the server down: the front door first (its streams and
// dispatcher hold handler goroutines open), then the HTTP server.
// Idempotent, and safe to race with Start and with in-flight requests —
// a Close that wins the race leaves Start returning an error rather
// than a leaked listener.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	srv, fd := s.httpSrv, s.FrontDoor
	s.mu.Unlock()
	if fd != nil {
		fd.Close()
	}
	if srv != nil {
		return srv.Close()
	}
	return nil
}

// Received reports how many records were accepted and how many
// rejected, reading the same registry counters the dumps render.
func (s *Server) Received() (accepted, rejected int64) {
	return s.Reg.Get(counterReceived), s.Reg.Get(counterRejected)
}

// tracer resolves the tracer the /debug endpoints introspect.
func (s *Server) tracer() *trace.Tracer {
	if s.Trace != nil {
		return s.Trace
	}
	return trace.Active()
}

func (s *Server) handleCollect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		s.Reg.Add(counterRejected, 1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rec, err := DecodeXML(body)
	if err != nil {
		s.Reg.Add(counterRejected, 1)
		http.Error(w, fmt.Sprintf("bad record: %v", err), http.StatusBadRequest)
		return
	}
	s.Store.Add(rec)
	s.Reg.Add(counterReceived, 1)
	w.WriteHeader(http.StatusAccepted)
}

// recordList wraps query results for XML responses.
type recordList struct {
	XMLName xml.Name `xml:"records"`
	Records []Record `xml:"record"`
}

func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	f := Filter{
		Design: r.URL.Query().Get("design"),
		Step:   r.URL.Query().Get("step"),
	}
	out, err := xml.Marshal(recordList{Records: s.Store.Query(f)})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	w.Write(out) //nolint:errcheck
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	acc, rej := s.Received()
	fmt.Fprintf(w, "records=%d accepted=%d rejected=%d\n", s.Store.Len(), acc, rej)
	writeCounters(w, s.Reg)
}

// Transmitter posts records to a METRICS server as XML over HTTP — the
// wrapper/API side of Fig. 11. It implements flow.Observer so a flow can
// be instrumented by passing it to flow.RunObserved.
type Transmitter struct {
	URL    string // e.g. "http://127.0.0.1:port"
	Client *http.Client

	sent   atomic.Int64
	failed atomic.Int64
}

// NewTransmitter creates a transmitter for a server base URL.
func NewTransmitter(baseURL string) *Transmitter {
	return &Transmitter{URL: baseURL, Client: &http.Client{}}
}

// Transmit sends one record.
func (t *Transmitter) Transmit(rec Record) error {
	sp := trace.Begin("metrics.transmit")
	err := t.transmit(rec)
	sp.EndErr(err)
	return err
}

func (t *Transmitter) transmit(rec Record) error {
	data, err := EncodeXML(rec)
	if err != nil {
		t.failed.Add(1)
		return err
	}
	resp, err := t.Client.Post(t.URL+"/collect", "application/xml", bytes.NewReader(data))
	if err != nil {
		t.failed.Add(1)
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	if resp.StatusCode != http.StatusAccepted {
		t.failed.Add(1)
		return fmt.Errorf("metrics: server returned %s", resp.Status)
	}
	t.sent.Add(1)
	return nil
}

// OnStep implements flow.Observer: each step record is converted and
// transmitted; failures are counted, not fatal (collection must never
// break the flow).
func (t *Transmitter) OnStep(rec flow.StepRecord) {
	t.Transmit(FromStep(rec)) //nolint:errcheck
}

// Counts reports transmitted and failed record counts.
func (t *Transmitter) Counts() (sent, failed int64) {
	return t.sent.Load(), t.failed.Load()
}

// QueryRecords fetches records from a server over HTTP.
func QueryRecords(baseURL string, f Filter) ([]Record, error) {
	url := fmt.Sprintf("%s/records?design=%s&step=%s", baseURL, f.Design, f.Step)
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var list recordList
	if err := xml.Unmarshal(body, &list); err != nil {
		return nil, err
	}
	return list.Records, nil
}
