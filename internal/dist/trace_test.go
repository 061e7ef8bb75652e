package dist

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func attr(sd trace.SpanData, key string) string {
	for _, a := range sd.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// TestRPCRetryTraceAdoption is the satellite contract: when an RPC is
// retried, the stitched trace shows exactly one dist.rpc span per
// logical attempt, the server-side span parents under the attempt that
// actually carried it, and no span is orphaned.
func TestRPCRetryTraceAdoption(t *testing.T) {
	tr := trace.New(0)
	trace.Enable(tr)
	defer trace.Disable()

	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if n <= 2 {
			rw.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		// The real worker/store handlers do exactly this: adopt the
		// attempt's identity from the headers, then span the server work.
		_, sp := trace.Start(trace.AdoptHTTP(r.Context(), r.Header), "server.work")
		sp.End()
		rw.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	r := newRPC(RPCConfig{BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond}, "store")
	defer r.closeIdle()
	ctx, root := tr.StartOn(context.Background(), "caller")
	res, err := r.do(ctx, "test.op", http.MethodGet, srv.URL, nil, 1<<20, false)
	root.End()
	if err != nil || res.status != http.StatusOK {
		t.Fatalf("rpc: status=%d err=%v", res.status, err)
	}

	spans, _ := tr.Snapshot()
	byID := map[uint64]trace.SpanData{}
	var attempts, server []trace.SpanData
	for _, sd := range spans {
		byID[sd.ID] = sd
		switch sd.Name {
		case "dist.rpc":
			attempts = append(attempts, sd)
		case "server.work":
			server = append(server, sd)
		}
	}

	// Exactly one span per logical attempt: two 503s + one 200.
	if len(attempts) != 3 {
		t.Fatalf("got %d dist.rpc spans, want 3 (one per attempt): %+v", len(attempts), attempts)
	}
	outcomes := map[trace.Outcome]int{}
	var okAttempt trace.SpanData
	for _, a := range attempts {
		outcomes[a.Outcome]++
		if a.Outcome == trace.OK {
			okAttempt = a
		}
		if a.Parent != root.ID() {
			t.Fatalf("attempt span parent = %d, want caller %d", a.Parent, root.ID())
		}
	}
	if outcomes[trace.Retry] != 2 || outcomes[trace.OK] != 1 {
		t.Fatalf("attempt outcomes = %v, want 2 retries + 1 ok", outcomes)
	}
	if got := attr(okAttempt, "attempt"); got != "2" {
		t.Fatalf("succeeding attempt attr = %q, want \"2\"", got)
	}

	// The server-side span exists once and parents under the succeeding
	// attempt — not the first attempt, not the caller.
	if len(server) != 1 {
		t.Fatalf("got %d server.work spans, want 1", len(server))
	}
	if server[0].Parent != okAttempt.ID {
		t.Fatalf("server span parent = %d, want succeeding attempt %d", server[0].Parent, okAttempt.ID)
	}

	// No orphans: every non-root span's parent is in the snapshot.
	for _, sd := range spans {
		if sd.Parent == 0 {
			continue
		}
		if _, ok := byID[sd.Parent]; !ok {
			t.Fatalf("span %q (%d) orphaned: parent %d not in trace", sd.Name, sd.ID, sd.Parent)
		}
	}
}

// TestNodeDebugEndpoints: every worker and store process serves the
// shared debug mount — /metrics (live counters + histograms),
// /debug/spans, /debug/hist and the stock pprof set.
func TestNodeDebugEndpoints(t *testing.T) {
	metrics.Add("dist.rpc.retried", 1)                  // ensure the counter exists in the dump
	metrics.Values.Observe("dist.test.node_debug", 0.5) // and a value histogram line
	cl := startCluster(t, sweepPoints(tinyDesign(1), 1, 1), 1, nil)
	nodes := []struct{ name, url string }{
		{"worker", cl.nodes[0].URL},
		{"store", "http://" + cl.server.Addr()},
	}
	paths := []struct{ path, want string }{
		{"/metrics", "dist.rpc.retried"},
		{"/metrics", "dist.test.node_debug count="},
		{"/debug/spans", `"enabled"`},
		{"/debug/hist", "dist.test.node_debug count="},
		{"/debug/pprof/", "goroutine"},
		{"/debug/pprof/cmdline", ""},
	}
	for _, n := range nodes {
		for _, p := range paths {
			resp, err := http.Get(n.url + p.path)
			if err != nil {
				t.Fatalf("%s %s: %v", n.name, p.path, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s status = %d", n.name, p.path, resp.StatusCode)
			}
			if !strings.Contains(string(body), p.want) {
				t.Fatalf("%s %s missing %q:\n%.500s", n.name, p.path, p.want, body)
			}
		}
	}
}
