package main

// The serve workloads drive an in-process study service (the same
// studysvc handler cmd/ewserve mounts) over one loopback keep-alive
// connection from one closed-loop caller.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/studysvc"
	"repro/internal/tracex"
)

// server is a study service listening on loopback plus the client the
// remote commands use (studysvc.Client, as behind ewreport -remote and
// ewsweep -remote) on one keep-alive connection.
type server struct {
	svc    *studysvc.Service
	http   *http.Server
	tr     *http.Transport
	client *studysvc.Client
	tracer *tracex.Tracer
	dials  atomic.Int64 // connections the client opened
	done   chan struct{}
}

// startServer starts a study service on loopback with its defaults
// (the caches the workloads are sized against). A traced server keeps
// a span ring deep enough for one study's crawl fetches, read back
// right after each request.
func startServer(traced bool) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var tracer *tracex.Tracer
	if traced {
		tracer = tracex.New(tracex.Config{MaxSpansPerTrace: 1 << 16})
	}
	svc := studysvc.New(studysvc.Config{Tracer: tracer})
	s := &server{svc: svc, http: &http.Server{Handler: svc.Handler()}, tracer: tracer, done: make(chan struct{})}
	var d net.Dialer
	s.tr = &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			s.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	s.client = studysvc.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: drainingTransport{s.tr}})
	// One caller never saturates the service; a 429 must show as a
	// failed op, not be retried away.
	s.client.MaxRetries = -1
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // always ErrServerClosed once close shuts it down
	}()
	return s, nil
}

func (s *server) close() {
	s.tr.CloseIdleConnections()
	// Every request has been answered by now, so shutdown has nothing
	// to wait for and no error to report.
	_ = s.http.Shutdown(context.Background())
	<-s.done
}

// drainingTransport reads each response body to its end before closing
// it. studysvc.Client closes a body as soon as its JSON value is
// decoded; when the end of the body has not been read by then, the
// transport drops the connection and the next request pays for a new
// one.
type drainingTransport struct{ http.RoundTripper }

func (t drainingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.RoundTripper.RoundTrip(req)
	if err == nil {
		resp.Body = drainOnClose{resp.Body}
	}
	return resp, err
}

type drainOnClose struct{ io.ReadCloser }

func (b drainOnClose) Close() error {
	io.Copy(io.Discard, b.ReadCloser)
	return b.ReadCloser.Close()
}

// study POSTs one study request and checks it completed, as
// cliutil.RunRemote does for ewreport -remote.
func (s *server) study(ctx context.Context, r studysvc.Request) (*studysvc.Envelope, error) {
	env, err := s.client.Run(ctx, r)
	if err != nil {
		return nil, err
	}
	if env.Status != studysvc.StatusDone {
		return nil, fmt.Errorf("run %s %s: %s", env.ID, env.Status, env.Error)
	}
	return env, nil
}

// oneConnection records a pass whose client did not keep to a single
// connection as a failed check: a redial would put connection set-up
// into the op latencies.
func (p *pass) oneConnection(s *server) {
	if n := s.dials.Load(); n != 1 {
		p.problem("the client opened %d connections, the workload uses one", n)
	}
}

// idle waits until every started run has finished its bookkeeping and
// returns the service counters (what GET /v1/stats serves). A run
// answers its requester before it files itself in the result cache, so
// a request sent right after may find it still in flight and coalesce
// instead of hitting the cache — the client waits it out after every
// request that started a run (outside the op's latency), so no outcome
// depends on how fast the server's goroutines were scheduled.
func (s *server) idle() studysvc.Stats {
	for {
		if st := s.svc.Stats(); st.InFlight == 0 {
			return st
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// serviceDeltas are the counters a pass moved, by the names the traced
// run reports them under.
func serviceDeltas(a, b studysvc.Stats) map[string]int64 {
	d := map[string]int64{
		"svc.runs_started": b.RunsStarted - a.RunsStarted,
		"svc.cache_hits":   b.CacheHits - a.CacheHits,
		"svc.coalesced":    b.Coalesced - a.Coalesced,
		"svc.evictions":    b.Evictions - a.Evictions,
		"svc.runs_failed":  b.RunsFailed - a.RunsFailed,
	}
	if a.Memo != nil && b.Memo != nil {
		d["memo.hits"] = b.Memo.Hits - a.Memo.Hits
		d["memo.computes"] = b.Memo.Computes - a.Memo.Computes
		d["memo.evictions"] = b.Memo.Evictions - a.Memo.Evictions
	}
	return d
}

// expectCounts records a predicted counter that disagrees with the
// service's own as a failed check.
func (p *pass) expectCounts(got map[string]int64, want map[string]int64) {
	for k, w := range want {
		if got[k] != w {
			p.problem("%s moved by %d, the op sequence predicts %d", k, got[k], w)
		}
	}
}

// traceSpans returns the spans of one request's trace.
func (s *server) traceSpans(id string) []tracex.SpanRecord {
	tr, ok := s.tracer.Trace(id)
	if !ok {
		return nil
	}
	return tr.Spans
}

// layerCounts copies the counters a traced run reports into its layers.
func (p *pass) layerCounts(deltas map[string]int64) {
	for _, l := range layerMetrics {
		if v, ok := deltas[l.name]; ok {
			p.layers[l.name] = float64(v)
		}
	}
}
