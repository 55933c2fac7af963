package studysvc

// Observability spine: per-request ids, in-flight request tracking,
// the service log, the per-artefact-node view of the memo store's
// ledger and the admission-control queue. The service log is a view of
// the trace: each request span and each run span becomes one log line
// when it ends (logSpan), so an event is recorded once and read two
// ways.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/pipeline"
	"repro/internal/tracex"
)

// ErrSaturated is the admission-control rejection: the worker pool is
// full and the request exceeded the queue bound (depth or wait).
// Handlers map it to 429 + Retry-After.
var ErrSaturated = errors.New("study pool saturated")

// reqIDKey carries the request id in a request context.
type reqIDKey struct{}

// requestIDFrom returns the request id bound by the middleware, or "".
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// openRequest is one in-flight HTTP request, tracked so the server's
// graceful shutdown can say what it is waiting on.
type openRequest struct {
	method string
	path   string
	start  time.Time
}

// instrument wraps the API mux with the request middleware: it assigns
// (or adopts) a request id, binds the service tracer into the context,
// opens a request span (joined to the caller's trace when a
// traceparent header arrived, echoed back on the response so the
// caller learns the shared trace id), tracks the request in the open
// set and logs the ended span with its status.
func (s *Service) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.Header.Get("X-Request-ID")
		if id == "" {
			s.reqMu.Lock()
			s.nextReq++
			id = "r-" + strconv.Itoa(s.nextReq)
			s.reqMu.Unlock()
		}
		w.Header().Set("X-Request-ID", id)
		ctx := context.WithValue(req.Context(), reqIDKey{}, id)
		var span *tracex.Span
		// Reading the trace ring must not write to it: a span per
		// GET /v1/trace would make every fetch the newest trace.
		if !strings.HasPrefix(req.URL.Path, "/v1/trace") {
			ctx = tracex.NewContext(ctx, s.cfg.Tracer)
			if remote, ok := tracex.Extract(req.Header); ok {
				ctx = tracex.WithRemote(ctx, remote)
			}
			ctx, span = tracex.StartSpan(ctx, "http "+req.Method+" "+req.URL.Path)
			span.SetAttr("request_id", id)
			if sc := span.Context(); sc.IsValid() {
				w.Header().Set(tracex.TraceparentHeader, tracex.FormatTraceparent(sc))
			}
		}

		s.reqMu.Lock()
		s.openReqs[id] = openRequest{method: req.Method, path: req.URL.Path, start: time.Now()}
		s.reqMu.Unlock()
		defer func() {
			s.reqMu.Lock()
			delete(s.openReqs, id)
			s.reqMu.Unlock()
		}()

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, req.WithContext(ctx))
		span.SetAttr("status", strconv.Itoa(sw.code))
		s.logSpan(span.End())
	})
}

// logSpan writes one ended span as a service log line: the span name
// is the message, followed by the trace, span and parent ids, the
// duration and the span's attrs in sorted key order. A span carrying
// an error attr logs at error level. The zero record — tracing off, or
// a span already ended — writes nothing.
func (s *Service) logSpan(rec tracex.SpanRecord) {
	if s.cfg.Log == nil || rec.SpanID == "" {
		return
	}
	attrs := make([]slog.Attr, 0, 4+len(rec.Attrs))
	attrs = append(attrs, slog.String("trace_id", rec.TraceID), slog.String("span_id", rec.SpanID))
	if rec.Parent != "" {
		attrs = append(attrs, slog.String("parent_id", rec.Parent))
	}
	attrs = append(attrs, slog.Float64("dur_ms", float64(rec.DurUS)/1e3))
	for _, k := range slices.Sorted(maps.Keys(rec.Attrs)) {
		attrs = append(attrs, slog.String(k, rec.Attrs[k]))
	}
	level := slog.LevelInfo
	if _, failed := rec.Attrs["error"]; failed {
		level = slog.LevelError
	}
	s.cfg.Log.LogAttrs(s.cfg.BaseContext, level, rec.Name, attrs...)
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// InFlightRequests describes every HTTP request currently being
// served, oldest first — what a graceful shutdown is waiting on. Each
// entry reads "id METHOD /path (elapsed)".
func (s *Service) InFlightRequests() []string {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	type row struct {
		id string
		r  openRequest
	}
	rows := make([]row, 0, len(s.openReqs))
	for id, r := range s.openReqs {
		rows = append(rows, row{id, r})
	}
	sort.Slice(rows, func(i, j int) bool {
		if !rows[i].r.start.Equal(rows[j].r.start) {
			return rows[i].r.start.Before(rows[j].r.start)
		}
		return rows[i].id < rows[j].id
	})
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, r.id+" "+r.r.method+" "+r.r.path+
			" ("+time.Since(r.r.start).Round(time.Millisecond).String()+")")
	}
	return out
}

// admit reserves one worker-pool slot for a fresh run. The fast path
// takes a free slot immediately. When the pool is saturated, requests
// wait in a queue bounded two ways — at most MaxQueueDepth waiters,
// for at most MaxQueueWait each — and are shed with ErrSaturated
// beyond either bound, so saturation surfaces as fast 429s instead of
// unbounded queueing. Every successful admission records its queue
// wait in the stats histogram.
func (s *Service) admit(ctx context.Context) error {
	start := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.queueWait.Observe(time.Since(start))
		return nil
	default:
	}
	s.mu.Lock()
	if s.cfg.MaxQueueDepth < 1 || s.waiting >= s.cfg.MaxQueueDepth {
		s.stats.Shed++
		s.mu.Unlock()
		return fmt.Errorf("%w: queue full", ErrSaturated)
	}
	s.waiting++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.waiting--
		s.mu.Unlock()
	}()
	t := time.NewTimer(s.cfg.MaxQueueWait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		s.queueWait.Observe(time.Since(start))
		return nil
	case <-t.C:
		s.mu.Lock()
		s.stats.Shed++
		s.mu.Unlock()
		return fmt.Errorf("%w: no slot within %v", ErrSaturated, s.cfg.MaxQueueWait)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfterSeconds renders Config.RetryAfter as a Retry-After header
// value (whole seconds, rounded up, at least 1).
func (s *Service) retryAfterSeconds() int {
	secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// NodeStats is one artefact node's service-lifetime row of the shared
// memo store's ledger: how often it was answered from memo vs
// computed, and the compute latency distribution (memo hits are
// excluded from the histogram — they would pin every percentile at
// ~0).
type NodeStats struct {
	Name     string `json:"name"`
	MemoHits int64  `json:"memo_hits"`
	Computes int64  `json:"computes"`
	// P50MS / P95MS summarize the compute-latency distribution — the
	// two dashboard numbers — lifted out of the full histogram below.
	P50MS   float64                    `json:"p50_ms"`
	P95MS   float64                    `json:"p95_ms"`
	Latency pipeline.HistogramSnapshot `json:"latency"`
}

// nodeStats renders the memo store's ledger as /v1/stats rows, sorted
// by node name. The store records every node outcome as it resolves,
// so the rows need no folding of their own.
func (s *Service) nodeStats() []NodeStats {
	nodes := s.memo.Nodes()
	out := make([]NodeStats, len(nodes))
	for i, n := range nodes {
		out[i] = NodeStats{
			Name:     n.Name,
			MemoHits: n.Hits,
			Computes: n.Computes,
			P50MS:    n.Latency.P50MS,
			P95MS:    n.Latency.P95MS,
			Latency:  n.Latency,
		}
	}
	return out
}
