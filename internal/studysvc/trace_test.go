package studysvc

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/tracex"
)

// findSpan returns the first span in tr named name, or nil.
func findSpan(tr *tracex.Trace, name string) *tracex.SpanRecord {
	for i := range tr.Spans {
		if tr.Spans[i].Name == name {
			return &tr.Spans[i]
		}
	}
	return nil
}

// fetchTraceWith fetches trace id once and fails unless it contains a
// span named want. A single fetch is enough: the client reads every
// reply to EOF, which the server sends only after its request span has
// ended (TestClientReturnsAfterRequestSpan pins that ordering).
func fetchTraceWith(t *testing.T, c *Client, id, want string) *tracex.Trace {
	t.Helper()
	tr, err := c.Trace(context.Background(), id)
	if err != nil {
		t.Fatalf("server never recorded trace %s: %v", id, err)
	}
	if findSpan(tr, want) == nil {
		t.Fatalf("trace %s has no %q span", id, want)
	}
	return tr
}

// TestClientReturnsAfterRequestSpan pins the ordering every trace
// reader relies on: when a Client call returns, the server's request
// span for it is already in the ring. The request middleware ends its
// span after the handler returns but before net/http finishes the
// response, and Client.do reads each reply to EOF, so an immediate
// fetch always sees the span. Without the drain, some fetches miss it.
func TestClientReturnsAfterRequestSpan(t *testing.T) {
	_, c := newTestService(t, Config{Tracer: tracex.New(tracex.Config{})})
	clientTracer := tracex.New(tracex.Config{})
	base := tracex.NewContext(context.Background(), clientTracer)
	for i := 0; i < 1000; i++ {
		ctx, span := tracex.StartSpan(base, "client call")
		if _, err := c.Run(ctx, tinyRequest(63)); err != nil {
			t.Fatal(err)
		}
		span.End()
		id := span.Context().Trace.String()
		tr, err := c.Trace(context.Background(), id)
		if err != nil {
			t.Fatalf("call %d: trace %s: %v", i, id, err)
		}
		if findSpan(tr, "http POST /v1/study") == nil {
			t.Fatalf("call %d: trace %s fetched before its request span was recorded", i, id)
		}
	}
}

// TestTracePropagation is the acceptance-criteria propagation test: a
// client-side span rides the traceparent header into the server, whose
// request, run and node spans all join the client's trace — one trace
// id spans both sides of the HTTP boundary, and the merged trace is a
// single tree rooted at the client span.
func TestTracePropagation(t *testing.T) {
	serverTracer := tracex.New(tracex.Config{IDs: tracex.NewSeqIDs(1000)})
	_, c := newTestService(t, Config{Tracer: serverTracer})

	clientTracer := tracex.New(tracex.Config{IDs: tracex.NewSeqIDs(1)})
	ctx := tracex.NewContext(context.Background(), clientTracer)
	ctx, span := tracex.StartSpan(ctx, "client call")
	if _, err := c.Run(ctx, tinyRequest(63)); err != nil {
		t.Fatal(err)
	}
	span.End()

	id := span.Context().Trace.String()
	remote := fetchTraceWith(t, c, id, "http POST /v1/study")
	if remote.TraceID != id {
		t.Fatalf("server trace id = %s, want the client's %s", remote.TraceID, id)
	}

	reqSpan := findSpan(remote, "http POST /v1/study")
	if reqSpan.Parent != span.Context().Span.String() {
		t.Errorf("server request span parent = %q, want the client span %s",
			reqSpan.Parent, span.Context().Span.String())
	}
	if findSpan(remote, "run") == nil || findSpan(remote, "synth") == nil {
		t.Error("server half of the trace is missing the run/synth spans")
	}
	var nodes int
	for _, s := range remote.Spans {
		if strings.HasPrefix(s.Name, "node ") {
			nodes++
		}
	}
	if nodes == 0 {
		t.Error("server half of the trace has no artefact node spans")
	}

	local, ok := clientTracer.Trace(id)
	if !ok {
		t.Fatal("client tracer lost its own trace")
	}
	merged := tracex.Merge(local, *remote)
	tree := merged.Tree()
	if len(tree) != 1 || tree[0].Name != "client call" {
		t.Fatalf("merged trace has %d roots, want 1 rooted at the client span", len(tree))
	}
}

// TestTraceEndpoints pins the ring's HTTP surface: the listing, the
// JSON and Perfetto fetch formats, and the 404s for unknown ids and
// for servers running without a tracer.
func TestTraceEndpoints(t *testing.T) {
	tracer := tracex.New(tracex.Config{IDs: tracex.NewSeqIDs(5)})
	_, c := newTestService(t, Config{Tracer: tracer})

	if _, err := c.Run(context.Background(), tinyRequest(64)); err != nil {
		t.Fatal(err)
	}
	ids, err := c.Traces(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("no trace recorded for the study request")
	}

	id := ids[len(ids)-1]
	tr, err := c.Trace(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != id || len(tr.Spans) == 0 {
		t.Fatalf("trace %s came back empty (%d spans)", id, len(tr.Spans))
	}

	export, err := c.TraceExport(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(export), `"traceEvents"`) {
		t.Error("perfetto export is not Chrome trace-event JSON")
	}

	if _, err := c.Trace(context.Background(), strings.Repeat("0", 32)); err == nil {
		t.Error("unknown trace id did not 404")
	} else if he, ok := err.(*HTTPError); !ok || he.Status != http.StatusNotFound {
		t.Errorf("unknown trace id error = %v, want 404", err)
	}

	_, un := newTestService(t, Config{})
	if _, err := un.Traces(context.Background()); err == nil {
		t.Error("untraced server's /v1/trace did not 404")
	} else if he, ok := err.(*HTTPError); !ok || he.Status != http.StatusNotFound {
		t.Errorf("untraced server error = %v, want 404", err)
	}
}

// lockedBuffer is a log sink the server goroutines write while the
// test reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestLogLinesAreSpanRecords pins the service log as a view of the
// trace: a traced service writes exactly one JSON line per request
// span and one per run span, each carrying the ids, duration and attrs
// of the record the tracer filed, and no line for node spans. Without
// a tracer the same logger writes nothing.
func TestLogLinesAreSpanRecords(t *testing.T) {
	t.Run("traced", func(t *testing.T) {
		var out lockedBuffer
		tr := tracex.New(tracex.Config{})
		_, c := newTestService(t, Config{Tracer: tr, Log: slog.New(slog.NewJSONHandler(&out, nil))})
		ctx := context.Background()
		fresh, err := c.Run(ctx, tinyRequest(67))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(ctx, tinyRequest(67)); err != nil { // cache hit: no run span
			t.Fatal(err)
		}
		if _, err := c.Stats(ctx); err != nil {
			t.Fatal(err)
		}

		logged := map[string]tracex.SpanRecord{} // span id → every span a line is due for
		for _, id := range tr.TraceIDs() {
			trace, _ := tr.Trace(id)
			for _, sp := range trace.Spans {
				if sp.Name == "run" || strings.HasPrefix(sp.Name, "http ") {
					logged[sp.SpanID] = sp
				}
			}
		}
		lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		if len(lines) != len(logged) || len(lines) != 4 {
			t.Fatalf("%d log lines for %d request/run spans, want 3 requests + 1 run:\n%s", len(lines), len(logged), out.String())
		}
		var runLine map[string]any
		originAt := map[string]int{} // request id → its line's index
		for i, line := range lines {
			var got map[string]any
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatalf("log line is not JSON: %v\n%s", err, line)
			}
			rec, ok := logged[got["span_id"].(string)]
			if !ok {
				t.Fatalf("log line for no request or run span: %s", line)
			}
			delete(logged, rec.SpanID)
			want := map[string]any{
				"time": got["time"], "level": "INFO", "msg": rec.Name,
				"trace_id": rec.TraceID, "span_id": rec.SpanID,
				"dur_ms": float64(rec.DurUS) / 1e3,
			}
			if rec.Parent != "" {
				want["parent_id"] = rec.Parent
			}
			for k, v := range rec.Attrs {
				want[k] = v
			}
			if len(got) != len(want) {
				t.Errorf("line has %d fields, the span record %d:\n%s", len(got), len(want), line)
			}
			for k, v := range want {
				if got[k] != v {
					t.Errorf("line field %s = %v, want %v:\n%s", k, got[k], v, line)
				}
			}
			if rec.Name == "run" {
				runLine = got
				if len(originAt) > 0 {
					t.Errorf("run line after a request line; the request waits on its run")
				}
			} else if id, _ := got["request_id"].(string); id != "" {
				originAt[id] = i
			}
		}
		if runLine["run"] != fresh.ID || runLine["status"] != StatusDone {
			t.Errorf("run line does not name run %s and its status: %v", fresh.ID, runLine)
		}
		if origin, _ := runLine["origin_request"].(string); originAt[origin] != 1 {
			t.Errorf("run line's origin_request %q is not the first request's id (%v)", origin, originAt)
		}
	})
	t.Run("untraced", func(t *testing.T) {
		var out lockedBuffer
		_, c := newTestService(t, Config{Log: slog.New(slog.NewJSONHandler(&out, nil))})
		if _, err := c.Run(context.Background(), tinyRequest(67)); err != nil {
			t.Fatal(err)
		}
		if s := out.String(); s != "" {
			t.Fatalf("untraced service logged:\n%s", s)
		}
	})
}
