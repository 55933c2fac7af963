package studysvc

import (
	"context"
	"net/http"
	"strings"
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
