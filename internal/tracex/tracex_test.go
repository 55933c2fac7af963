package tracex

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"
)

// scriptClock returns a clock seam that advances a fixed step per call.
func scriptClock(step time.Duration) func() time.Time {
	base := time.Unix(1700000000, 0).UTC()
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * step)
		n++
		return t
	}
}

func newTestTracer(opts ...func(*Config)) *Tracer {
	cfg := Config{IDs: NewSeqIDs(7), Now: scriptClock(time.Millisecond)}
	for _, o := range opts {
		o(&cfg)
	}
	return New(cfg)
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if _, ok := tr.Trace("00000000000000000000000000000000"); ok {
		t.Fatal("nil tracer reported a trace")
	}
	if ids := tr.TraceIDs(); ids != nil {
		t.Fatalf("nil tracer TraceIDs = %v", ids)
	}
	var sp *Span
	sp.SetAttr("k", "v")
	sp.End()
	if sc := sp.Context(); sc.IsValid() {
		t.Fatal("nil span has a valid context")
	}
	ctx := NewContext(context.Background(), nil)
	ctx2, sp2 := StartSpan(ctx, "noop")
	if sp2 != nil {
		t.Fatal("StartSpan without tracer returned a span")
	}
	if ctx2 != ctx {
		t.Fatal("StartSpan without tracer rebuilt the context")
	}
}

func TestStartSpanDisabledAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		_, sp := StartSpan(ctx, "hot path")
		sp.SetAttr("k", "v")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan allocates %v times per call, want 0", allocs)
	}
}

func TestSpanTreeAndRing(t *testing.T) {
	tr := newTestTracer()
	ctx := NewContext(context.Background(), tr)
	ctx, root := StartSpan(ctx, "run")
	root.SetAttr("seed", "77")
	cctx, child := StartSpan(ctx, "node select")
	child.SetAttr("outcome", "compute")
	_, leaf := StartSpan(cctx, "crawl fetch")
	leaf.End()
	child.End()
	root.End()

	id := root.Context().Trace.String()
	got, ok := tr.Trace(id)
	if !ok {
		t.Fatalf("trace %s not in ring", id)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(got.Spans))
	}
	// Spans land sorted by start: run, node select, crawl fetch.
	if got.Spans[0].Name != "run" || got.Spans[1].Name != "node select" || got.Spans[2].Name != "crawl fetch" {
		t.Fatalf("span order: %s / %s / %s", got.Spans[0].Name, got.Spans[1].Name, got.Spans[2].Name)
	}
	if got.Spans[0].Parent != "" {
		t.Fatalf("root has parent %q", got.Spans[0].Parent)
	}
	if got.Spans[1].Parent != got.Spans[0].SpanID {
		t.Fatal("child not parented to root")
	}
	if got.Spans[2].Parent != got.Spans[1].SpanID {
		t.Fatal("leaf not parented to child")
	}
	if got.Spans[0].Attrs["seed"] != "77" {
		t.Fatalf("root attrs = %v", got.Spans[0].Attrs)
	}
	for _, s := range got.Spans {
		if s.TraceID != id {
			t.Fatalf("span %s trace id %s, want %s", s.Name, s.TraceID, id)
		}
		if s.DurUS <= 0 {
			t.Fatalf("span %s has non-positive duration %d", s.Name, s.DurUS)
		}
	}
}

func TestRingEvictsOldestTrace(t *testing.T) {
	tr := newTestTracer(func(c *Config) { c.MaxTraces = 2 })
	var ids []string
	for i := 0; i < 3; i++ {
		ctx := NewContext(context.Background(), tr)
		_, sp := StartSpan(ctx, "run")
		sp.End()
		ids = append(ids, sp.Context().Trace.String())
	}
	if _, ok := tr.Trace(ids[0]); ok {
		t.Fatal("oldest trace survived a full ring")
	}
	for _, id := range ids[1:] {
		if _, ok := tr.Trace(id); !ok {
			t.Fatalf("recent trace %s evicted", id)
		}
	}
	if got := tr.TraceIDs(); len(got) != 2 || got[0] != ids[1] || got[1] != ids[2] {
		t.Fatalf("TraceIDs = %v, want [%s %s]", got, ids[1], ids[2])
	}
}

func TestPerTraceSpanCap(t *testing.T) {
	tr := newTestTracer(func(c *Config) { c.MaxSpansPerTrace = 2 })
	ctx := NewContext(context.Background(), tr)
	ctx, root := StartSpan(ctx, "run")
	for i := 0; i < 3; i++ {
		_, sp := StartSpan(ctx, "leaf")
		sp.End()
	}
	root.End()
	got, ok := tr.Trace(root.Context().Trace.String())
	if !ok {
		t.Fatal("trace missing")
	}
	if len(got.Spans) != 2 || got.Dropped != 2 {
		t.Fatalf("got %d spans, %d dropped; want 2 spans, 2 dropped", len(got.Spans), got.Dropped)
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := newTestTracer()
	ctx := NewContext(context.Background(), tr)
	_, sp := StartSpan(ctx, "once")
	sp.End()
	sp.End()
	got, _ := tr.Trace(sp.Context().Trace.String())
	if len(got.Spans) != 1 {
		t.Fatalf("double End recorded %d spans", len(got.Spans))
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := newTestTracer()
	ctx := NewContext(context.Background(), tr)
	_, sp := StartSpan(ctx, "client")
	wire := FormatTraceparent(sp.Context())
	if !strings.HasPrefix(wire, "00-") || !strings.HasSuffix(wire, "-01") {
		t.Fatalf("traceparent %q not in W3C form", wire)
	}
	parts := strings.Split(wire, "-")
	if len(parts) != 4 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		t.Fatalf("traceparent %q field widths wrong", wire)
	}
	sc, ok := ParseTraceparent(wire)
	if !ok || sc != sp.Context() {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", sc, ok, sp.Context())
	}
	for _, bad := range []string{
		"", "00", "ff-" + parts[1] + "-" + parts[2] + "-01",
		"zz-" + parts[1] + "-" + parts[2] + "-01",
		"00-zzzz-" + parts[2] + "-01",
		"00-" + strings.Repeat("0", 32) + "-" + parts[2] + "-01",
		"00-" + parts[1] + "-" + strings.Repeat("0", 16) + "-01",
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("ParseTraceparent(%q) accepted", bad)
		}
	}
	sp.End()
}

func TestInjectExtract(t *testing.T) {
	tr := newTestTracer()
	ctx := NewContext(context.Background(), tr)
	h := http.Header{}
	Inject(ctx, h) // no open span: nothing to inject
	if h.Get(TraceparentHeader) != "" {
		t.Fatal("Inject wrote a header with no open span")
	}
	ctx, sp := StartSpan(ctx, "client request")
	Inject(ctx, h)
	sc, ok := Extract(h)
	if !ok || sc != sp.Context() {
		t.Fatalf("Extract = %+v ok=%v, want %+v", sc, ok, sp.Context())
	}
	sp.End()
}

func TestWithRemoteJoinsTrace(t *testing.T) {
	// Client side: mint a root span.
	client := newTestTracer()
	cctx := NewContext(context.Background(), client)
	cctx, csp := StartSpan(cctx, "client request")
	h := http.Header{}
	Inject(cctx, h)
	csp.End()

	// Server side: a different tracer adopts the propagated context.
	server := New(Config{IDs: NewSeqIDs(99), Now: scriptClock(time.Millisecond)})
	sctx := NewContext(context.Background(), server)
	remote, ok := Extract(h)
	if !ok {
		t.Fatal("no traceparent on the wire")
	}
	sctx = WithRemote(sctx, remote)
	_, ssp := StartSpan(sctx, "http POST /v1/run")
	ssp.End()

	if got, want := ssp.Context().Trace, csp.Context().Trace; got != want {
		t.Fatalf("server span trace %s, want client trace %s", got, want)
	}
	st, ok := server.Trace(csp.Context().Trace.String())
	if !ok {
		t.Fatal("server ring lacks the adopted trace")
	}
	if st.Spans[0].Parent != csp.Context().Span.String() {
		t.Fatal("server span not parented to the client span")
	}
}

func TestSeqIDsDistinctSeeds(t *testing.T) {
	a, b := NewSeqIDs(1), NewSeqIDs(2)
	if a.NewTraceID() == b.NewTraceID() {
		t.Fatal("differently seeded sources collided")
	}
	s := NewSeqIDs(5)
	if s.NewSpanID() == s.NewSpanID() {
		t.Fatal("span ids repeat")
	}
	if s.NewSpanID().IsZero() {
		t.Fatal("minted a zero span id")
	}
}

func TestMergeDedupes(t *testing.T) {
	shared := SpanRecord{TraceID: "t", SpanID: "0000000000000001", Name: "client request", StartUS: 10, DurUS: 50}
	a := Trace{TraceID: "t", Spans: []SpanRecord{shared}}
	b := Trace{TraceID: "t", Spans: []SpanRecord{
		shared,
		{TraceID: "t", SpanID: "0000000000000002", Parent: "0000000000000001", Name: "http POST /v1/run", StartUS: 20, DurUS: 30},
	}}
	m := Merge(a, b)
	if len(m.Spans) != 2 {
		t.Fatalf("merge kept %d spans, want 2", len(m.Spans))
	}
	if m.Spans[0].Name != "client request" || m.Spans[1].Name != "http POST /v1/run" {
		t.Fatalf("merge order wrong: %s / %s", m.Spans[0].Name, m.Spans[1].Name)
	}
}

func TestChromeTraceShape(t *testing.T) {
	tr := newTestTracer()
	ctx := NewContext(context.Background(), tr)
	ctx, root := StartSpan(ctx, "run")
	_, leaf := StartSpan(ctx, "node select")
	leaf.End()
	root.End()
	got, _ := tr.Trace(root.Context().Trace.String())
	out := string(got.ChromeTrace())
	for _, want := range []string{`"traceEvents"`, `"ph":"b"`, `"ph":"e"`, `"node select"`, `"parent"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome export missing %s:\n%s", want, out)
		}
	}
}

func TestTreeAggregatesSiblings(t *testing.T) {
	tr := newTestTracer()
	ctx := NewContext(context.Background(), tr)
	ctx, root := StartSpan(ctx, "run")
	cctx, crawl := StartSpan(ctx, "node crawl")
	for i := 0; i < 3; i++ {
		_, f := StartSpan(cctx, "crawl fetch")
		f.End()
	}
	crawl.End()
	root.End()
	got, _ := tr.Trace(root.Context().Trace.String())
	nodes := got.Tree()
	if len(nodes) != 1 || nodes[0].Name != "run" {
		t.Fatalf("roots = %+v", nodes)
	}
	kids := nodes[0].Children
	if len(kids) != 1 || kids[0].Name != "node crawl" {
		t.Fatalf("run children = %+v", kids)
	}
	fetch := kids[0].Children
	if len(fetch) != 1 || fetch[0].Name != "crawl fetch" || fetch[0].Count != 3 {
		t.Fatalf("crawl children = %+v", fetch)
	}
	if !strings.Contains(got.RenderTree(), "node crawl") {
		t.Fatal("RenderTree lost the crawl span")
	}
}
