// Package tracex is the service spine's span tracer and its one event
// stream. A span records that "node crawl computed in 300ms" *under
// which request, run and parent stage* it did — the span tree over one
// trace is the study's actual execution DAG with wall time on every
// edge, which is what the critical-path analyzer (critpath.go)
// consumes to answer "what dominates a cold start". The study
// service's log is a view of the same records: End returns the record
// it filed, and the service writes its request and run spans out as
// log lines.
//
// The design constraints:
//
//   - a nil *Tracer — and a context with no tracer bound — is a
//     complete no-op: StartSpan returns a nil *Span whose every method
//     is safe, and the disabled path allocates nothing (pinned by
//     TestStartSpanDisabledAllocs), so library code traces
//     unconditionally;
//   - identifiers and timestamps come from injectable seams (IDSource,
//     Config.Now), so tests pin byte-stable traces and the study path
//     stays deterministic;
//   - completed spans land in a bounded ring of recent traces — the
//     GET /v1/trace/{id} source — with per-trace span caps, so a
//     long-lived server's tracing memory is a constant.
//
// Spans propagate across processes with a W3C-style traceparent header
// (propagate.go): studysvc.Client injects, the server adopts, and a
// remote sweep renders as one trace spanning client and server.
package tracex

import (
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one trace: every span caused by one root request
// carries the same TraceID, across processes.
type TraceID [16]byte

// IsZero reports whether the id is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the id as 32 lowercase hex digits (the traceparent
// wire form).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the id is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagatable part of a span: enough to parent a
// child — locally or on the far side of an HTTP hop.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// IsValid reports whether the context names a real span.
func (sc SpanContext) IsValid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// IDSource mints trace and span ids. Implementations must be safe for
// concurrent use.
type IDSource interface {
	NewTraceID() TraceID
	NewSpanID() SpanID
}

// SeqIDs is the deterministic IDSource: ids are a seed plus a
// monotonic counter, so a test (or a reproducible CLI run) gets the
// same ids every time. Give concurrent processes distinct seeds — the
// seed occupies the top half of every id, so two differently-seeded
// sources can never collide.
type SeqIDs struct {
	seed     uint64
	traceCtr atomic.Uint64
	spanCtr  atomic.Uint64
}

// NewSeqIDs returns a counter-based id source under the given seed.
func NewSeqIDs(seed uint64) *SeqIDs { return &SeqIDs{seed: seed} }

func putBE(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// NewTraceID mints the next trace id: seed in the top 8 bytes, counter
// (from 1) in the bottom 8.
func (s *SeqIDs) NewTraceID() TraceID {
	var t TraceID
	putBE(t[:8], s.seed)
	putBE(t[8:], s.traceCtr.Add(1))
	return t
}

// NewSpanID mints the next span id (counter from 1; the zero SpanID
// means "no parent" and is never issued).
func (s *SeqIDs) NewSpanID() SpanID {
	var id SpanID
	putBE(id[:], s.spanCtr.Add(1))
	return id
}

// Defaults for Config.
const (
	DefaultMaxTraces        = 64
	DefaultMaxSpansPerTrace = 4096
)

// Config tunes a Tracer.
type Config struct {
	// IDs mints trace/span ids (default: NewSeqIDs(1)).
	IDs IDSource
	// MaxTraces bounds the ring of recent traces (default 64): when a
	// new trace's first span arrives at a full ring, the oldest trace
	// is dropped whole.
	MaxTraces int
	// MaxSpansPerTrace caps the spans retained per trace (default
	// 4096); further spans are counted in Trace.Dropped, not stored.
	MaxSpansPerTrace int
	// Now is the clock seam; tests pin it for byte-stable traces (nil
	// = time.Now).
	Now func() time.Time
}

// Tracer records completed spans into a bounded ring of recent traces.
// A nil *Tracer is a valid no-op. Create with New.
type Tracer struct {
	ids      IDSource
	now      func() time.Time
	maxTrace int
	maxSpans int

	mu     sync.Mutex
	traces map[TraceID]*bucket
	order  []TraceID // arrival order, oldest first
}

// bucket holds one trace's recorded spans.
type bucket struct {
	spans   []SpanRecord
	dropped int
}

// New builds a tracer.
func New(cfg Config) *Tracer {
	if cfg.IDs == nil {
		cfg.IDs = NewSeqIDs(1)
	}
	if cfg.MaxTraces <= 0 {
		cfg.MaxTraces = DefaultMaxTraces
	}
	if cfg.MaxSpansPerTrace <= 0 {
		cfg.MaxSpansPerTrace = DefaultMaxSpansPerTrace
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Tracer{
		ids:      cfg.IDs,
		now:      cfg.Now,
		maxTrace: cfg.MaxTraces,
		maxSpans: cfg.MaxSpansPerTrace,
		traces:   make(map[TraceID]*bucket),
	}
}

// attr is one span key/value pair; values are strings so a trace
// serializes canonically (encoding/json sorts the map form).
type attr struct {
	key, value string
}

// Span is one in-flight timed operation. A nil *Span (what StartSpan
// returns when no tracer is bound) is a complete no-op.
type Span struct {
	tracer *Tracer
	name   string
	sc     SpanContext
	parent SpanID
	start  time.Time

	mu    sync.Mutex
	attrs []attr
	ended bool
}

// Context returns the span's propagatable identity (zero for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetAttr attaches a key/value pair to the span. Later values win on
// duplicate keys. Safe on nil and after End (then a no-op).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].value = value
			return
		}
	}
	s.attrs = append(s.attrs, attr{key, value})
}

// End completes the span, records it into the tracer's ring and
// returns the record it filed — the one event a log line about the
// span is built from. The returned Attrs map is the filed record's
// own, so callers read it and never write it. Idempotent; a nil span,
// or a second End, returns the zero record.
func (s *Span) End() SpanRecord {
	if s == nil {
		return SpanRecord{}
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return SpanRecord{}
	}
	s.ended = true
	rec := SpanRecord{
		TraceID: s.sc.Trace.String(),
		SpanID:  s.sc.Span.String(),
		Name:    s.name,
		StartUS: s.start.UnixMicro(),
		DurUS:   s.tracer.now().Sub(s.start).Microseconds(),
	}
	if !s.parent.IsZero() {
		rec.Parent = s.parent.String()
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			rec.Attrs[a.key] = a.value
		}
	}
	s.mu.Unlock()
	s.tracer.record(s.sc.Trace, rec)
	return rec
}

// startSpan opens a span under parent (zero parent starts a new trace).
func (t *Tracer) startSpan(parent SpanContext, name string) *Span {
	sc := SpanContext{Trace: parent.Trace, Span: t.ids.NewSpanID()}
	if sc.Trace.IsZero() {
		sc.Trace = t.ids.NewTraceID()
	}
	return &Span{
		tracer: t,
		name:   name,
		sc:     sc,
		parent: parent.Span,
		start:  t.now(),
	}
}

// record files one completed span under its trace, evicting the oldest
// trace when the ring is full and counting spans beyond the per-trace
// cap instead of storing them.
func (t *Tracer) record(tid TraceID, rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.traces[tid]
	if b == nil {
		b = &bucket{}
		t.traces[tid] = b
		t.order = append(t.order, tid)
		for len(t.order) > t.maxTrace {
			delete(t.traces, t.order[0])
			t.order = t.order[1:]
		}
	}
	if len(b.spans) >= t.maxSpans {
		b.dropped++
		return
	}
	b.spans = append(b.spans, rec)
}

// SpanRecord is one completed span in wire form.
type SpanRecord struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	// Parent is the parent span's id ("" for a root span).
	Parent string `json:"parent_id,omitempty"`
	Name   string `json:"name"`
	// StartUS is the span's start as microseconds since the Unix epoch;
	// DurUS its duration in microseconds.
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Trace is the GET /v1/trace/{id} wire form: every recorded span of
// one trace, sorted by start time (span id breaking ties).
type Trace struct {
	TraceID string       `json:"trace_id"`
	Spans   []SpanRecord `json:"spans"`
	// Dropped counts spans beyond the per-trace cap that were discarded.
	Dropped int `json:"dropped,omitempty"`
}

// Trace snapshots the recorded spans of the trace with the given
// (32-hex-digit) id; ok reports whether the ring holds it. Safe on a
// nil tracer (never ok).
func (t *Tracer) Trace(id string) (Trace, bool) {
	if t == nil {
		return Trace{}, false
	}
	raw, err := hex.DecodeString(id)
	if err != nil || len(raw) != len(TraceID{}) {
		return Trace{}, false
	}
	var tid TraceID
	copy(tid[:], raw)
	t.mu.Lock()
	b := t.traces[tid]
	if b == nil {
		t.mu.Unlock()
		return Trace{}, false
	}
	out := Trace{TraceID: id, Spans: make([]SpanRecord, len(b.spans)), Dropped: b.dropped}
	copy(out.Spans, b.spans)
	t.mu.Unlock()
	sortSpans(out.Spans)
	return out, true
}

// TraceIDs lists the ring's trace ids, oldest first.
func (t *Tracer) TraceIDs() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.order))
	for i, tid := range t.order {
		out[i] = tid.String()
	}
	return out
}

// sortSpans orders spans by start time, then span id — a deterministic
// order however the concurrent evaluation interleaved.
func sortSpans(spans []SpanRecord) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartUS != spans[j].StartUS {
			return spans[i].StartUS < spans[j].StartUS
		}
		return spans[i].SpanID < spans[j].SpanID
	})
}

// Merge combines span sets that share one trace id — the client-side
// and server-side halves of a propagated trace — deduplicating by span
// id. The receiver's TraceID wins; spans from other traces are kept
// too (callers merge what they fetched).
func Merge(a, b Trace) Trace {
	out := Trace{TraceID: a.TraceID, Dropped: a.Dropped + b.Dropped}
	seen := make(map[string]bool, len(a.Spans)+len(b.Spans))
	for _, s := range append(append([]SpanRecord{}, a.Spans...), b.Spans...) {
		if seen[s.SpanID] {
			continue
		}
		seen[s.SpanID] = true
		out.Spans = append(out.Spans, s)
	}
	sortSpans(out.Spans)
	return out
}
