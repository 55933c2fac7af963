package tracex

import (
	"context"
	"encoding/hex"
	"net/http"
	"strings"
)

// TraceparentHeader is the W3C trace-context header carrying the
// caller's trace and span ids across an HTTP hop, in both directions:
// the client injects it on requests, and the server echoes the adopted
// trace on responses so the caller learns the shared trace id even
// when it did not start one.
const TraceparentHeader = "Traceparent"

// traceparentVersion and traceparentFlags pin the only version and
// flag byte this implementation speaks: version 00, flags 01
// ("sampled" — everything a deterministic tracer records is sampled).
const (
	traceparentVersion = "00"
	traceparentFlags   = "01"
)

// FormatTraceparent renders sc in W3C form:
// "00-<32 hex trace id>-<16 hex span id>-01". Empty for invalid sc.
func FormatTraceparent(sc SpanContext) string {
	if !sc.IsValid() {
		return ""
	}
	return traceparentVersion + "-" + sc.Trace.String() + "-" + sc.Span.String() + "-" + traceparentFlags
}

// ParseTraceparent parses the W3C form back into a SpanContext. The
// version field is accepted as any two hex digits except "ff"
// (per spec, unknown versions parse by the 00 layout).
func ParseTraceparent(v string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) < 4 || len(parts[0]) != 2 || parts[0] == "ff" {
		return SpanContext{}, false
	}
	if _, err := hex.DecodeString(parts[0]); err != nil {
		return SpanContext{}, false
	}
	rawTrace, err := hex.DecodeString(parts[1])
	if err != nil || len(rawTrace) != len(TraceID{}) {
		return SpanContext{}, false
	}
	rawSpan, err := hex.DecodeString(parts[2])
	if err != nil || len(rawSpan) != len(SpanID{}) {
		return SpanContext{}, false
	}
	var sc SpanContext
	copy(sc.Trace[:], rawTrace)
	copy(sc.Span[:], rawSpan)
	if !sc.IsValid() {
		return SpanContext{}, false
	}
	return sc, true
}

// Inject writes the current span's traceparent into h (no-op when ctx
// has no open span).
func Inject(ctx context.Context, h http.Header) {
	sc := SpanContextFromContext(ctx)
	if !sc.IsValid() {
		return
	}
	h.Set(TraceparentHeader, FormatTraceparent(sc))
}

// Extract reads a traceparent from h; ok is false when absent or
// malformed.
func Extract(h http.Header) (SpanContext, bool) {
	v := h.Get(TraceparentHeader)
	if v == "" {
		return SpanContext{}, false
	}
	return ParseTraceparent(v)
}
