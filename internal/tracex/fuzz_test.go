package tracex

import "testing"

// FuzzParseTraceparent fuzzes the W3C traceparent parser, which reads
// a header from another process on every traced request. Parsing must
// never panic, and any value it accepts must yield a SpanContext that
// survives a format/parse round trip unchanged. The seed corpus lives
// in testdata/fuzz/FuzzParseTraceparent; `make fuzz-smoke` runs a
// short fuzz.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		sc, ok := ParseTraceparent(v)
		if !ok {
			return
		}
		wire := FormatTraceparent(sc)
		if got, ok := ParseTraceparent(wire); !ok || got != sc {
			t.Fatalf("ParseTraceparent(%q) = %+v, but its form %q parses to %+v (ok=%v)", v, sc, wire, got, ok)
		}
	})
}
