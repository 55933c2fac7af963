package reverse

import (
	"strings"
	"testing"

	"repro/internal/imagex"
)

// FuzzParseHash128 fuzzes the /searchhash wire format, the one reverse
// search input that crosses a process boundary. Parsing must never
// panic, every hash must survive a format/parse round trip, and any
// string the parser accepts must be the canonical (lower-case) form of
// the hash it yields. The seed corpus lives in
// testdata/fuzz/FuzzParseHash128; `make fuzz-smoke` runs a short fuzz.
func FuzzParseHash128(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string, a, d uint64) {
		h := imagex.Hash128{A: imagex.Hash(a), D: imagex.Hash(d)}
		if got, err := ParseHash128(FormatHash128(h)); err != nil || got != h {
			t.Fatalf("round trip of %v = (%v, %v)", h, got, err)
		}
		parsed, err := ParseHash128(s)
		if err != nil {
			return
		}
		if got, want := FormatHash128(parsed), strings.ToLower(s); got != want {
			t.Fatalf("ParseHash128(%q) accepted a non-canonical form: formats back as %q", s, got)
		}
	})
}
