package faultx

import (
	"reflect"
	"testing"
	"time"
)

// FuzzParseRetryAfter fuzzes the Retry-After header parser, which reads
// a value from another process on every 429 and 503. The result must
// never be negative, whatever the input, and every whole-millisecond
// hint below 2^30 ms (about 12 days, far beyond any backoff a server
// here sends) must survive a format/parse round trip. The seed corpus
// lives in testdata/fuzz/FuzzParseRetryAfter; `make fuzz-smoke` runs a
// short fuzz.
func FuzzParseRetryAfter(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string, ms int64) {
		if got := ParseRetryAfter(s); got < 0 {
			t.Fatalf("ParseRetryAfter(%q) = %v, want >= 0", s, got)
		}
		if ms < 0 {
			ms = -(ms + 1)
		}
		d := time.Duration(ms%(1<<30)) * time.Millisecond
		if got := ParseRetryAfter(FormatRetryAfter(d)); got != d {
			t.Fatalf("round trip of %v → %q → %v", d, FormatRetryAfter(d), got)
		}
	})
}

// FuzzParseProfile fuzzes the fault-profile grammar, which reaches the
// service from another process through POST /v1/study "faults".
// Parsing must never panic, and an accepted
// profile's Plan.String() must parse back to an equal plan. The seed
// corpus lives in testdata/fuzz/FuzzParseProfile; `make fuzz-smoke`
// runs a short fuzz.
func FuzzParseProfile(f *testing.F) {
	f.Fuzz(func(t *testing.T, profile string) {
		plan, err := ParseProfile(profile)
		if err != nil {
			return
		}
		again, err := ParseProfile(plan.String())
		if err != nil {
			t.Fatalf("ParseProfile(%q).String() = %q does not parse: %v", profile, plan.String(), err)
		}
		if !reflect.DeepEqual(again, plan) {
			t.Fatalf("ParseProfile(%q) = %+v; its String %q parses to %+v", profile, *plan, plan.String(), *again)
		}
	})
}
