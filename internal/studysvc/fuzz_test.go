package studysvc

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"testing"
)

// FuzzCanonicalize fuzzes the POST /v1/study body, the one request the
// service accepts, through the handler's own decode and
// canonicalization. Neither may panic; a canonical request must be a
// fixed point of canonicalize (same value, same cache key), with its
// artefact names sorted and unique. The seed corpus lives in
// testdata/fuzz/FuzzCanonicalize; `make fuzz-smoke` runs a short fuzz.
func FuzzCanonicalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		in, err := decodeRequest(nil, io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			return
		}
		c, err := canonicalize(in)
		if err != nil {
			return
		}
		again, err := canonicalize(Request{
			Seed: c.Seed, Scale: c.Scale, AnnotationSize: c.AnnotationSize,
			Workers: c.Workers, CrawlConcurrency: c.CrawlConcurrency,
			Artefacts: c.Artefacts, Faults: c.Faults,
		})
		if err != nil {
			t.Fatalf("canonical %+v rejected on re-canonicalization: %v", c, err)
		}
		if !reflect.DeepEqual(again, c) || again.key() != c.key() {
			t.Fatalf("canonicalize is not idempotent:\n%+v (%s)\nvs\n%+v (%s)", c, c.key(), again, again.key())
		}
		if !slices.IsSorted(c.Artefacts) || len(slices.Compact(slices.Clone(c.Artefacts))) != len(c.Artefacts) {
			t.Fatalf("artefacts %q not sorted and unique", c.Artefacts)
		}
	})
}
