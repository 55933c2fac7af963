package forum

import (
	"bytes"
	"testing"
)

// FuzzImport fuzzes the JSONL dump loader, which reads corpora written
// by another process (ewsynth -export). Import must never panic, and a
// dump it accepts must export to a dump that re-imports and exports
// to the same bytes. The seed corpus lives in testdata/fuzz/FuzzImport;
// `make fuzz-smoke` runs a short fuzz.
func FuzzImport(f *testing.F) {
	f.Fuzz(func(t *testing.T, dump []byte) {
		s, err := Import(bytes.NewReader(dump))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := s.Export(&first); err != nil {
			t.Fatalf("accepted dump does not export: %v", err)
		}
		back, err := Import(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("exported dump does not re-import: %v\n%s", err, first.Bytes())
		}
		if err := back.Export(&second); err != nil {
			t.Fatalf("re-imported dump does not export: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("export not stable across import:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
