package report

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// TestFullReportGolden pins report.Full byte-for-byte for a fixed
// seed/scale: table layout, column widths, number formatting and row
// order are all part of the study's contract (DESIGN.md §1 —
// determinism is an invariant), so any formatting or data drift fails
// here. The single-worker reference run must render the same bytes
// as the default worker count. Regenerate deliberately with:
//
//	go test ./internal/report -run TestFullReportGolden -update
func TestFullReportGolden(t *testing.T) {
	golden := filepath.Join("testdata", "full_seed77_scale002.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(Full(res(t))), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	t.Run("workers=default", func(t *testing.T) {
		compareGolden(t, Full(res(t)), string(want))
	})
	t.Run("workers=1", func(t *testing.T) {
		opts := goldenOptions()
		opts.Workers, opts.CrawlConcurrency = 1, 1
		one, err := core.NewStudy(opts).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, Full(one), string(want))
	})
}

// compareGolden fails at the first line where got drifts from want.
func compareGolden(t *testing.T, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	n := len(gotLines)
	if len(wantLines) < n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("report drifted from golden at line %d:\n  got:  %q\n  want: %q\n(rerun with -update if the change is intended)",
				i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("report drifted from golden: got %d lines, want %d (rerun with -update if intended)",
		len(gotLines), len(wantLines))
}
