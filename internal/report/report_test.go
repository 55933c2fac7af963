package report

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/synth"
)

var (
	once    sync.Once
	results *core.Results
	runErr  error
)

// goldenOptions is the seed-77 study every report test renders.
func goldenOptions() core.Options {
	return core.Options{
		Synth:          synth.Config{Seed: 77, Scale: 0.02},
		AnnotationSize: 300,
	}
}

func res(t testing.TB) *core.Results {
	once.Do(func() {
		results, runErr = core.NewStudy(goldenOptions()).Run(context.Background())
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return results
}

func TestFullReportContainsEverything(t *testing.T) {
	out := Full(res(t))
	wants := []string{
		"Table 1", "Classifier (§4.1)", "Table 3", "Table 4",
		"Crawl (§4.2)", "PhotoDNA filter (§4.3)", "NSFV classification (§4.4)",
		"Table 5", "Table 6", "Earnings (§5)", "Figure 2", "Figure 3",
		"Table 7", "Table 8", "Figure 4", "Table 9", "Table 10", "Figure 5",
		"Hackforums", "imgur.com", "mediafire.com",
	}
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("full report missing %q", w)
		}
	}
	if len(out) < 2000 {
		t.Fatalf("report suspiciously short: %d bytes", len(out))
	}
}

func TestTable1Totals(t *testing.T) {
	out := Table1(res(t).Table1)
	if !strings.Contains(out, "TOTAL") {
		t.Fatal("no totals row")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 12 {
		t.Fatalf("Table 1 has %d lines, want >= 12 (10 forums + header + total)", len(lines))
	}
}

func TestTable9Triangle(t *testing.T) {
	out := Table9(res(t).Actors.Table9)
	if !strings.Contains(out, "-") {
		t.Fatal("lower triangle not dashed")
	}
}

func TestFigure3ChronologicalMonths(t *testing.T) {
	out := Figure3(res(t).Earnings)
	if !strings.Contains(out, "AGC") || !strings.Contains(out, "PayPal") {
		t.Fatalf("Figure 3 header missing: %q", out[:80])
	}
}

func TestEmptyFigure3(t *testing.T) {
	var e core.EarningsResult
	e.MonthlyAGC = stats.NewMonthlySeries()
	e.MonthlyPayPal = stats.NewMonthlySeries()
	out := Figure3(e)
	if !strings.Contains(out, "no proof series") {
		t.Fatalf("empty Figure 3 = %q", out)
	}
}
