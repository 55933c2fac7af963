package report

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/actors"
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

// TestFigure4AllocsIndependentOfSampleCount renders Figure 4 for two
// worlds whose buckets differ several-fold in size: the series arrive
// sorted, so the render reads order statistics and its allocations
// must not grow with the sample count.
func TestFigure4AllocsIndependentOfSampleCount(t *testing.T) {
	w := synth.Generate(synth.Config{Seed: 31, Scale: 0.06, SkipImages: true})
	big := actors.CollectSamples(actors.SortProfiles(actors.BuildProfiles(w.Store, w.EWhoringAll())), nil)
	// Keep the buckets both worlds fill, so both renders write the
	// same rows.
	small := make(map[int]actors.Samples)
	for thr, s := range res(t).Actors.Fig4 {
		if len(s.Posts) > 0 && len(big[thr].Posts) > 0 {
			small[thr] = s
		}
	}
	for thr := range big {
		if _, ok := small[thr]; !ok {
			delete(big, thr)
		}
	}
	if n, m := len(small[1].Posts), len(big[1].Posts); m < 2*n {
		t.Fatalf("worlds too alike: %d and %d samples in the >=1 bucket", n, m)
	}
	a := testing.AllocsPerRun(20, func() { Figure4(small) })
	b := testing.AllocsPerRun(20, func() { Figure4(big) })
	if b > a {
		t.Fatalf("Figure 4 allocates %.0f times per render at %d samples, %.0f at %d", b, len(big[1].Posts), a, len(small[1].Posts))
	}
	// A copy-and-sort per quantile allocates once per call at any size,
	// so the bytes are what would grow.
	ab, bb := bytesPerRun(20, func() { Figure4(small) }), bytesPerRun(20, func() { Figure4(big) })
	if bb > 2*ab {
		t.Fatalf("Figure 4 allocates %d B per render at %d samples, %d B at %d", bb, len(big[1].Posts), ab, len(small[1].Posts))
	}
}

// bytesPerRun returns the mean heap bytes one call of f allocates.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
