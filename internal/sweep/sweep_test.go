package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// tinyCells returns a small cross-seed plan that runs fast.
func tinyCells(seeds int) []Cell {
	g := Grid{
		Seeds:  seedRange(2019, seeds),
		Scales: []float64{0.01}, Annotations: []int{200},
	}
	return g.Cells()
}

// TestSweepDeterministic pins the satellite requirement: two identical
// sweeps — same grid, same per-cell seeds — produce DeepEqual
// aggregates, even at different parallelism (so completion order
// provably does not leak into the fold).
func TestSweepDeterministic(t *testing.T) {
	cells := tinyCells(3)
	ctx := context.Background()
	a := Run(ctx, "det", cells, Local{}, Options{Parallelism: 3})
	b := Run(ctx, "det", cells, Local{}, Options{Parallelism: 1})
	if len(a.Errors) != 0 || len(b.Errors) != 0 {
		t.Fatalf("unexpected errors: %v / %v", a.Errors, b.Errors)
	}
	if !reflect.DeepEqual(a.Aggregate, b.Aggregate) {
		t.Fatalf("aggregates differ between identical sweeps:\n%+v\nvs\n%+v", a.Aggregate, b.Aggregate)
	}
	for i := range a.Cells {
		if !reflect.DeepEqual(a.Cells[i].Summary, b.Cells[i].Summary) {
			t.Fatalf("cell %d summary differs between identical sweeps", i)
		}
	}
}

// TestOneCellSweepMatchesDirectRun pins a 1-cell sweep to the direct
// Study.Run path bit-for-bit.
func TestOneCellSweepMatchesDirectRun(t *testing.T) {
	cells := tinyCells(1)
	ctx := context.Background()

	direct := core.NewStudy(cells[0].Options())
	res, err := direct.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := Summarize(res)

	sw := Run(ctx, "one", cells, Local{}, Options{})
	if len(sw.Errors) != 0 {
		t.Fatalf("sweep errors: %v", sw.Errors)
	}
	if got := sw.Cells[0].Summary; !reflect.DeepEqual(*got, want) {
		t.Fatalf("1-cell sweep summary differs from direct run:\n%+v\nvs\n%+v", *got, want)
	}
	// The aggregate of one cell is its values with degenerate intervals.
	g := sw.Aggregate.Groups[0]
	for _, a := range g.Artefacts {
		if a.N != 1 || a.CILow != a.Mean || a.CIHigh != a.Mean {
			t.Fatalf("1-cell aggregate %s not degenerate: %+v", a.Name, a)
		}
	}
}

// stubBackend computes summaries as a pure function of the cell, so
// engine behaviour can be tested without running studies.
type stubBackend struct {
	fail  func(c Cell) error
	calls atomic.Int64
}

func (s *stubBackend) RunCell(ctx context.Context, c Cell) (CellResult, error) {
	s.calls.Add(1)
	if err := ctx.Err(); err != nil {
		return CellResult{}, err
	}
	if s.fail != nil {
		if err := s.fail(c); err != nil {
			return CellResult{}, err
		}
	}
	sum := Summary{
		// Linear in scale with seed jitter: slopes are recoverable.
		EWhoringThreads: int(10000*c.Scale) + int(c.Seed%3),
		TOPs:            int(1000 * c.Scale),
		F1:              0.9,
	}
	return CellResult{Summary: sum, Elapsed: time.Millisecond}, nil
}

// TestFailSoftLedger: one failing cell lands in the ledger, the others
// still run and aggregate.
func TestFailSoftLedger(t *testing.T) {
	backend := &stubBackend{fail: func(c Cell) error {
		if c.Seed == 2020 {
			return errors.New("boom")
		}
		return nil
	}}
	cells := tinyCells(3)
	res := Run(context.Background(), "ledger", cells, backend, Options{Parallelism: 2})
	if got := backend.calls.Load(); got != 3 {
		t.Fatalf("backend ran %d cells, want 3 (fail-soft must not stop the sweep)", got)
	}
	if len(res.Errors) != 1 || res.Errors[0].Cell.Seed != 2020 || res.Errors[0].Err != "boom" {
		t.Fatalf("ledger = %+v, want one entry for seed 2020", res.Errors)
	}
	if res.OK() != 2 {
		t.Fatalf("OK() = %d, want 2", res.OK())
	}
	g := res.Aggregate.Groups[0]
	if len(g.Seeds) != 2 {
		t.Fatalf("aggregate folded %v seeds, want the 2 successful ones", g.Seeds)
	}
	for _, s := range g.Seeds {
		if s == 2020 {
			t.Fatal("failed cell leaked into the aggregate")
		}
	}
}

// TestCancellationStopsScheduling: cancelling the context marks
// unscheduled cells as not run instead of hanging.
func TestCancellationStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Run(ctx, "cancel", tinyCells(4), &stubBackend{}, Options{Parallelism: 1})
	if len(res.Errors) != 4 {
		t.Fatalf("cancelled sweep ran %d cells, want 0 (errors: %d)", res.OK(), len(res.Errors))
	}
}

// TestScaleSlopes recovers a linear artefact-vs-scale relationship
// from the scale-sensitivity shape.
func TestScaleSlopes(t *testing.T) {
	g := Grid{
		Seeds:  seedRange(1, 3),
		Scales: []float64{0.01, 0.02, 0.04},
	}
	res := Run(context.Background(), "slopes", g.Cells(), &stubBackend{}, Options{Parallelism: 4})
	if len(res.Aggregate.Groups) != 3 {
		t.Fatalf("got %d groups, want 3 (one per scale)", len(res.Aggregate.Groups))
	}
	var tops *Slope
	for i, s := range res.Aggregate.Slopes {
		if s.Name == "tops" {
			tops = &res.Aggregate.Slopes[i]
		}
	}
	if tops == nil {
		t.Fatal("no slope for tops")
	}
	// TOPs = 1000*scale exactly (int truncation is exact at these
	// scales): slope 1000, perfect fit.
	if tops.Slope < 990 || tops.Slope > 1010 || tops.R2 < 0.999 {
		t.Fatalf("tops slope = %+v, want ~1000 with R2~1", *tops)
	}
}

// TestPresetPlans pins each preset's plan shape.
func TestPresetPlans(t *testing.T) {
	cases := []struct {
		spec  Spec
		cells int
		check func(t *testing.T, cells []Cell)
	}{
		{Spec{Preset: PresetCrossSeed, Seeds: 10, Scale: 0.05}, 10, func(t *testing.T, cells []Cell) {
			seen := map[uint64]bool{}
			for _, c := range cells {
				if c.Scale != 0.05 {
					t.Fatalf("cross-seed cell at scale %g", c.Scale)
				}
				seen[c.Seed] = true
			}
			if len(seen) != 10 {
				t.Fatalf("%d distinct seeds, want 10", len(seen))
			}
		}},
		{Spec{Preset: PresetScale, Scale: 0.02}, 3 * 4, func(t *testing.T, cells []Cell) {
			scales := map[float64]bool{}
			for _, c := range cells {
				scales[c.Scale] = true
			}
			if len(scales) != 4 {
				t.Fatalf("%d distinct scales, want 4", len(scales))
			}
		}},
		{Spec{Preset: PresetConcurrency, Seeds: 2}, 2 * 4, func(t *testing.T, cells []Cell) {
			crawls := map[int]bool{}
			for _, c := range cells {
				crawls[c.CrawlConcurrency] = true
			}
			if !crawls[1] || !crawls[2] || !crawls[4] || !crawls[8] {
				t.Fatalf("crawl ladder wrong: %v", crawls)
			}
		}},
		{Spec{Preset: PresetAdversarial, Seeds: 2}, 2 * 5, func(t *testing.T, cells []Cell) {
			profiles := map[string]bool{}
			for _, c := range cells {
				profiles[c.Faults] = true
			}
			if len(profiles) != 5 || !profiles[""] {
				t.Fatalf("adversary ladder wrong: %v", profiles)
			}
			ok := false
			for p := range profiles {
				if strings.Contains(p, "down=") {
					ok = true
				}
			}
			if !ok {
				t.Fatal("adversary ladder has no dead-host rung")
			}
		}},
		{Spec{}, 1, nil},
	}
	for _, tc := range cases {
		cells, err := tc.spec.Cells()
		if err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		if len(cells) != tc.cells {
			t.Fatalf("%s plans %d cells, want %d", tc.spec.Name(), len(cells), tc.cells)
		}
		if tc.check != nil {
			tc.check(t, cells)
		}
	}
	if _, err := (Spec{Preset: "nope"}).Cells(); err == nil {
		t.Fatal("unknown preset did not error")
	}

	// A custom grid with an open seed axis still honours Seeds: two
	// scales × three seeds.
	cells, err := (Spec{Seeds: 3, Grid: &Grid{Scales: []float64{0.01, 0.02}}}).Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("grid with Seeds=3 plans %d cells, want 6", len(cells))
	}

	// A scale so small every other ladder rung is clamped still sweeps
	// the scale that was asked for — never the default.
	cells, err = (Spec{Preset: PresetScale, Seeds: 1, Scale: 0.002}).Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Scale != 0.002 {
		t.Fatalf("clamped ladder cells = %+v, want the base scale only", cells)
	}
}

// TestCellNormalizeMatchesCoreDefaults keeps cell identity in sync
// with the study's own defaulting.
func TestCellNormalizeMatchesCoreDefaults(t *testing.T) {
	def := core.DefaultOptions()
	c := Cell{}.normalize()
	if c.Seed != def.Synth.Seed || c.Scale != def.Synth.Scale ||
		c.Annotation != def.AnnotationSize || c.CrawlConcurrency != def.CrawlConcurrency {
		t.Fatalf("normalized zero cell %+v does not match core defaults %+v", c, def)
	}
}

// TestArtefactsCoverPaperValues: every paper reference must name an
// artefact the summary actually produces.
func TestArtefactsCoverPaperValues(t *testing.T) {
	names := map[string]bool{}
	for _, a := range (Summary{}).Artefacts() {
		names[a.Name] = true
	}
	for _, p := range PaperValues() {
		if !names[p.Name] {
			t.Errorf("paper value %q has no matching artefact", p.Name)
		}
	}
}

// TestOnCellObservesEveryOutcome: the progress hook fires once per
// cell with a monotonically increasing done counter.
func TestOnCellObservesEveryOutcome(t *testing.T) {
	var seen []int
	Run(context.Background(), "hook", tinyCells(3), &stubBackend{}, Options{
		Parallelism: 2,
		OnCell: func(done, total int, o Outcome) {
			if total != 3 {
				t.Errorf("total = %d, want 3", total)
			}
			seen = append(seen, done)
		},
	})
	if fmt.Sprint(seen) != "[1 2 3]" {
		t.Fatalf("done sequence %v, want [1 2 3]", seen)
	}
}
