package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/synth"
)

// TestRunWorkersEquivalence holds Run to the determinism requirement:
// for a fixed seed and scale, every worker count must produce Results
// identical to the single-worker reference run — every table, summary
// and proof count, compared field by field. Each case generates its
// world once and shares it across the worker counts.
func TestRunWorkersEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{7, 11} {
		for _, scale := range []float64{0.015, 0.02} {
			t.Run(fmt.Sprintf("seed=%d,scale=%g", seed, scale), func(t *testing.T) {
				cfg := synth.Config{Seed: seed, Scale: scale, ImageSize: 48}
				world := synth.Generate(cfg)
				run := func(workers int) *Study {
					return NewStudyWithWorld(Options{
						Synth:            cfg,
						AnnotationSize:   300,
						Workers:          workers,
						CrawlConcurrency: workers,
					}, world)
				}
				ref := run(1)
				want, err := ref.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 4, 7} {
					got, err := run(workers).Run(ctx)
					if err != nil {
						t.Fatal(err)
					}
					diffResults(t, want, got, fmt.Sprintf("workers=%d vs workers=1", workers))
				}
			})
		}
	}
}

// TestConcurrentRunDeterministic runs the study twice on the same seed
// at an odd worker count and demands bit-identical Results: the
// engine's ordered fan-in may not leak scheduling nondeterminism.
func TestConcurrentRunDeterministic(t *testing.T) {
	opts := Options{
		Synth:          synth.Config{Seed: 11, Scale: 0.015, ImageSize: 48},
		AnnotationSize: 300,
		Workers:        5, // deliberately odd
	}
	ctx := context.Background()
	a, err := NewStudy(opts).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStudy(opts).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two runs with the same seed produced different Results")
	}
}
