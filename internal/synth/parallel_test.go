package synth

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestGenerateParallelEquivalence pins the tentpole invariant: the
// parallel generator produces a bit-identical world to the Workers 1
// reference (every image job inline) for every worker count, across
// seeds and scales.
// reflect.DeepEqual sees every exported and unexported field, so this
// also catches stray executor state left on the World.
func TestGenerateParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scale generation is slow")
	}
	for _, seed := range []uint64{77, 2019} {
		for _, scale := range []float64{0.05, 0.5} {
			// The full worker matrix runs at the cheap scale; the big
			// scale checks one parallel count to bound test time.
			counts := []int{2, 4, 7}
			if scale > 0.1 {
				counts = []int{4}
			}
			cfg := Config{Seed: seed, Scale: scale, ImageSize: 48, Workers: 1}
			want := Generate(cfg)
			for _, workers := range counts {
				cfg.Workers = workers
				got := Generate(cfg)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed=%d scale=%g workers=%d: world differs from the Workers 1 reference", seed, scale, workers)
				}
			}
		}
	}
}

// TestGenerateWorkersOutsideIdentity pins that Workers is an execution
// knob, not part of the world's identity: Canonical zeroes it, and the
// generated world records the canonical config, so cache keys built
// from either side match.
func TestGenerateWorkersOutsideIdentity(t *testing.T) {
	cfg := Config{Seed: 7, Scale: 0.02, ImageSize: 48, Workers: 3}
	if cfg.Canonical().Workers != 0 {
		t.Fatalf("Canonical must zero Workers, got %d", cfg.Canonical().Workers)
	}
	w := Generate(cfg)
	if w.Config != cfg.Canonical() {
		t.Fatalf("world config %+v is not the canonical form %+v", w.Config, cfg.Canonical())
	}
	if w.Config.Workers != 0 {
		t.Fatalf("world must not record a worker count, got %d", w.Config.Workers)
	}
}

// TestGenerateParallelSpeedup checks that fanning generation out
// actually buys wall clock. Parallel speedup needs parallel hardware,
// so single-CPU machines skip (the equivalence test above still runs
// the parallel path there).
func TestGenerateParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		t.Skipf("GOMAXPROCS=%d: no parallel speedup possible on one CPU", procs)
	}
	cfg := Config{Seed: 2019, Scale: 0.3, ImageSize: 48}
	cfg.Workers = 1
	//lint:ignore determinism timing comparison only; no wall-clock value reaches a world
	t0 := time.Now()
	Generate(cfg)
	seq := time.Since(t0)
	cfg.Workers = procs
	//lint:ignore determinism timing comparison only; no wall-clock value reaches a world
	t1 := time.Now()
	Generate(cfg)
	par := time.Since(t1)
	// Image work is most but not all of generation; 1.3x at two cores
	// is a loose floor that still catches an accidentally serialized
	// pool.
	if par > seq {
		t.Errorf("parallel generation slower than sequential: %v > %v", par, seq)
	}
}
