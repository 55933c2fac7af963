package synth

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/imagex"
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

// TestRasterMemoRendersOnce pins the generation-scoped raster memo at
// Workers 1 (inline) and 2 (the job runner sharing the memo): each
// (seed, variant, pose, size) raster is rendered exactly once, every
// memoised raster still equals a fresh GenModel when generation ends
// (a consumer that transformed a shared raster in place would fail
// here), the memo is gone from the returned world, and the world is
// the one Generate builds.
func TestRasterMemoRendersOnce(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := Config{Seed: 77, Scale: 0.02, ImageSize: 48, Workers: workers}
		var mu sync.Mutex
		renders := make(map[rasterKey]int)
		memo := newRasterMemo()
		memo.gen = func(seed uint64, variant int, pose imagex.Pose, size int) *imagex.Image {
			mu.Lock()
			renders[rasterKey{seed, variant, pose, size}]++
			mu.Unlock()
			return imagex.GenModel(seed, variant, pose, size)
		}
		w := generateWith(context.Background(), cfg, memo)
		if w.rasters != nil {
			t.Fatalf("workers=%d: the raster memo outlived generation", workers)
		}
		if len(renders) == 0 || len(renders) != len(memo.m) {
			t.Fatalf("workers=%d: %d rasters rendered for %d memo entries", workers, len(renders), len(memo.m))
		}
		for k, n := range renders {
			if n != 1 {
				t.Fatalf("workers=%d: raster %+v rendered %d times", workers, k, n)
			}
		}
		for k, e := range memo.m {
			fresh := imagex.GenModel(k.seed, k.variant, k.pose, k.size)
			if e.im.W != fresh.W || e.im.H != fresh.H || !bytes.Equal(e.im.Pix, fresh.Pix) {
				t.Fatalf("workers=%d: memoised raster %+v was modified during generation", workers, k)
			}
		}
		if !reflect.DeepEqual(w, Generate(cfg)) {
			t.Fatalf("workers=%d: world differs from Generate's", workers)
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
