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

// TestRasterMemoRendersOnce pins the generation-scoped memos at
// Workers 1 (inline) and 2 (the job runner sharing them): each
// (seed, variant, pose, size) raster is rendered exactly once, every
// memoised raster still equals a fresh GenModel when generation ends
// (a consumer that transformed a shared raster in place would fail
// here), every memoised pack member equals a fresh deflate of its
// transformed raster, both memos are gone from the returned world,
// and the world is the one Generate builds.
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
		packs := newPackMemo()
		w := generateWith(context.Background(), cfg, memo, packs)
		if w.rasters != nil || w.packs != nil {
			t.Fatalf("workers=%d: a generation memo outlived generation", workers)
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
			if e.v.W != fresh.W || e.v.H != fresh.H || !bytes.Equal(e.v.Pix, fresh.Pix) {
				t.Fatalf("workers=%d: memoised raster %+v was modified during generation", workers, k)
			}
		}
		if len(packs.m) == 0 {
			t.Fatalf("workers=%d: no pack member went through the memo", workers)
		}
		for k, e := range packs.m {
			raster := imagex.GenModel(k.raster.seed, k.raster.variant, k.raster.pose, k.raster.size)
			if !reflect.DeepEqual(e.v, imagex.DeflatePackEntry(k.transform.apply(raster))) {
				t.Fatalf("workers=%d: memoised pack member %+v differs from a fresh deflate", workers, k)
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
// the parallel path there). So do race-detector builds: two scale-0.3
// worlds under -race outlast the default test timeout, and a timing
// under the detector measures the detector.
func TestGenerateParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("timing test: wall clock under the race detector is not generation's")
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
	// Image work is most but not all of generation, and a shared
	// machine adds noise, so the floor is loose: parallel generation
	// must not be slower than sequential, which still catches an
	// accidentally serialized pool.
	if par > seq {
		t.Errorf("parallel generation slower than sequential: %v > %v", par, seq)
	}
}

// TestJobRunnerRunsAhead pins that submitting a job never waits for
// the pool: with every render held on a gate, the walk still submits
// far more jobs than any bounded queue would take, and once the gate
// opens the applies run in submission order.
func TestJobRunnerRunsAhead(t *testing.T) {
	const jobs = 1000
	w := &World{jobs: startJobRunner(context.Background(), 2)}
	gate := make(chan struct{})
	var applied []int
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for i := 0; i < jobs; i++ {
			w.do(func() { <-gate }, func() { applied = append(applied, i) })
		}
	}()
	select {
	case <-submitted:
	case <-time.After(10 * time.Second):
		t.Errorf("walk still blocked in do after 10s with renders gated")
	}
	close(gate)
	<-submitted
	w.jobs.close()
	if len(applied) != jobs {
		t.Fatalf("%d applies ran, want %d", len(applied), jobs)
	}
	for i, v := range applied {
		if v != i {
			t.Fatalf("apply %d ran job %d: applies left submission order", i, v)
		}
	}
}

// TestGenerateContextCancelledReturns pins that a cancelled context
// abandons the pool without stranding the walk or the runner.
func TestGenerateContextCancelledReturns(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		GenerateContext(ctx, Config{Seed: 5, Scale: 0.01, ImageSize: 48, Workers: 2})
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("GenerateContext did not return after cancellation")
	}
}
