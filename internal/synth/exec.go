package synth

import (
	"context"
	"sync"

	"repro/internal/imagex"
	"repro/internal/pipeline"
)

// The generation executor: world generation is a single sequential
// random walk (every rng draw happens on the walk goroutine, in
// program order), but most of its wall clock is spent on work that
// consumes no randomness — rendering model images, hashing them, and
// encoding uploads. Those are packaged as genJobs: the walk captures
// every rng-drawn parameter by value into a plan, submits the job,
// and moves on.
//
// A job has two halves with different ordering needs:
//
//   - render runs on any worker. It may only touch data that is
//     immutable for the job's lifetime (captured scalars, the frozen
//     parts of the world) plus the mutex-protected hosting sites,
//     whose maps make concurrent Puts to distinct paths commutative.
//   - apply runs on the applier goroutine in exact submission order.
//     Order-sensitive world mutations (reverse-index records, Wayback
//     captures, hashlist inserts — anything whose slice order
//     DeepEqual can see) go here, so the parallel path leaves the
//     world in the byte-for-byte state the sequential walk would.
//
// pipeline.Map provides both the worker pool and the order-preserving
// fan-in; with no runner attached (workers <= 1) World.do runs the
// job inline at its call site, which IS the sequential semantics.
type genJob struct {
	render func()
	apply  func()
}

// jobRunner drives genJobs through a pipeline.Map worker pool and an
// in-order applier.
type jobRunner struct {
	jobs chan genJob
	done chan struct{}
}

// startJobRunner launches the pool. The stage is anonymous (no span,
// no stats): per-generator tracing lives on the walk's child spans.
func startJobRunner(ctx context.Context, workers int) *jobRunner {
	r := &jobRunner{
		jobs: make(chan genJob, 4*workers),
		done: make(chan struct{}),
	}
	rendered := pipeline.Map(ctx, "", workers, r.jobs,
		func(_ context.Context, j genJob) genJob {
			if j.render != nil {
				j.render()
			}
			return j
		})
	go func() {
		defer close(r.done)
		for j := range rendered {
			if j.apply != nil {
				j.apply()
			}
		}
	}()
	return r
}

// close ends the stream and blocks until every submitted job has been
// rendered and applied.
func (r *jobRunner) close() {
	close(r.jobs)
	<-r.done
}

// do schedules one generation job: render off-walk (pure compute plus
// commutative hosting puts), apply in submission order. Either half
// may be nil. Without a runner both halves run inline, immediately —
// the sequential reference behaviour.
func (w *World) do(render, apply func()) {
	if w.jobs == nil {
		if render != nil {
			render()
		}
		if apply != nil {
			apply()
		}
		return
	}
	w.jobs.jobs <- genJob{render: render, apply: apply}
}

// rasterKey is the GenModel argument tuple: a model raster is
// deterministic in it.
type rasterKey struct {
	seed    uint64
	variant int
	pose    imagex.Pose
	size    int
}

// rasterMemo renders each model raster at most once per generation.
// The reverse-index jobs draw every image of an indexed model, and
// packs, previews and proof previews then draw the same images again;
// without the memo a world rendered each raster several times over.
// Each key has its own sync.Once, so concurrent renders share one
// draw. Memoised rasters are shared and read-only: a consumer that
// transforms one takes a copy first.
type rasterMemo struct {
	// gen draws a raster: imagex.GenModel, or a counting wrapper in
	// tests.
	gen func(seed uint64, variant int, pose imagex.Pose, size int) *imagex.Image
	mu  sync.Mutex
	m   map[rasterKey]*rasterEntry
}

type rasterEntry struct {
	once sync.Once
	im   *imagex.Image
}

func newRasterMemo() *rasterMemo {
	return &rasterMemo{gen: imagex.GenModel, m: make(map[rasterKey]*rasterEntry)}
}

// get returns the raster for k, rendering it on first use.
func (r *rasterMemo) get(k rasterKey) *imagex.Image {
	r.mu.Lock()
	e := r.m[k]
	if e == nil {
		e = &rasterEntry{}
		r.m[k] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.im = r.gen(k.seed, k.variant, k.pose, k.size) })
	return e.im
}

// raster returns the model raster for k: the shared, read-only memo
// entry while the world is being generated, a fresh render after.
func (w *World) raster(k rasterKey) *imagex.Image {
	if w.rasters == nil {
		return imagex.GenModel(k.seed, k.variant, k.pose, k.size)
	}
	return w.rasters.get(k)
}
