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
//   - render runs on any worker, at any later point of the walk: the
//     walk never waits for it, so a job submitted early in the web
//     phase may render while the walk is deep in the forums. It may
//     only touch data no later step of the walk writes (captured
//     scalars, the fields of a *Model the walk fixed when it built
//     the model, the configuration) plus the mutex-protected hosting
//     sites, whose maps make concurrent Puts to distinct paths
//     commutative.
//   - apply runs on the applier goroutine in exact submission order.
//     Order-sensitive world mutations (reverse-index records, Wayback
//     captures, hashlist inserts — anything whose slice order
//     DeepEqual can see) go here, so the parallel path leaves the
//     world in the byte-for-byte state the sequential walk would.
//
// Submission never blocks the walk: jobs wait in an unbounded FIFO
// until the pipeline.Map pool takes them. A bounded queue would stall
// the walk behind render-heavy phases (the web phase submits one hash
// job per indexed model image and does little else) and then leave
// the pool idle through walk-heavy ones (background forum activity
// submits none). The FIFO holds only unrendered closures, at most one
// world's worth; Map's in-flight window bounds rendered-but-unapplied
// results. Map also provides the order-preserving fan-in. With no
// runner attached (workers <= 1) World.do runs the job inline at its
// call site, which IS the sequential semantics.
type genJob struct {
	render func()
	apply  func()
}

// jobRunner drives genJobs from the walk's FIFO through a pipeline.Map
// worker pool and an in-order applier.
type jobRunner struct {
	mu     sync.Mutex
	queued sync.Cond // signalled on submit and close
	queue  []genJob
	closed bool
	done   chan struct{}
}

// startJobRunner launches the pool. The stage is anonymous (no span,
// no stats): per-generator tracing lives on the walk's child spans.
func startJobRunner(ctx context.Context, workers int) *jobRunner {
	r := &jobRunner{done: make(chan struct{})}
	r.queued.L = &r.mu
	jobs := make(chan genJob)
	go r.feed(jobs)
	rendered := pipeline.Map(ctx, "", workers, jobs,
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

// submit appends j to the FIFO; it never waits for the pool.
func (r *jobRunner) submit(j genJob) {
	r.mu.Lock()
	r.queue = append(r.queue, j)
	r.mu.Unlock()
	r.queued.Signal()
}

// feed moves the FIFO into the pool in submission order, taking
// whatever has queued up at each wake, and closes jobs once the FIFO
// is closed and empty. On cancellation Map drains its input, so feed
// still runs to the end.
func (r *jobRunner) feed(jobs chan<- genJob) {
	defer close(jobs)
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && !r.closed {
			r.queued.Wait()
		}
		batch, closed := r.queue, r.closed
		r.queue = nil
		r.mu.Unlock()
		for i, j := range batch {
			jobs <- j
			batch[i] = genJob{} // the pool holds it now
		}
		if closed {
			return
		}
	}
}

// close ends the stream and blocks until every submitted job has been
// rendered and applied.
func (r *jobRunner) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.queued.Signal()
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
	w.jobs.submit(genJob{render: render, apply: apply})
}

// onceMemo computes each key's value at most once per generation.
// Each key has its own sync.Once, so concurrent jobs asking for one
// key share one computation while distinct keys compute in parallel.
type onceMemo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*onceEntry[V]
}

type onceEntry[V any] struct {
	once sync.Once
	v    V
}

func newOnceMemo[K comparable, V any]() *onceMemo[K, V] {
	return &onceMemo[K, V]{m: make(map[K]*onceEntry[V])}
}

// do returns the value for k, computing it on first use.
func (o *onceMemo[K, V]) do(k K, compute func() V) V {
	o.mu.Lock()
	e := o.m[k]
	if e == nil {
		e = &onceEntry[V]{}
		o.m[k] = e
	}
	o.mu.Unlock()
	e.once.Do(func() { e.v = compute() })
	return e.v
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
// Memoised rasters are shared and read-only: a consumer that
// transforms one takes a copy first.
type rasterMemo struct {
	// gen draws a raster: imagex.GenModel, or a counting wrapper in
	// tests.
	gen func(seed uint64, variant int, pose imagex.Pose, size int) *imagex.Image
	*onceMemo[rasterKey, *imagex.Image]
}

func newRasterMemo() *rasterMemo {
	return &rasterMemo{gen: imagex.GenModel, onceMemo: newOnceMemo[rasterKey, *imagex.Image]()}
}

// get returns the raster for k, rendering it on first use.
func (r *rasterMemo) get(k rasterKey) *imagex.Image {
	return r.do(k, func() *imagex.Image { return r.gen(k.seed, k.variant, k.pose, k.size) })
}

// raster returns the model raster for k: the shared, read-only memo
// entry while the world is being generated, a fresh render after.
func (w *World) raster(k rasterKey) *imagex.Image {
	if w.rasters == nil {
		return imagex.GenModel(k.seed, k.variant, k.pose, k.size)
	}
	return w.rasters.get(k)
}

// packKey identifies a pack member: the model raster and the actor
// transform applied to it. The transforms draw no randomness, so the
// member's deflated bytes are a function of the key alone.
type packKey struct {
	raster    rasterKey
	transform packTransform
}

// packMemo deflates each distinct pack member at most once per
// generation. Models recur across packs, so at scales 0.01–0.05 about
// 44% of a world's members repeat one already deflated; a hit skips
// both the transform and the deflate, and the pack archive is written
// from the shared, read-only entries.
type packMemo = onceMemo[packKey, imagex.PackEntry]

func newPackMemo() *packMemo { return newOnceMemo[packKey, imagex.PackEntry]() }

// packEntry returns the deflated member k from the memo. Packs are
// only composed while the world is being generated.
func (w *World) packEntry(k packKey) imagex.PackEntry {
	return w.packs.do(k, func() imagex.PackEntry {
		return imagex.DeflatePackEntry(k.transform.apply(w.raster(k.raster)))
	})
}
