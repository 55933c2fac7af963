// Package pipeline is a small generic concurrent stage engine: bounded
// worker pools connected by channels, with order-preserving fan-in, a
// trace span per named stage, and context cancellation.
//
// Every fan-out stage of the study's Figure 1 pipeline — the crawl,
// the PhotoDNA gate, NSFV classification and reverse-image search —
// runs on Map. Determinism is the design constraint: Map delivers
// outputs in input order no matter how the worker pool schedules
// them, so a stage folds its results in the same order at one worker
// or many.
package pipeline

import (
	"context"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/tracex"
)

// stageSpan opens a trace span for a named stage; anonymous internal
// stages (name == "") and untraced contexts cost nothing. The span
// covers the stage's full lifetime — creation to output close — so a
// trace shows which stages overlap, and the returned context parents
// per-item work (crawl fetches) under the stage.
func stageSpan(ctx context.Context, name string, workers int) (context.Context, *tracex.Span) {
	if name == "" {
		return ctx, nil
	}
	ctx, sp := tracex.StartSpan(ctx, "stage "+name)
	if sp != nil && workers > 1 {
		sp.SetAttr("workers", strconv.Itoa(workers))
	}
	return ctx, sp
}

// defaultWorkers resolves a non-positive worker count to the number of
// usable CPUs.
func defaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Emit feeds a slice into a channel, stopping early if ctx is
// cancelled. The channel closes once every item is delivered.
func Emit[T any](ctx context.Context, items []T) <-chan T {
	out := make(chan T)
	go func() {
		defer close(out)
		for _, v := range items {
			select {
			case out <- v:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// Collect drains a channel into a slice, in arrival order.
func Collect[T any](in <-chan T) []T {
	var out []T
	for v := range in {
		out = append(out, v)
	}
	return out
}

// Map applies fn to every input under a bounded worker pool and
// delivers the outputs in input order: output i is never sent before
// output i-1, regardless of which worker finished first. workers <= 0
// means GOMAXPROCS. A named stage records its lifetime as a "stage
// <name>" span on the context tracer.
//
// On cancellation the stage drains its input (so upstream goroutines
// can finish) and closes its output early.
func Map[In, Out any](ctx context.Context, name string, workers int, in <-chan In, fn func(context.Context, In) Out) <-chan Out {
	workers = defaultWorkers(workers)
	ctx, sp := stageSpan(ctx, name, workers)
	type job struct {
		seq int
		v   In
	}
	type done struct {
		seq int
		v   Out
	}
	jobs := make(chan job)
	results := make(chan done, workers)
	// tokens bounds the in-flight window (dispatched but not yet
	// emitted): one slow head-of-line item must stall the feeder, not
	// let the reorder buffer absorb the whole remaining stream.
	tokens := make(chan struct{}, 4*workers)

	// Feeder: tag inputs with their sequence number.
	go func() {
		defer close(jobs)
		seq := 0
		for v := range in {
			select {
			case tokens <- struct{}{}:
			case <-ctx.Done():
				for range in { // unblock upstream
				}
				return
			}
			select {
			case jobs <- job{seq, v}:
				seq++
			case <-ctx.Done():
				for range in { // unblock upstream
				}
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				v := fn(ctx, j.v)
				select {
				case results <- done{j.seq, v}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder buffer: emit strictly by sequence number.
	out := make(chan Out, workers)
	go func() {
		defer close(out)
		defer sp.End()
		pending := make(map[int]Out)
		next := 0
		for r := range results {
			pending[r.seq] = r.v
			for {
				v, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				select {
				case out <- v:
					<-tokens
				case <-ctx.Done():
					for range results { // unblock workers
					}
					return
				}
			}
		}
	}()
	return out
}

// Group runs pipeline branches concurrently and waits for all of them
// — the error-free face of ErrGroup for branches that cannot fail.
// The zero value is ready to use.
type Group struct {
	eg ErrGroup
}

// Go starts fn as a branch.
func (g *Group) Go(fn func()) {
	g.eg.Go(func() error {
		fn()
		return nil
	})
}

// Wait blocks until every branch started with Go has returned.
func (g *Group) Wait() { g.eg.Wait() }
