// Package loadgen is the SLO load harness: it drives a target request
// rate of study submissions against a live study service and measures
// what the paper's pipeline looks like as a production endpoint —
// latency percentiles, achieved throughput and the shed rate of the
// service's admission control. `ewsweep -load` is its CLI, and its
// benchjson artifact (BENCH_load.json) joins the committed-baseline
// regression gate, so CI pins the serving SLO the way it pins ns/op.
//
// The generator is open-loop: requests launch on a fixed ticker at the
// target rate regardless of how fast earlier ones complete (bounded by
// Concurrency — when the bound is hit, the measured rate drops and
// AchievedRPS reports it honestly rather than silently back-pressuring
// the ticker into a closed loop).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/studysvc"
	"repro/internal/tracex"
)

// Spec describes one load run.
type Spec struct {
	// TargetRPS is the submission rate to drive (required, > 0).
	TargetRPS float64
	// Duration is how long to drive it (required, > 0).
	Duration time.Duration
	// Concurrency bounds in-flight requests (default 2×TargetRPS,
	// at least 8): the client-side limit that keeps an overloaded
	// server from accumulating unbounded goroutines in the generator.
	Concurrency int
	// Seeds is how many distinct worlds the generator cycles through
	// (default 4): seed i%Seeds offsets from Seed, so the request mix
	// exercises both the service's result cache (repeats) and fresh
	// runs (distinct seeds).
	Seeds int
	// Seed is the base world seed (default 2019).
	Seed uint64
	// Scale is the per-request corpus scale (default 0.01 — load runs
	// measure the service, not the world generator).
	Scale float64
	// AnnotationSize is the per-request annotation corpus (default
	// 150, the test-tier size).
	AnnotationSize int
	// Warmup, when true (the default via DefaultSpec), runs one
	// sequential pass over all seeds before measuring, so world
	// generation and cold artefact computes land outside the measured
	// window and the percentiles describe steady-state serving.
	Warmup bool
	// Tracer, when set, samples one trace from the run: the first
	// warmup request (the cold-start study — the interesting one)
	// carries a traceparent minted here, and Result.SampleTraceID names
	// the shared trace for fetching from the server's /v1/trace ring.
	// Requires Warmup; the measured window is never traced.
	Tracer *tracex.Tracer
}

// DefaultSpec fills unset Spec fields.
func (s Spec) withDefaults() Spec {
	if s.Concurrency <= 0 {
		s.Concurrency = int(2 * s.TargetRPS)
		if s.Concurrency < 8 {
			s.Concurrency = 8
		}
	}
	if s.Seeds <= 0 {
		s.Seeds = 4
	}
	if s.Seed == 0 {
		s.Seed = 2019
	}
	if s.Scale <= 0 {
		s.Scale = 0.01
	}
	if s.AnnotationSize <= 0 {
		s.AnnotationSize = 150
	}
	return s
}

// Result aggregates one load run.
type Result struct {
	Requests    int     `json:"requests"`
	OK          int     `json:"ok"`
	Shed        int     `json:"shed"`
	Errors      int     `json:"errors"`
	CacheHits   int     `json:"cache_hits"`
	DurationMS  int64   `json:"duration_ms"`
	AchievedRPS float64 `json:"achieved_rps"`
	// ShedRate is Shed / (OK + Shed): the fraction of well-formed
	// submissions the service rejected under admission control.
	ShedRate float64 `json:"shed_rate"`
	// ErrorRate is Errors / Requests: the fraction of requests that
	// failed for reasons other than admission control (5xx, transport
	// errors, timeouts). Shedding is the service degrading as designed;
	// errors are it breaking — the SLO gate distinguishes them.
	ErrorRate float64 `json:"error_rate"`
	// Latency percentiles over successful requests, milliseconds.
	// Shed responses are fast rejections by design and are excluded —
	// they are measured by ShedRate instead.
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
	// ErrorSamples holds the first few non-shed error strings, for
	// the operator reading a failed run.
	ErrorSamples []string `json:"error_samples,omitempty"`
	// SampleTraceID is the trace id of the sampled cold-start request
	// (set only when Spec.Tracer was provided).
	SampleTraceID string `json:"sample_trace_id,omitempty"`
	// SampleTrace is that trace with both halves merged — the
	// generator's warmup span and the server's request/run/node spans,
	// fetched right after warmup, before the measured window's
	// requests flood the server's bounded ring and evict it. Excluded
	// from the JSON artifact; correlate by SampleTraceID instead.
	SampleTrace *tracex.Trace `json:"-"`
}

// Run drives the load described by spec through client and aggregates
// the outcome. The client's retry policy is forced off for the
// measured window: a load run must observe every shed, not paper over
// them with backoff.
func Run(ctx context.Context, client *studysvc.Client, spec Spec) (*Result, error) {
	if spec.TargetRPS <= 0 {
		return nil, errors.New("loadgen: TargetRPS must be > 0")
	}
	if spec.Duration <= 0 {
		return nil, errors.New("loadgen: Duration must be > 0")
	}
	spec = spec.withDefaults()

	// Copy the client with retries disabled: the measurement depends
	// on seeing raw 429s.
	c := *client
	c.MaxRetries = -1

	request := func(i int) studysvc.Request {
		return studysvc.Request{
			Seed:           spec.Seed + uint64(i%spec.Seeds),
			Scale:          spec.Scale,
			AnnotationSize: spec.AnnotationSize,
		}
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		res       Result
	)

	if spec.Warmup {
		for i := 0; i < spec.Seeds; i++ {
			// Sequential, full-patience warmup: each world generates
			// and computes once, so the measured window serves from
			// cache + memo. A warmup shed (impossible sequentially
			// unless the pool is busy with foreign traffic) or error
			// is ignored — the measured window will report it.
			reqCtx := ctx
			var span *tracex.Span
			if i == 0 && spec.Tracer != nil {
				// Sample the first warmup request: the cold-start study,
				// whose trace shows synth + fresh node computes. The span
				// context rides the traceparent header into the server.
				reqCtx = tracex.NewContext(ctx, spec.Tracer)
				reqCtx, span = tracex.StartSpan(reqCtx, "load warmup request")
				res.SampleTraceID = span.Context().Trace.String()
			}
			_, _ = c.Run(reqCtx, request(i))
			span.End()
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		if res.SampleTraceID != "" {
			res.SampleTrace = fetchSampleTrace(ctx, &c, spec.Tracer, res.SampleTraceID)
		}
	}
	sem := make(chan struct{}, spec.Concurrency)
	var wg sync.WaitGroup

	interval := time.Duration(float64(time.Second) / spec.TargetRPS)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.NewTimer(spec.Duration)
	defer deadline.Stop()

	start := time.Now()
	i := 0
drive:
	for {
		select {
		case <-ctx.Done():
			break drive
		case <-deadline.C:
			break drive
		case <-ticker.C:
		}
		select {
		case sem <- struct{}{}:
		default:
			// Concurrency bound hit: skip this tick rather than
			// back-pressure the ticker; the achieved rate reports it.
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			reqStart := time.Now()
			env, err := c.Run(ctx, request(i))
			elapsed := time.Since(reqStart)
			mu.Lock()
			defer mu.Unlock()
			res.Requests++
			switch {
			case err == nil && env.Status == studysvc.StatusDone:
				res.OK++
				if env.Cached {
					res.CacheHits++
				}
				latencies = append(latencies, elapsed)
			case isShed(err):
				res.Shed++
			default:
				res.Errors++
				msg := ""
				if err != nil {
					msg = err.Error()
				} else {
					msg = "run finished " + env.Status + ": " + env.Error
				}
				if len(res.ErrorSamples) < 5 {
					res.ErrorSamples = append(res.ErrorSamples, msg)
				}
			}
		}(i)
		i++
	}
	wg.Wait()
	wall := time.Since(start)

	res.DurationMS = wall.Milliseconds()
	if wall > 0 {
		res.AchievedRPS = float64(res.Requests) / wall.Seconds()
	}
	if n := res.OK + res.Shed; n > 0 {
		res.ShedRate = float64(res.Shed) / float64(n)
	}
	if res.Requests > 0 {
		res.ErrorRate = float64(res.Errors) / float64(res.Requests)
	}
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	if len(latencies) > 0 {
		res.P50MS = msAt(latencies, 0.50)
		res.P95MS = msAt(latencies, 0.95)
		res.P99MS = msAt(latencies, 0.99)
		res.MaxMS = float64(latencies[len(latencies)-1]) / float64(time.Millisecond)
	}
	return &res, nil
}

// fetchSampleTrace merges the generator-side half of the sampled
// cold-start trace with the server's. One fetch suffices: the client
// reads each reply to EOF, which the server sends only after its
// request span has ended. When the server runs without tracing (or
// the fetch fails) the local half alone is returned.
func fetchSampleTrace(ctx context.Context, c *studysvc.Client, tracer *tracex.Tracer, id string) *tracex.Trace {
	local, ok := tracer.Trace(id)
	if !ok {
		return nil
	}
	remote, err := c.Trace(ctx, id)
	if err != nil {
		return &local
	}
	merged := tracex.Merge(local, *remote)
	return &merged
}

// isShed reports whether err is the service's 429 admission rejection.
func isShed(err error) bool {
	var he *studysvc.HTTPError
	return errors.As(err, &he) && he.Status == 429
}

// msAt returns the q-quantile of sorted latencies in milliseconds
// (nearest-rank on the sorted slice — exact, not bucketed: the
// generator holds every sample).
func msAt(sorted []time.Duration, q float64) float64 {
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// String renders the result as the operator summary ewsweep prints.
func (r *Result) String() string {
	return fmt.Sprintf(
		"requests %d (ok %d, shed %d, errors %d, cache hits %d) in %dms\n"+
			"achieved %.1f rps, shed rate %.3f, error rate %.3f\n"+
			"latency p50 %.1fms p95 %.1fms p99 %.1fms max %.1fms",
		r.Requests, r.OK, r.Shed, r.Errors, r.CacheHits, r.DurationMS,
		r.AchievedRPS, r.ShedRate, r.ErrorRate, r.P50MS, r.P95MS, r.P99MS, r.MaxMS)
}
