// Command ewsweep plans and runs a scenario sweep: a grid of full
// studies over seeds, scales, annotation sizes and worker counts,
// aggregated into per-artefact mean / stddev / 95% CI tables, a
// paper-vs-measured stability table and (for scale ladders)
// scale-sensitivity slopes. It is the many-seed generalization of
// cmd/ewpipeline's single study.
//
// Presets:
//
//	cross-seed-stability   N seeds at one scale — are the artefacts stable across worlds?
//	scale-sensitivity      a scale ladder per seed — what grows with the world, what is calibrated?
//	crawler-concurrency    crawler workers 1/2/4/8 — artefacts must not move, only timings
//	adversarial-hosts      a fault-intensity ladder per seed (rate limits, link rot, dead
//	                       hosts via internal/faultx) — detection recall vs adversary strength
//
// With -remote the cells are POSTed to a live study service
// (cmd/ewserve's -study address), one POST /v1/study per cell, which
// turns the sweep into a load generator: concurrent study requests
// exercising the service's worker pool, request coalescing and result
// cache, with aggregates identical to the local run.
//
// Local cells share generated worlds and, under every preset but
// crawler-concurrency, artefact values; results are identical either
// way.
//
// -load promotes the remote mode into the SLO harness: instead of a
// sweep grid it drives a target request rate for a fixed duration and
// reports latency percentiles, achieved throughput and the service's
// shed rate, optionally as a benchjson artifact (-bench-out) that the
// CI load-slo job diffs against the committed BENCH_load.json.
//
// -trace opens a root span around the sweep and renders the resulting
// span tree plus the critical-path report (internal/tracex) when it
// finishes. With per-cell -remote the traceparent header carries the
// sweep's trace into the server, whose spans are fetched back from
// GET /v1/trace/{id} and merged, so one trace spans both processes.
// -trace-out writes a Chrome trace-event (Perfetto) export; with -load
// it instead samples the first warmup request and writes the server's
// export of that cold-start trace.
//
// Usage:
//
//	ewsweep -preset cross-seed-stability -seeds 10 -scale 0.05
//	ewsweep -scales 0.01,0.02,0.04 -seeds 3
//	ewsweep -preset crawler-concurrency -seeds 2 -scale 0.02
//	ewsweep -remote http://127.0.0.1:8084 -preset cross-seed-stability -seeds 10 -scale 0.05
//	ewsweep -remote http://127.0.0.1:8084 -load -rps 20 -duration 5s -bench-out BENCH_load.fresh.json
//	ewsweep -remote http://127.0.0.1:8084 -trace -seeds 1 -scale 0.01
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/artefact"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/faultx"
	"repro/internal/loadgen"
	"repro/internal/report"
	"repro/internal/studysvc"
	"repro/internal/sweep"
	"repro/internal/tracex"
)

func main() {
	preset := flag.String("preset", "", "scenario preset: "+strings.Join(sweep.Presets(), ", ")+" (empty = custom/single)")
	seeds := flag.Int("seeds", 0, "number of consecutive seeds (preset default if 0)")
	seed := flag.Uint64("seed", 2019, "base world seed")
	scale := flag.Float64("scale", 0.05, "base corpus scale")
	scales := flag.String("scales", "", "comma-separated scale list (custom grid)")
	seedList := flag.String("seed-list", "", "comma-separated explicit seed list (custom grid)")
	annotation := flag.Int("annotation", 0, "annotated-thread corpus size (0 = study default)")
	workers := flag.Int("workers", 0, "pipeline stage workers per study (0 = GOMAXPROCS)")
	crawl := flag.Int("crawl", 0, "crawler workers per study (0 = study default)")
	faults := flag.String("faults", "", `base faultx fault profile for every cell (e.g. "rot=0.3"; the adversarial-hosts preset sweeps its own ladder instead)`)
	parallel := flag.Int("parallel", 2, "concurrent cells")
	cellTimeout := flag.Duration("cell-timeout", 10*time.Minute, "per-cell timeout")
	remote := flag.String("remote", "", "drive a live study service at this base URL")
	jsonOut := flag.Bool("json", false, "emit the full sweep result as JSON")
	quiet := flag.Bool("quiet", false, "suppress per-cell progress lines")
	load := flag.Bool("load", false, "with -remote: drive target-RPS load instead of a sweep and measure latency/shed SLOs")
	rps := flag.Float64("rps", 20, "with -load: target request rate")
	duration := flag.Duration("duration", 5*time.Second, "with -load: how long to drive")
	loadSeeds := flag.Int("load-seeds", 4, "with -load: distinct world seeds cycled through")
	loadConcurrency := flag.Int("load-concurrency", 0, "with -load: max in-flight requests (0 = 2×rps)")
	benchOut := flag.String("bench-out", "", "with -load: write the result as a benchjson artifact to this file")
	readyTimeout := flag.Duration("ready-timeout", 15*time.Second, "with -load: how long to wait for the service to answer /v1/stats")
	trace := flag.Bool("trace", false, "trace the sweep and print the span tree + critical-path report")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event (Perfetto) export to this file (with -load: of the sampled cold-start request)")
	flag.Parse()

	if *load {
		if *remote == "" {
			fatalf("-load requires -remote (the live service to drive)")
		}
		runLoad(loadParams{
			remote: *remote, rps: *rps, duration: *duration,
			seeds: *loadSeeds, concurrency: *loadConcurrency,
			seed: *seed, scale: *scale, annotation: *annotation,
			benchOut: *benchOut, readyTimeout: *readyTimeout, jsonOut: *jsonOut,
			traceOut: *traceOut,
		})
		return
	}

	if _, err := faultx.ParseProfile(*faults); err != nil {
		fatalf("bad -faults: %v", err)
	}
	spec := sweep.Spec{
		Preset: *preset, Seeds: *seeds, Seed: *seed, Scale: *scale,
		Annotation: *annotation, Workers: *workers, CrawlConcurrency: *crawl,
		Faults:      *faults,
		Parallelism: *parallel,
	}
	if *scales != "" || *seedList != "" {
		g := &sweep.Grid{}
		var err error
		if g.Scales, err = parseFloats(*scales); err != nil {
			fatalf("bad -scales: %v", err)
		}
		if g.Seeds, err = parseUints(*seedList); err != nil {
			fatalf("bad -seed-list: %v", err)
		}
		spec.Grid = g
	}
	cells, err := spec.Cells()
	if err != nil {
		fatalf("%v", err)
	}

	ctx := context.Background()
	var (
		tracer   *tracex.Tracer
		rootSpan *tracex.Span
	)
	if *trace {
		// Seed the id source from wall time: the sweep's span ids must
		// not collide with the server's inside the shared trace.
		tracer = tracex.New(tracex.Config{IDs: tracex.NewSeqIDs(uint64(time.Now().UnixNano()))})
		ctx = tracex.NewContext(ctx, tracer)
		ctx, rootSpan = tracex.StartSpan(ctx, "sweep")
		rootSpan.SetAttr("spec", spec.Name())
	}
	var backend sweep.Backend
	mode := "local"
	if *remote != "" {
		backend = studysvc.Backend{Client: studysvc.NewClient(*remote, nil)}
		mode = "remote via " + *remote + " (one POST /v1/study per cell)"
	} else {
		// Local cells share generated worlds and artefact values: a
		// grid varying only annotation or concurrency axes generates
		// each world once, and cells whose semantic parameters match
		// reuse whole artefact prefixes. The crawler-concurrency preset
		// measures per-cell timing across crawl worker counts — an axis
		// the memo keys exclude on purpose — so sharing would turn every
		// cell after the first into a ~0ms memo read; it runs without
		// the memo.
		local := sweep.Local{Worlds: sweep.NewWorldCache(0)}
		if *preset != sweep.PresetConcurrency {
			local.Memo = artefact.NewStore(0)
		}
		backend = local
	}
	fmt.Fprintf(os.Stderr, "==> sweep %s: %d cells, parallelism %d, %s\n",
		spec.Name(), len(cells), *parallel, mode)
	opts := sweep.Options{Parallelism: *parallel, CellTimeout: *cellTimeout}
	if !*quiet {
		opts.OnCell = func(done, total int, o sweep.Outcome) {
			status := "ok"
			switch {
			case o.Err != "":
				status = "FAILED: " + o.Err
			case o.Cached:
				status = "cached"
			}
			fmt.Fprintf(os.Stderr, "    [%d/%d] cell %d (%s) %dms %s\n",
				done, total, o.Index, o.Cell, o.ElapsedMS, status)
		}
	}
	res := sweep.Run(ctx, spec.Name(), cells, backend, opts)
	rootSpan.End()

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatalf("%v", err)
		}
	} else {
		fmt.Println(report.Sweep(res))
	}
	if *trace {
		printTrace(tracer, rootSpan.Context().Trace.String(), *remote, *traceOut)
	}
	// A partially-failed sweep is a failure in every output mode: the
	// ledger (text or JSON) has the details, the exit code the verdict.
	if len(res.Errors) > 0 {
		os.Exit(1)
	}
}

// printTrace renders the sweep's span tree and critical-path report.
// With a remote service, the server's half of the trace (propagated
// via the traceparent header on each cell's POST) is fetched from GET
// /v1/trace/{id} and merged, so the rendering spans both processes.
func printTrace(tracer *tracex.Tracer, id, remote, out string) {
	tr, ok := tracer.Trace(id)
	if !ok {
		fmt.Fprintf(os.Stderr, "ewsweep: trace %s not found in local ring\n", id)
		return
	}
	if remote != "" {
		remoteTr, err := studysvc.NewClient(remote, nil).Trace(context.Background(), id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ewsweep: fetching server-side trace: %v\n", err)
		} else {
			tr = tracex.Merge(tr, *remoteTr)
		}
	}
	fmt.Println(tr.RenderTree())
	fmt.Println(tracex.CriticalPath(tr, core.SpanDeps()).Render())
	if out != "" {
		if err := os.WriteFile(out, tr.ChromeTrace(), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (trace %s)\n", out, id)
	}
}

// loadParams collects the -load flag set.
type loadParams struct {
	remote       string
	rps          float64
	duration     time.Duration
	seeds        int
	concurrency  int
	seed         uint64
	scale        float64
	annotation   int
	benchOut     string
	readyTimeout time.Duration
	jsonOut      bool
	traceOut     string
}

// runLoad is the -load mode: wait for the service, drive target RPS
// through internal/loadgen, print the SLO summary and (optionally)
// write the benchjson artifact the load-slo CI gate diffs against
// BENCH_load.json. Shed requests are the admission control working as
// designed; only transport or run failures exit nonzero.
func runLoad(p loadParams) {
	ctx := context.Background()
	if err := cliutil.WaitReady(ctx, p.remote, p.readyTimeout); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "==> load: %.0f rps for %v against %s (%d seeds, scale %g)\n",
		p.rps, p.duration, p.remote, p.seeds, p.scale)
	client := studysvc.NewClient(p.remote, nil)
	var tracer *tracex.Tracer
	if p.traceOut != "" {
		tracer = tracex.New(tracex.Config{IDs: tracex.NewSeqIDs(uint64(time.Now().UnixNano()))})
	}
	res, err := loadgen.Run(ctx, client, loadgen.Spec{
		TargetRPS:      p.rps,
		Duration:       p.duration,
		Concurrency:    p.concurrency,
		Seeds:          p.seeds,
		Seed:           p.seed,
		Scale:          p.scale,
		AnnotationSize: p.annotation,
		Warmup:         true,
		Tracer:         tracer,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if p.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatalf("%v", err)
		}
	} else {
		fmt.Println(res)
	}
	if p.benchOut != "" {
		data, err := res.BenchArtifact()
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(p.benchOut, data, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", p.benchOut)
	}
	if p.traceOut != "" {
		writeSampleTrace(res, p.traceOut)
	}
	if res.Errors > 0 {
		for _, e := range res.ErrorSamples {
			fmt.Fprintf(os.Stderr, "ewsweep: load error: %s\n", e)
		}
		os.Exit(1)
	}
}

// writeSampleTrace writes the Chrome trace-event export of the run's
// sampled cold-start trace (both halves already merged by loadgen,
// which fetches the server's before the measured window evicts it
// from the bounded ring) — the artifact the CI load-slo job uploads
// beside the bench numbers.
func writeSampleTrace(res *loadgen.Result, out string) {
	if res.SampleTrace == nil {
		fmt.Fprintln(os.Stderr, "ewsweep: no trace sampled (warmup did not run)")
		return
	}
	if err := os.WriteFile(out, res.SampleTrace.ChromeTrace(), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (trace %s)\n", out, res.SampleTraceID)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ewsweep: "+format+"\n", args...)
	os.Exit(1)
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseUints(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
