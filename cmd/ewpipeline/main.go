// Command ewpipeline runs the Figure 1 measurement pipeline and prints
// every table and figure of the study in the paper's layout. The study
// runs on the artefact graph; any -workers count, 1 included, prints
// identical output for the same seed.
//
// The report goes to stdout and is byte-deterministic. The operational
// view goes to stderr: the generated world, the critical-path report
// of the run's trace (each artefact node's wall time, share and slack,
// with the chain that bounds the run marked) and the elapsed time.
//
// With -only the run is selective: only the named tables/figures (and
// the artefact subgraph they depend on) are computed and printed —
// "just Table 5" never pays for the actor analysis, and the
// critical-path report lists only the nodes that ran.
//
// With -remote the study is not run in-process at all: the options
// (including the -only selection) are POSTed to a live study service
// (cmd/ewserve's -study address) and the server's report is printed,
// with the cache verdict and server time on stderr. The server's
// per-node ledger is at GET /v1/stats and the run's trace is printed
// by `ewtrace -remote`.
//
// With -cpuprofile / -memprofile the run writes pprof profiles, so
// hot-path work (hashing, matching, the stage engine) is measurable
// with `go tool pprof` without editing code.
//
// Usage:
//
//	ewpipeline [-seed N] [-scale F] [-annotation N] [-workers N]
//	ewpipeline -only table5,figure2 [-seed N] [-scale F]
//	ewpipeline -cpuprofile cpu.pb.gz -memprofile mem.pb.gz [-seed N] [-scale F]
//	ewpipeline -remote http://127.0.0.1:8084 [-only table5] [-seed N] [-scale F]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/faultx"
	"repro/internal/report"
	"repro/internal/studysvc"
	"repro/internal/synth"
	"repro/internal/tracex"
)

func main() {
	// The body runs in run() so deferred cleanup — most importantly
	// flushing the CPU/heap profiles — executes on error exits too;
	// os.Exit would skip it.
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ewpipeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 2019, "world seed")
	scale := fs.Float64("scale", 0.05, "corpus scale (1.0 ≈ paper scale)")
	annotation := fs.Int("annotation", 1000, "annotated-thread corpus size")
	workers := fs.Int("workers", 0, "pipeline stage workers (0 = GOMAXPROCS)")
	only := fs.String("only", "", "comma-separated tables/figures to compute and print (e.g. table5,figure2); empty = everything")
	remote := fs.String("remote", "", "render via a live study service at this base URL instead of running in-process")
	faults := fs.String("faults", "", `faultx fault profile for the crawl substrate (e.g. "rot=0.3;down=oron.com"; DESIGN.md §13)`)
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (after the run) to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "ewpipeline:", err)
		return 1
	}

	if _, err := faultx.ParseProfile(*faults); err != nil {
		return fail(fmt.Errorf("bad -faults: %w", err))
	}
	names := cliutil.SplitNames(*only)
	_, arts, err := report.Resolve(names...)
	if err != nil {
		return fail(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		// The profile is written on StopCPUProfile; a failed close
		// means a truncated profile and must not pass silently.
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "ewpipeline: cpuprofile:", err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(stderr, "ewpipeline:", err)
			return
		}
		runtime.GC() // report steady-state live heap, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "ewpipeline:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "ewpipeline: memprofile:", err)
		}
	}()

	ctx := context.Background()
	start := time.Now()
	if *remote != "" {
		env, err := cliutil.RunRemote(ctx, *remote, studysvc.Request{
			Seed: *seed, Scale: *scale, AnnotationSize: *annotation,
			Workers: *workers, Artefacts: names, Faults: *faults,
		})
		if err != nil {
			return fail(err)
		}
		verdict := "executed on the server"
		if env.Cached {
			verdict = "served from the result cache"
		}
		fmt.Fprintf(stderr, "run %s: %s (server time %dms, round trip %v)\n",
			env.ID, verdict, env.ElapsedMS, time.Since(start).Round(time.Millisecond))
		if _, err := fmt.Fprintln(stdout, env.Report); err != nil {
			return fail(err)
		}
		return 0
	}

	// Spans are the run's timing record. The tracer keeps every span
	// of the one trace, so the critical-path report sees all of them.
	tracer := tracex.New(tracex.Config{MaxSpansPerTrace: 1 << 20})
	ctx, root := tracex.StartSpan(tracex.NewContext(ctx, tracer), "run")
	opts := core.Options{
		Synth:          synth.Config{Seed: *seed, Scale: *scale},
		AnnotationSize: *annotation,
		Workers:        *workers,
		Faults:         *faults,
	}
	sctx, synthSpan := tracex.StartSpan(ctx, "synth")
	synthSpan.SetAttr("workers", strconv.Itoa(opts.Synth.EffectiveWorkers()))
	study := core.NewStudyContext(sctx, opts)
	synthSpan.End()
	defer study.Close()
	store := study.World.Store
	fmt.Fprintf(stderr, "world generated in %v: %d threads, %d posts, %d actors\n",
		time.Since(start).Round(time.Millisecond), store.NumThreads(), store.NumPosts(), store.NumActors())

	res, err := study.Compute(ctx, arts...)
	if err != nil {
		return fail(err)
	}
	out, err := report.Render(res, names...)
	if err != nil {
		return fail(err)
	}
	if _, err := fmt.Fprintln(stdout, out); err != nil {
		return fail(err)
	}

	root.End()
	if tr, ok := tracer.Trace(root.Context().Trace.String()); ok {
		fmt.Fprintf(stderr, "--- critical path ---\n%s", tracex.CriticalPath(tr, core.SpanDeps()).Render())
	}
	fmt.Fprintf(stderr, "study complete in %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}
