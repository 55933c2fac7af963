// Command ewreport regenerates every table and figure of the study
// against a synthetic world and prints them in the paper's layout. The
// study runs on the artefact graph; any -workers count, 1 included,
// prints identical output for the same seed.
//
// With -only the run is selective: only the named tables/figures (and
// the artefact subgraph they depend on) are computed and printed —
// "just Table 5" never pays for the actor analysis.
//
// With -remote the study is not run in-process at all: the options
// (including the -only selection) are POSTed to a live study service
// (cmd/ewserve's -study address) and the server's report is printed.
//
// Usage:
//
//	ewreport [-seed N] [-scale F] [-annotation N] [-workers N]
//	ewreport -only table5,figure2 [-seed N] [-scale F]
//	ewreport -remote http://127.0.0.1:8084 [-only table5] [-seed N] [-scale F]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/studysvc"
	"repro/internal/synth"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Uint64("seed", 2019, "world seed")
	scale := flag.Float64("scale", 0.1, "corpus scale (1.0 ≈ paper scale)")
	annotation := flag.Int("annotation", 1000, "annotated-thread corpus size")
	workers := flag.Int("workers", 0, "pipeline stage workers (0 = GOMAXPROCS)")
	only := flag.String("only", "", "comma-separated tables/figures to compute and print (e.g. table5,figure2); empty = everything")
	remote := flag.String("remote", "", "render via a live study service at this base URL instead of running in-process")
	flag.Parse()
	ctx := context.Background()
	names := cliutil.SplitNames(*only)

	if *remote != "" {
		start := time.Now()
		env, err := cliutil.RunRemote(ctx, *remote, studysvc.Request{
			Seed: *seed, Scale: *scale, AnnotationSize: *annotation,
			Workers: *workers, Artefacts: names,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ewreport:", err)
			return 1
		}
		verdict := "executed on the server"
		if env.Cached {
			verdict = "served from the result cache"
		}
		fmt.Fprintf(os.Stderr, "run %s: %s (server time %dms, round trip %v)\n\n",
			env.ID, verdict, env.ElapsedMS, time.Since(start).Round(time.Millisecond))
		fmt.Println(env.Report)
		return 0
	}

	start := time.Now()
	study := core.NewStudy(core.Options{
		Synth:          synth.Config{Seed: *seed, Scale: *scale},
		AnnotationSize: *annotation,
		Workers:        *workers,
	})
	fmt.Fprintf(os.Stderr, "world generated in %v: %d threads, %d posts, %d actors\n",
		time.Since(start).Round(time.Millisecond),
		study.World.Store.NumThreads(), study.World.Store.NumPosts(), study.World.Store.NumActors())

	if len(names) > 0 {
		res, err := study.Compute(ctx, names...)
		study.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ewreport:", err)
			return 1
		}
		out, err := report.Render(res, names...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ewreport:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "selection complete in %v\n\n", time.Since(start).Round(time.Millisecond))
		fmt.Println(out)
		return 0
	}

	res, err := study.Run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ewreport:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "study complete in %v\n\n", time.Since(start).Round(time.Millisecond))
	fmt.Println(report.Full(res))
	return 0
}
