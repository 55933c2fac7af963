// Command ewpipeline runs the Figure 1 measurement pipeline with
// progress reporting — the operational view of the study, as opposed
// to ewreport's final tables. The study runs on the artefact graph
// under a local tracer and ends with the trace's critical-path report:
// each artefact node's wall time, share and slack, with the chain that
// bounds the run marked. Any -workers count, 1 included, produces
// identical results for the same seed.
//
// With -only the run is selective: only the named tables/figures (and
// the artefact subgraph they depend on) execute — the critical-path
// report then lists only the nodes that ran.
//
// With -remote the study is not run in-process at all: the options are
// POSTed to a live study service (cmd/ewserve's -study address) and
// the server's summary and cache verdict are printed. The server's
// per-node ledger is at GET /v1/stats and the run's trace is printed
// by `ewtrace -remote`.
//
// With -cpuprofile / -memprofile the run writes pprof profiles, so
// hot-path work (hashing, matching, the stage engine) is measurable
// with `go tool pprof` without editing code.
//
// Usage:
//
//	ewpipeline [-seed N] [-scale F] [-workers N]
//	ewpipeline -only table5,figure2 [-seed N] [-scale F]
//	ewpipeline -cpuprofile cpu.pb.gz -memprofile mem.pb.gz [-seed N] [-scale F]
//	ewpipeline -remote http://127.0.0.1:8084 [-seed N] [-scale F] [-workers N]
package main

import (
	"context"
	"flag"
	"fmt"
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
	os.Exit(run())
}

func run() int {
	seed := flag.Uint64("seed", 2019, "world seed")
	scale := flag.Float64("scale", 0.05, "corpus scale")
	workers := flag.Int("workers", 0, "pipeline stage workers (0 = GOMAXPROCS)")
	only := flag.String("only", "", "comma-separated tables/figures to compute (e.g. table5,figure2); empty = the full study")
	remote := flag.String("remote", "", "drive a live study service at this base URL instead of running in-process")
	faults := flag.String("faults", "", `faultx fault profile for the crawl substrate (e.g. "rot=0.3;down=oron.com"; DESIGN.md §13)`)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()
	ctx := context.Background()

	if _, err := faultx.ParseProfile(*faults); err != nil {
		fmt.Fprintln(os.Stderr, "ewpipeline: bad -faults:", err)
		return 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ewpipeline:", err)
			return 1
		}
		// The profile is written on StopCPUProfile; a failed close
		// means a truncated profile and must not pass silently.
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "ewpipeline: cpuprofile:", err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ewpipeline:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ewpipeline:", err)
			return
		}
		runtime.GC() // report steady-state live heap, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ewpipeline:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ewpipeline: memprofile:", err)
		}
	}()

	names := cliutil.SplitNames(*only)
	if *remote != "" {
		if err := runRemote(ctx, *remote, studysvc.Request{
			Seed: *seed, Scale: *scale, Workers: *workers, Artefacts: names,
			Faults: *faults,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "ewpipeline:", err)
			return 1
		}
		return 0
	}
	// Spans are the run's timing record. The tracer keeps every span
	// of the one trace, so the critical-path report sees all of them.
	tracer := tracex.New(tracex.Config{MaxSpansPerTrace: 1 << 20})
	ctx, root := tracex.StartSpan(tracex.NewContext(ctx, tracer), "run")
	opts := core.Options{
		Synth:   synth.Config{Seed: *seed, Scale: *scale},
		Workers: *workers,
		Faults:  *faults,
	}
	sctx, synthSpan := tracex.StartSpan(ctx, "synth")
	synthSpan.SetAttr("workers", strconv.Itoa(opts.Synth.EffectiveWorkers()))
	study := core.NewStudyContext(sctx, opts)
	synthSpan.End()
	defer study.Close()

	if len(names) > 0 {
		fmt.Printf("==> computing %v (seed=%d scale=%g)\n", names, *seed, *scale)
		start := time.Now()
		res, err := study.Compute(ctx, names...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ewpipeline:", err)
			return 1
		}
		out, err := report.Render(res, names...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ewpipeline:", err)
			return 1
		}
		fmt.Printf("\n%s", out)
		printCriticalPath(tracer, root)
		fmt.Printf("\nselection complete in %v\n", time.Since(start).Round(time.Millisecond))
		return 0
	}

	fmt.Printf("==> running study (seed=%d scale=%g)\n", *seed, *scale)
	start := time.Now()
	res, err := study.Run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ewpipeline:", err)
		return 1
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	fmt.Printf("\n--- dataset (§3) ---\n")
	fmt.Printf("  %d eWhoring threads across %d forums\n",
		len(res.EWhoringThreads), len(res.Table1))

	m := res.Classifier.Metrics
	fmt.Printf("--- TOP classifier (§4.1) ---\n")
	fmt.Printf("  P=%.2f R=%.2f F1=%.2f; TOPs=%d (ML %d, heur %d, both %d)\n",
		m.Precision(), m.Recall(), m.F1(),
		len(res.Classifier.Extract.TOPs), res.Classifier.Extract.MLCount,
		res.Classifier.Extract.HeurCount, res.Classifier.Extract.BothCount)

	fmt.Printf("--- URL extraction + crawl (§4.2) ---\n")
	fmt.Printf("  %d tasks from %d TOPs (+%d snowballed domains)\n",
		len(res.Links.Tasks), res.Links.ThreadsWithLinks, res.Links.SnowballAdded)
	st := res.CrawlStats
	fmt.Printf("  %d preview images, %d packs (%d images), %d unique\n",
		st.PreviewImages, st.PacksFetched, st.PackImages, st.UniqueImages)
	if cov := st.Coverage; cov.Degraded {
		fmt.Printf("  DEGRADED: %d tasks failed; dead hosts %v\n", cov.Errors, cov.DeadHosts)
	}

	fmt.Printf("--- PhotoDNA filter (§4.3) ---\n")
	fmt.Printf("  %d matches reported, %d URLs actioned\n",
		res.PhotoDNA.Matches, res.PhotoDNA.ActionableURLs)

	fmt.Printf("--- NSFV classification (§4.4) ---\n")
	fmt.Printf("  %d NSFV previews, %d SFV, %d pack images\n",
		len(res.NSFV.Previews), len(res.NSFV.SFV), len(res.NSFV.PackImages))

	fmt.Printf("--- reverse search + provenance (§4.5) ---\n")
	fmt.Printf("  packs: %d/%d matched; previews: %d/%d; %d domains; %d zero-match packs\n",
		res.Provenance.Packs.Matched, res.Provenance.Packs.Total,
		res.Provenance.Previews.Matched, res.Provenance.Previews.Total,
		len(res.Provenance.Domains), res.Provenance.ZeroMatch)

	fmt.Printf("--- earnings (§5) ---\n")
	fmt.Printf("  %d proofs by %d actors, total $%.0f\n",
		res.Earnings.Summary.Proofs, res.Earnings.Summary.Actors, res.Earnings.Summary.TotalUSD)

	fmt.Printf("--- actors (§6) ---\n")
	fmt.Printf("  %d profiles, %d key actors\n",
		len(res.Actors.Profiles), len(res.Actors.Key.All))

	printCriticalPath(tracer, root)
	fmt.Printf("\npipeline complete in %v\n", elapsed)
	return 0
}

// printCriticalPath ends the run's root span and prints the
// critical-path report of its trace, the view ewsweep -trace and
// ewtrace print.
func printCriticalPath(tracer *tracex.Tracer, root *tracex.Span) {
	root.End()
	tr, ok := tracer.Trace(root.Context().Trace.String())
	if !ok {
		return
	}
	fmt.Printf("\n--- critical path ---\n%s", tracex.CriticalPath(tr, core.SpanDeps()).Render())
}

// runRemote drives one study against a live service and prints the
// server's view of it — the full summary blocks, or the partial
// report when the request carried an artefact selection.
func runRemote(ctx context.Context, baseURL string, req studysvc.Request) error {
	fmt.Printf("==> running study via %s (seed=%d scale=%g)\n", baseURL, req.Seed, req.Scale)
	start := time.Now()
	env, err := cliutil.RunRemote(ctx, baseURL, req)
	if err != nil {
		return err
	}
	verdict := "executed on the server"
	if env.Cached {
		verdict = "served from the result cache"
	}
	fmt.Printf("run %s: %s (server time %dms, round trip %v)\n",
		env.ID, verdict, env.ElapsedMS, time.Since(start).Round(time.Millisecond))
	if env.Degraded {
		fmt.Println("run DEGRADED: the crawl lost coverage (see the report's ledger)")
	}

	if env.Summary == nil {
		// A filtered run has no summary; the partial report is the
		// server's whole answer.
		fmt.Printf("\n%s", env.Report)
		return nil
	}

	s := env.Summary
	fmt.Printf("\n--- dataset (§3) ---\n")
	fmt.Printf("  %d eWhoring threads across %d forums\n", s.EWhoringThreads, s.Forums)
	fmt.Printf("--- pipeline (§4) ---\n")
	fmt.Printf("  %d TOPs, %d crawl tasks, %d unique images\n", s.TOPs, s.CrawlTasks, s.UniqueImages)
	fmt.Printf("  %d PhotoDNA matches, %d NSFV previews\n", s.PhotoDNAMatches, s.NSFVPreviews)
	fmt.Printf("  reverse: packs %d/%d, previews %d/%d, %d domains\n",
		s.PacksMatched, s.PacksTotal, s.PreviewsMatched, s.PreviewsTotal, s.MatchedDomains)
	fmt.Printf("--- economy (§5-§6) ---\n")
	fmt.Printf("  %d proofs totalling $%.0f, %d profiles, %d key actors\n",
		s.Proofs, s.TotalUSD, s.Profiles, s.KeyActors)
	return nil
}
