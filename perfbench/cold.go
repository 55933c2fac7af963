package main

// cold-study: a researcher running the pipeline in-process, one fresh
// world per op (what cmd/ewpipeline does for one seed and scale).

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/tracex"
)

const (
	// coldOpsPerSecond is the nominal cold-study rate over the scale
	// range below; coldWorkers is one stage worker per core of the
	// 2-core reference machine.
	coldOpsPerSecond = 2.2
	coldWorkers      = 2
	coldScaleLo      = 0.01
	coldScaleHi      = 0.05
	// goldenPath is the committed seed-77 report, relative to the repo
	// root the benchmark runs from; the set-up compares against it so
	// the timed path is checked against an oracle outside itself.
	goldenPath = "internal/report/testdata/full_seed77_scale002.golden"
)

// studyCounts name the per-study work counts a cold-study traced run
// totals over its ops; each must repeat exactly from run to run.
var studyCounts = []string{
	"threads_selected", "tops", "crawl_tasks", "crawl_images",
	"images_hashed", "images_matched", "nsfv_classified",
	"reverse_searches", "proofs", "actors",
}

func countsOf(res *core.Results) map[string]int64 {
	return map[string]int64{
		"threads_selected": int64(len(res.EWhoringThreads)),
		"tops":             int64(len(res.Classifier.Extract.TOPs)),
		"crawl_tasks":      int64(res.CrawlStats.Tasks),
		"crawl_images":     int64(res.CrawlStats.UniqueImages),
		// Every fetched image passes the PhotoDNA gate.
		"images_hashed":    int64(res.CrawlStats.ImagesFetched),
		"images_matched":   int64(res.PhotoDNA.Matches),
		"nsfv_classified":  int64(len(res.NSFV.Previews) + len(res.NSFV.SFV)),
		"reverse_searches": int64(res.Provenance.Packs.Total + res.Provenance.Previews.Total),
		"proofs":           int64(len(res.Earnings.Proofs)),
		"actors":           int64(len(res.Actors.Profiles)),
	}
}

type coldEnv struct {
	ops []coldOp
	bad []string // set-up check failures
}

func setupCold(ctx context.Context, seed uint64, n int, _ bool) (env, error) {
	want, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		return nil, fmt.Errorf("cold-study needs the golden report (run from the repo root): %v", err)
	}
	e := &coldEnv{ops: coldOps(seed, n, coldScaleLo, coldScaleHi)}
	st := core.NewStudy(core.Options{Synth: synth.Config{Seed: 77, Scale: 0.02}, AnnotationSize: 300})
	res, err := st.Run(ctx)
	if err != nil {
		e.bad = append(e.bad, "golden study: "+err.Error())
	} else if report.Full(res) != string(want) {
		e.bad = append(e.bad, "seed-77 report differs from "+goldenPath)
	}
	return e, nil
}

func (e *coldEnv) close() {}

// nodeEval is the node-by-node evaluation of one study: each artefact
// computed by its own Study.Compute call, so the study's private memo
// makes each call run exactly that node.
type nodeEval struct {
	report string
	busy   map[string]time.Duration
	alloc  map[string]float64
}

func evalNodes(ctx context.Context, opts core.Options, world *synth.World) (nodeEval, error) {
	st := core.NewStudyWithWorld(opts, world)
	defer st.Close()
	ev := nodeEval{busy: map[string]time.Duration{}, alloc: map[string]float64{}}
	for _, name := range core.Artefacts() {
		r0, t0 := readRuntime(), time.Now()
		if _, err := st.Compute(ctx, name); err != nil {
			return ev, fmt.Errorf("node %s: %v", name, err)
		}
		ev.busy[name] = time.Since(t0)
		ev.alloc[name] = allocMB(r0, readRuntime())
	}
	res, err := st.Compute(ctx)
	if err != nil {
		return ev, err
	}
	ev.report = report.Full(res)
	return ev, nil
}

func (e *coldEnv) run(ctx context.Context, traced bool) pass {
	p := pass{counts: map[string]int64{}}
	for _, msg := range e.bad {
		p.problem("%s", msg)
	}
	var tracer *tracex.Tracer
	if traced {
		tracer = tracex.New(tracex.Config{MaxTraces: 4, MaxSpansPerTrace: 1 << 18})
	}
	acc := newLayerAcc()
	digest := fnv.New64a()

	for i, op := range e.ops {
		// Each op stands for a fresh ewpipeline process: start it from a
		// collected heap, outside the timed window.
		runtime.GC()
		cfg := synth.Config{Seed: op.Seed, Scale: op.Scale, Workers: coldWorkers}
		opts := core.Options{Synth: cfg, Workers: coldWorkers}
		octx := tracex.NewContext(ctx, tracer)
		octx, root := tracex.StartSpan(octx, "cold-study op")

		r0, c0, t0 := readRuntime(), cpuTime(), time.Now()
		world := synth.GenerateContext(octx, cfg)
		t1, r1 := time.Now(), readRuntime()
		res, err := core.NewStudyWithWorldContext(octx, opts, world).Run(octx)
		t2 := time.Now()
		var text string
		if err == nil {
			text = report.Full(res)
		}
		t3, c1, r3 := time.Now(), cpuTime(), readRuntime()
		root.End()
		if err != nil {
			p.fail("op %d (seed %d scale %g): %v", i, op.Seed, op.Scale, err)
			continue
		}
		// Keep only the op's counts and a hash of its report, so the
		// check below holds no more than the op itself did: the world
		// and one result set at a time.
		counts, reportSum := countsOf(res), sha256.Sum256([]byte(text))
		digest.Write([]byte(text))
		res, text = nil, ""
		// The check: the same op evaluated node by node must render the
		// same report as the DAG run.
		ev, err := evalNodes(ctx, opts, world)
		if err != nil || sha256.Sum256([]byte(ev.report)) != reportSum {
			p.fail("op %d (seed %d scale %g): DAG report differs from the node-by-node evaluation (%v)", i, op.Seed, op.Scale, err)
			continue
		}
		p.lat = append(p.lat, t3.Sub(t0))
		p.cpu += c1 - c0
		for k, v := range counts {
			p.counts["count."+k] += v
		}
		if !traced {
			continue
		}
		acc.add("synth.busy_ms", ms(t1.Sub(t0)))
		acc.add("synth.alloc_mb", allocMB(r0, r1))
		acc.add("report.render_ms", ms(t3.Sub(t2)))
		acc.op(r0, r3)
		var sum time.Duration
		for name, d := range ev.busy {
			acc.add("node."+name+".busy_ms", ms(d))
			acc.add("node."+name+".alloc_mb", ev.alloc[name])
			sum += d
		}
		acc.add("dag.overlap", sum.Seconds()/t2.Sub(t1).Seconds())
		p.counts["count.crawl_retries"] += crawlRetries(tracer, root)
	}
	p.counts["ops"] = int64(len(p.lat))
	p.counts["report_digest"] = int64(digest.Sum64() >> 1)
	if traced {
		p.layers = acc.layers()
		p.layerCounts(p.counts)
	}
	return p
}

// crawlRetries sums the re-attempts the crawler's fetch spans recorded
// under one op's root span.
func crawlRetries(t *tracex.Tracer, root *tracex.Span) int64 {
	tr, ok := t.Trace(root.Context().Trace.String())
	if !ok {
		return 0
	}
	var n int64
	for _, sp := range tr.Spans {
		if sp.Name != "crawl fetch" {
			continue
		}
		if a, err := strconv.Atoi(sp.Attrs["attempts"]); err == nil && a > 1 {
			n += int64(a - 1)
		}
	}
	return n
}
