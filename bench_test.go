// Package repro's benchmark harness regenerates every table and
// figure of "Measuring eWhoring" (IMC 2019). Each benchmark measures
// the analysis stage that produces one paper artefact, over a shared
// synthetic world; DESIGN.md §4 maps benchmarks to paper artefacts and
// EXPERIMENTS.md records paper-vs-measured values.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/actors"
	"repro/internal/artefact"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/domaincls"
	"repro/internal/earnings"
	"repro/internal/forum"
	"repro/internal/imagex"
	"repro/internal/ml"
	"repro/internal/nsfv"
	"repro/internal/nsfw"
	"repro/internal/photodna"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/topclass"
	"repro/internal/urlx"
)

// fixture holds the shared study state, built once.
type fixture struct {
	study *core.Study
	ew    []forum.ThreadID
	cls   core.ClassifierResult
	links core.LinkExtraction
	crawl []crawler.Result
	safe  []core.SafeImage
	nsfv  core.NSFVResult
	prov  core.ProvenanceResult
	earn  core.EarningsResult
	act   core.ActorAnalysis
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func setup(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		f := &fixture{}
		f.study = core.NewStudy(core.Options{
			Synth:          synth.Config{Seed: 2019, Scale: 0.03},
			AnnotationSize: 500,
		})
		ctx := context.Background()
		f.ew = f.study.SelectEWhoring()
		if f.cls, fixErr = f.study.TrainAndExtract(f.ew); fixErr != nil {
			return
		}
		var whitelist *urlx.Whitelist
		f.links, whitelist = f.study.ExtractLinks(ctx, f.cls.Extract.TOPs)
		if f.crawl, fixErr = f.study.CrawlLinks(ctx, f.links.Tasks); fixErr != nil {
			return
		}
		if f.safe, _, fixErr = f.study.FilterAbuse(ctx, f.crawl); fixErr != nil {
			return
		}
		if f.nsfv, fixErr = f.study.ClassifyNSFV(ctx, f.safe); fixErr != nil {
			return
		}
		if f.prov, fixErr = f.study.Provenance(ctx, f.nsfv); fixErr != nil {
			return
		}
		if f.earn, fixErr = f.study.AnalyzeEarnings(ctx, f.ew, whitelist); fixErr != nil {
			return
		}
		f.act = f.study.AnalyzeActors(f.ew, f.cls.Extract.TOPs, f.earn.Proofs)
		fix = f
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

// --- Table 1 -----------------------------------------------------------

func BenchmarkTable1ForumOverview(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := f.study.ForumOverview(f.ew)
		if len(rows) != 10 {
			b.Fatal("Table 1 wrong shape")
		}
	}
}

// --- Table 2 (keyword methodology) ---------------------------------------

func BenchmarkTable2KeywordScan(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := f.study.World.Store.SearchHeadings(topclass.EWhoringKeywords...)
		if len(ids) == 0 {
			b.Fatal("keyword scan found nothing")
		}
	}
}

// --- §4.1 classifier -------------------------------------------------------

func BenchmarkTOPClassifier(b *testing.B) {
	f := setup(b)
	sample := f.study.World.AnnotationSample(400, 9)
	labeled := make([]topclass.Labeled, len(sample))
	for i, s := range sample {
		labeled[i] = topclass.Labeled{Thread: s.Thread, IsTOP: s.IsTOP}
	}
	train, test := labeled[:320], labeled[320:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := topclass.Train(f.study.World.Store, urlx.DefaultWhitelist(), train, ml.DefaultSVMConfig())
		if err != nil {
			b.Fatal(err)
		}
		m := h.Evaluate(test)
		b.ReportMetric(m.F1(), "F1")
	}
}

// --- Tables 3 and 4 ----------------------------------------------------------

func BenchmarkTable3ImageSharingLinks(b *testing.B) {
	f := setup(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		links, _ := f.study.ExtractLinks(ctx, f.cls.Extract.TOPs)
		if len(links.ImageSharing) == 0 {
			b.Fatal("no image-sharing links")
		}
	}
}

func BenchmarkTable4CloudStorageLinks(b *testing.B) {
	f := setup(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		links, _ := f.study.ExtractLinks(ctx, f.cls.Extract.TOPs)
		if len(links.CloudStorage) == 0 {
			b.Fatal("no cloud-storage links")
		}
	}
}

// --- §4.2 crawl --------------------------------------------------------------

func BenchmarkCrawl(b *testing.B) {
	f := setup(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := f.study.CrawlLinks(ctx, f.links.Tasks)
		if err != nil {
			b.Fatal(err)
		}
		st := crawler.Summarize(results)
		if st.ImagesFetched == 0 {
			b.Fatal("crawl fetched nothing")
		}
		b.ReportMetric(float64(st.ImagesFetched), "images")
	}
}

// --- §4.3 PhotoDNA -------------------------------------------------------------

func BenchmarkPhotoDNAFilter(b *testing.B) {
	f := setup(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		safe, summary, err := f.study.FilterAbuse(ctx, f.crawl)
		if err != nil {
			b.Fatal(err)
		}
		if len(safe) == 0 || summary.Matches == 0 {
			b.Fatal("filter degenerate")
		}
	}
}

// BenchmarkHashImage measures the fused composite perceptual hash on
// a study-shaped raster — the innermost operation of the PhotoDNA
// gate, the reverse index and crawl dedup. Steady-state allocations
// must be zero (pinned by imagex.TestHashImageZeroAlloc).
func BenchmarkHashImage(b *testing.B) {
	im := imagex.GenModel(1, 0, imagex.PoseNude, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = photodna.HashImage(im)
	}
}

// --- §4.4 NSFV ---------------------------------------------------------------

func BenchmarkNSFVClassifier(b *testing.B) {
	f := setup(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.study.ClassifyNSFV(ctx, f.safe)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Previews) == 0 {
			b.Fatal("no previews")
		}
	}
}

// --- Table 5 -------------------------------------------------------------------

func BenchmarkTable5ReverseSearch(b *testing.B) {
	f := setup(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prov, err := f.study.Provenance(ctx, f.nsfv)
		if err != nil {
			b.Fatal(err)
		}
		if prov.Packs.Total == 0 {
			b.Fatal("no pack searches")
		}
		b.ReportMetric(100*float64(prov.Packs.Matched)/float64(prov.Packs.Total), "pack-match-%")
	}
}

// --- Table 6 --------------------------------------------------------------------

func BenchmarkTable6DomainCategories(b *testing.B) {
	f := setup(b)
	dir := f.study.World.Directory
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mk := range []func(*domaincls.Directory) *domaincls.Classifier{
			domaincls.NewMcAfee, domaincls.NewVirusTotal, domaincls.NewOpenDNS,
		} {
			rows := domaincls.Tally(mk(dir), f.prov.Domains, 85)
			if len(rows) == 0 {
				b.Fatal("empty tally")
			}
		}
	}
}

// --- Figure 2 ---------------------------------------------------------------------

func BenchmarkFigure2EarningsCDF(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e1 := stats.NewECDF(f.earn.PerActorUSD)
		e2 := stats.NewECDF(f.earn.PerActorProofs)
		if e1.N() == 0 || e2.N() == 0 {
			b.Fatal("empty CDFs")
		}
		_ = e1.Series(20)
		_ = e2.Series(20)
	}
}

// --- Figure 3 ----------------------------------------------------------------------

func BenchmarkFigure3PlatformEvolution(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first, last, ok := f.earn.MonthlyAGC.Span()
		if !ok {
			b.Fatal("no AGC series")
		}
		dense := f.earn.MonthlyAGC.Dense(first, last)
		if len(dense) == 0 {
			b.Fatal("empty series")
		}
	}
}

// --- Table 7 -----------------------------------------------------------------------

func BenchmarkTable7CurrencyExchange(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := f.study.ExchangeAnalysis(f.act.Profiles)
		if tbl.Total == 0 {
			b.Fatal("empty Table 7")
		}
	}
}

// --- Table 8 / Figure 4 ---------------------------------------------------------------

func BenchmarkTable8ActorOverview(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profiles := actors.BuildProfiles(f.study.World.Store, f.ew)
		rows := actors.Buckets(profiles, nil)
		if rows[0].Actors == 0 {
			b.Fatal("empty Table 8")
		}
	}
}

func BenchmarkFigure4ActorCDFs(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, thr := range actors.Table8Thresholds {
			_ = actors.CollectSamples(f.act.Profiles, thr)
		}
	}
}

// --- Tables 9 and 10 ---------------------------------------------------------------------

func BenchmarkTable9KeyActorIntersections(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ka := actors.SelectKeyActors(f.act.Inputs, actors.SelectionConfig{TopK: 20, MinPacks: 2})
		inter := ka.Intersections()
		if len(inter) == 0 {
			b.Fatal("empty intersections")
		}
	}
}

func BenchmarkTable10KeyActorGroups(b *testing.B) {
	f := setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := f.act.Key.GroupCharacteristics(f.act.Profiles, f.act.Inputs)
		if len(rows) == 0 {
			b.Fatal("empty Table 10")
		}
	}
}

// --- Figure 5 ------------------------------------------------------------------------------

func BenchmarkFigure5InterestEvolution(b *testing.B) {
	f := setup(b)
	ewSet := forum.NewThreadSet(f.ew...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := actors.Interests(f.study.World.Store, f.act.Key.All, f.act.Profiles, ewSet, "Lounge")
		if len(fig) != 3 {
			b.Fatal("wrong phase count")
		}
	}
}

// --- Ablations ---------------------------------------------------------------------------------

// BenchmarkAblationHybridClassifier compares ML-only, heuristics-only
// and the union — the design choice §4.1 motivates.
func BenchmarkAblationHybridClassifier(b *testing.B) {
	f := setup(b)
	sample := f.study.World.AnnotationSample(400, 17)
	labeled := make([]topclass.Labeled, len(sample))
	for i, s := range sample {
		labeled[i] = topclass.Labeled{Thread: s.Thread, IsTOP: s.IsTOP}
	}
	train, test := labeled[:320], labeled[320:]
	h, err := topclass.Train(f.study.World.Store, urlx.DefaultWhitelist(), train, ml.DefaultSVMConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ml-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var m ml.Metrics
			for _, l := range test {
				m.Observe(h.Classify(l.Thread).ML, l.IsTOP)
			}
			b.ReportMetric(m.F1(), "F1")
		}
	})
	b.Run("heuristics-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var m ml.Metrics
			for _, l := range test {
				m.Observe(h.Classify(l.Thread).Heuristic, l.IsTOP)
			}
			b.ReportMetric(m.F1(), "F1")
		}
	})
	b.Run("hybrid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var m ml.Metrics
			for _, l := range test {
				m.Observe(h.Classify(l.Thread).IsTOP(), l.IsTOP)
			}
			b.ReportMetric(m.F1(), "F1")
		}
	})
}

// BenchmarkAblationNSFVThresholds sweeps Algorithm 1's thresholds over
// the validation corpus (the paper's semi-automatic tuning).
func BenchmarkAblationNSFVThresholds(b *testing.B) {
	corpus := nsfv.BuildValidationSet(2019)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th, eval := nsfv.Tune(corpus, nsfw.Default())
		if eval.Detection != 1 {
			b.Fatalf("tuned detection %.3f", eval.Detection)
		}
		_ = th
		b.ReportMetric(eval.FalsePositive, "FP-rate")
	}
}

// BenchmarkAblationHashRobustness measures how the transforms actors
// apply affect reverse-search matching — the mechanism behind Table
// 5's pack/preview gap.
func BenchmarkAblationHashRobustness(b *testing.B) {
	transforms := []struct {
		name string
		fn   func(*imagex.Image) *imagex.Image
	}{
		{"identity", func(im *imagex.Image) *imagex.Image { return im }},
		{"recompress", func(im *imagex.Image) *imagex.Image { return im.Recompress(24) }},
		{"watermark", func(im *imagex.Image) *imagex.Image { return im.Watermark("HF.NET") }},
		{"shade", func(im *imagex.Image) *imagex.Image { return im.Shade(0.25) }},
		{"mirror", func(im *imagex.Image) *imagex.Image { return im.Mirror() }},
	}
	for _, tr := range transforms {
		b.Run(tr.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matched := 0
				const n = 50
				for s := 0; s < n; s++ {
					orig := imagex.GenModel(uint64(s), 0, imagex.PoseNude, 48)
					mod := tr.fn(orig)
					if imagex.Hash128Of(orig).Distance(imagex.Hash128Of(mod)) <= 10 {
						matched++
					}
				}
				b.ReportMetric(100*float64(matched)/n, "match-%")
			}
		})
	}
}

// BenchmarkAblationCrawlerConcurrency sweeps the crawler's worker
// count.
func BenchmarkAblationCrawlerConcurrency(b *testing.B) {
	f := setup(b)
	ctx := context.Background()
	for _, workers := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "w1", 4: "w4", 16: "w16"}[workers], func(b *testing.B) {
			opts := f.study.Opts
			opts.CrawlConcurrency = workers
			f.study.Opts = opts
			tasks := f.links.Tasks
			if len(tasks) > 150 {
				tasks = tasks[:150]
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.study.CrawlLinks(ctx, tasks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFullStudy runs the complete pipeline end to end on a tiny
// world — the headline integration cost.
func BenchmarkFullStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		study := core.NewStudy(core.Options{
			Synth:          synth.Config{Seed: uint64(i + 1), Scale: 0.01},
			AnnotationSize: 200,
		})
		if _, err := study.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// studyRunOptions sizes the Run benchmarks: large enough that the
// stage work dominates setup, identical for both so the pair measures
// the worker pools alone (DESIGN.md §3).
func studyRunOptions() core.Options {
	return core.Options{
		Synth:          synth.Config{Seed: 2019, Scale: 0.03},
		AnnotationSize: 500,
	}
}

// BenchmarkStudyRunOneWorker is the single-worker reference cost of
// the full Figure 1 pipeline plus the §5/§6 analyses: Run with one
// stage worker and one crawl worker.
func BenchmarkStudyRunOneWorker(b *testing.B) {
	opts := studyRunOptions()
	opts.Workers, opts.CrawlConcurrency = 1, 1
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		study := core.NewStudy(opts)
		b.StartTimer()
		if _, err := study.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudyRunConcurrent runs the identical study at the default
// worker counts — the speedup over the one-worker run is what the
// worker pools buy, with results pinned identical by
// TestRunWorkersEquivalence.
func BenchmarkStudyRunConcurrent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		study := core.NewStudy(studyRunOptions())
		b.StartTimer()
		if _, err := study.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Scale-1.0 gate ----------------------------------------------------

// BenchmarkScaleSynthGenerate measures world generation alone, at the
// development scale (0.1) and the paper scale (1.0). Generation is the
// dominant cold-start cost (the tracing work showed the synth span
// owning most of a cold request's critical path), so this pair is the
// number the parallel generator and its allocation work are held to.
// Worker count deliberately defaults (GOMAXPROCS): the benchmark gates
// the machine class CI runs on, and Workers never changes the world
// (TestGenerateParallelEquivalence).
func BenchmarkScaleSynthGenerate(b *testing.B) {
	for _, scale := range []float64{0.1, 1.0} {
		b.Run(fmt.Sprintf("scale%.1f", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := synth.Generate(synth.Config{Seed: 2019, Scale: scale})
				if w.Store.NumPosts() == 0 {
					b.Fatal("degenerate world")
				}
			}
		})
	}
}

// BenchmarkScale1StudyRunCold is the headline cold-start number: world
// generation plus the full concurrent pipeline at paper scale, nothing
// cached. CI's bench-scale job converts this plus the Generate pair
// into BENCH_scale1.fresh.json and gates it against the committed
// BENCH_scale1.json baseline.
func BenchmarkScale1StudyRunCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		study := core.NewStudy(core.Options{
			Synth:          synth.Config{Seed: 2019, Scale: 1.0},
			AnnotationSize: 1000,
		})
		if _, err := study.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCrossSeed runs a small cross-seed sweep — three full
// studies on the local backend with bounded parallelism — the cost of
// one cell of cross-seed aggregation work. CI's bench-smoke job emits
// this as BENCH_sweep.json alongside the StudyRun pair.
func BenchmarkSweepCrossSeed(b *testing.B) {
	cells, err := sweep.Spec{
		Preset: sweep.PresetCrossSeed, Seeds: 3,
		Scale: 0.01, Annotation: 200,
	}.Cells()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res := sweep.Run(context.Background(), "bench", cells, sweep.Local{},
			sweep.Options{Parallelism: 2})
		if len(res.Errors) != 0 {
			b.Fatalf("sweep errors: %v", res.Errors)
		}
		if len(res.Aggregate.Groups) != 1 {
			b.Fatal("sweep aggregate wrong shape")
		}
	}
}

// BenchmarkSweepWorldCache runs the crawler-concurrency preset — one
// world, four concurrency cells — with and without the sweep-level
// world cache. The gap between the two sub-benchmarks is the world
// regeneration the cache removes from every grid that only varies
// annotation/worker axes.
func BenchmarkSweepWorldCache(b *testing.B) {
	cells, err := sweep.Spec{
		Preset: sweep.PresetConcurrency, Seeds: 1,
		Scale: 0.01, Annotation: 200,
	}.Cells()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, backend sweep.Backend) {
		for i := 0; i < b.N; i++ {
			res := sweep.Run(context.Background(), "bench", cells, backend,
				sweep.Options{Parallelism: 2})
			if len(res.Errors) != 0 {
				b.Fatalf("sweep errors: %v", res.Errors)
			}
		}
	}
	b.Run("uncached", func(b *testing.B) { run(b, sweep.Local{}) })
	b.Run("cached", func(b *testing.B) { run(b, sweep.Local{Worlds: sweep.NewWorldCache(0)}) })
}

// BenchmarkArtefactReuse measures what the artefact memo store saves
// an annotation-only sweep: the cold pass computes every node for
// both annotation cells (sharing only the world-keyed selection),
// the warm pass re-runs the identical sweep against the primed store
// and recomputes nothing — zero crawls, zero reverse searches. The
// cold/warm gap is the artefact graph's reuse dividend; CI's
// bench-smoke job gates it as BENCH_artefact.json.
func BenchmarkArtefactReuse(b *testing.B) {
	cells := sweep.Grid{
		Seeds:       []uint64{2019},
		Scales:      []float64{0.01},
		Annotations: []int{150, 200},
	}.Cells()
	runSweep := func(b *testing.B, backend sweep.Backend) {
		res := sweep.Run(context.Background(), "bench", cells, backend,
			sweep.Options{Parallelism: 2})
		if len(res.Errors) != 0 {
			b.Fatalf("sweep errors: %v", res.Errors)
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runSweep(b, sweep.Local{
				Worlds: sweep.NewWorldCache(0),
				Memo:   artefact.NewStore(0),
			})
		}
	})
	b.Run("warm", func(b *testing.B) {
		backend := sweep.Local{
			Worlds: sweep.NewWorldCache(0),
			Memo:   artefact.NewStore(0),
		}
		runSweep(b, backend) // prime the store
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runSweep(b, backend)
		}
	})
}

// earningsPlatformSanity keeps the earnings import exercised and
// verifies the fixture's platform mix.
func TestBenchFixtureSanity(t *testing.T) {
	b := &testing.B{}
	_ = b
	// The fixture is exercised by benchmarks; this test just checks
	// the bench file compiles against the analysis API.
	var _ = earnings.PlatformAGC
}
