// Package repro's root benchmarks are the gated performance numbers of
// "Measuring eWhoring" (IMC 2019): the full study and the sweep engine
// at smoke scale, three image-path kernels, and the paper-scale cold
// start. Every benchmark here has an entry in BENCH_smoke.json (make
// bench-diff) or BENCH_scale1.json (make bench-scale), which
// TestEveryRootBenchmarkGated enforces. The paper's tables and figures
// themselves are regenerated by ewpipeline and pinned by the report
// goldens; DESIGN.md §4 maps each paper value to the section that
// renders it.
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/artefact"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/imagex"
	"repro/internal/photodna"
	"repro/internal/sweep"
	"repro/internal/synth"
)

// fixture holds the study state the crawl and filter kernels consume,
// built once.
type fixture struct {
	study *core.Study
	links core.LinkExtraction
	crawl []crawler.Result
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
		cls, err := f.study.TrainAndExtract(f.study.SelectEWhoring())
		if fixErr = err; fixErr != nil {
			return
		}
		f.links, _ = f.study.ExtractLinks(cls.Extract.TOPs)
		if f.crawl, fixErr = f.study.CrawlLinks(ctx, f.links.Tasks); fixErr != nil {
			return
		}
		fix = f
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

// --- §4.2–§4.3 kernels (bench-smoke, with -benchmem) -------------------

func BenchmarkCrawl(b *testing.B) {
	f := setup(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := f.study.CrawlLinks(ctx, f.links.Tasks)
		if err != nil {
			b.Fatal(err)
		}
		if crawler.Summarize(results).ImagesFetched == 0 {
			b.Fatal("crawl fetched nothing")
		}
	}
}

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

// --- Study and sweep (bench-smoke, -benchtime=3x) ----------------------

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

// BenchmarkSweepCrossSeed runs a small cross-seed sweep — three full
// studies on the local backend with bounded parallelism — the cost of
// one cell of cross-seed aggregation work.
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

// BenchmarkArtefactReuse measures what the artefact memo store saves
// an annotation-only sweep: the cold pass computes every node for
// both annotation cells (sharing only the world-keyed selection),
// the warm pass re-runs the identical sweep against the primed store
// and recomputes nothing — zero crawls, zero reverse searches. The
// cold/warm gap is the artefact graph's reuse dividend.
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

// --- Scale-1.0 gate (bench-scale) ---------------------------------------

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
// cached.
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

// TestEveryRootBenchmarkGated holds this file to its own contract:
// each Benchmark function must have a baseline entry — its name, or
// name/sub for a benchmark with sub-benchmarks — in one of the
// committed gate files, so no benchmark runs without a gate.
func TestEveryRootBenchmarkGated(t *testing.T) {
	gated := map[string]bool{}
	for _, path := range []string{"BENCH_smoke.json", "BENCH_scale1.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var art struct {
			Benchmarks []struct{ Name string }
		}
		if err := json.Unmarshal(data, &art); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, b := range art.Benchmarks {
			name, _, _ := strings.Cut(b.Name, "/")
			gated[name] = true
		}
	}
	f, err := parser.ParseFile(token.NewFileSet(), "bench_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv != nil {
			continue
		}
		bench, ok := strings.CutPrefix(fd.Name.Name, "Benchmark")
		if !ok {
			continue
		}
		n++
		if !gated[bench] {
			t.Errorf("%s has no entry in BENCH_smoke.json or BENCH_scale1.json", fd.Name.Name)
		}
	}
	if n == 0 {
		t.Fatal("found no Benchmark functions in bench_test.go")
	}
}
