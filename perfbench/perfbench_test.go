package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/report"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, pct, rank int }{
		{11, 9, 1},
		{20, 50, 10},
		{33, 69, 23},
		{44, 77, 34},
		{63, 84, 53},
		{72, 86, 62},
		{100, 90, 90},
		{20000, 99, 19800},
	} {
		pct, rank, ok := tailPercentile(c.n, tailBeyond)
		if !ok || pct != c.pct || rank != c.rank {
			t.Errorf("tailPercentile(%d) = p%d rank %d ok=%v, want p%d rank %d", c.n, pct, rank, ok, c.pct, c.rank)
		}
	}
	for n := 0; n <= tailBeyond; n++ {
		if _, _, ok := tailPercentile(n, tailBeyond); ok {
			t.Errorf("tailPercentile(%d) ok, want no percentile with %d samples beyond", n, tailBeyond)
		}
	}
	// The percentile leaves at least tailBeyond samples above it, and
	// the next whole percentile would not.
	for n := tailBeyond + 1; n <= 2000; n++ {
		pct, rank, _ := tailPercentile(n, tailBeyond)
		if n-rank < tailBeyond {
			t.Fatalf("n=%d: p%d at rank %d leaves %d beyond", n, pct, rank, n-rank)
		}
		if next := ((pct+1)*n + 99) / 100; pct < 100 && n-next >= tailBeyond {
			t.Fatalf("n=%d: p%d is not the highest: p%d leaves %d beyond", n, pct, pct+1, n-next)
		}
	}
}

func TestSummarize(t *testing.T) {
	var lat []time.Duration
	for i := 100; i >= 1; i-- {
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	s := summarize(lat)
	if s.p50MS != 50.5 || s.tailPct != 90 || s.tailMS != 90 {
		t.Errorf("summarize: p50 %v, p%d = %v; want 50.5, p90 = 90", s.p50MS, s.tailPct, s.tailMS)
	}
	if want := 100 / 5.05; s.throughput != want {
		t.Errorf("throughput %v, want %v (100 ops in 5.05 s)", s.throughput, want)
	}
}

func TestColdOpsFromSeed(t *testing.T) {
	a, b := coldOps(7, 44, coldScaleLo, coldScaleHi), coldOps(7, 44, coldScaleLo, coldScaleHi)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different op sequences")
	}
	c := coldOps(8, 44, coldScaleLo, coldScaleHi)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 drew the same op sequence")
	}
	scales := func(ops []coldOp) []float64 {
		var s []float64
		for _, op := range ops {
			if op.Scale < coldScaleLo || op.Scale > coldScaleHi || op.Seed == 0 {
				t.Fatalf("op %+v outside the workload", op)
			}
			s = append(s, op.Scale)
		}
		slices.Sort(s)
		return s
	}
	// Every seed runs the same scales, only in another order and on
	// other worlds.
	if !slices.Equal(scales(a), scales(c)) {
		t.Error("the scale strata depend on the seed")
	}
}

func TestWarmOpsFromSeed(t *testing.T) {
	var sections []string
	for _, s := range report.Sections() {
		sections = append(sections, s.Name)
	}
	if !slices.Contains(sections, fullOnlySection) {
		t.Fatalf("the report has no section %s to keep out of partial requests", fullOnlySection)
	}
	setup := []warmKey{{World: 0}, {World: 1}}
	const n = 2000
	a := warmOps(3, n, warmWarmup, sections, setup)
	if b := warmOps(3, n, warmWarmup, sections, setup); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different op sequences")
	}
	if c := warmOps(4, n, warmWarmup, sections, setup); reflect.DeepEqual(a.Ops, c.Ops) {
		t.Fatal("seeds 3 and 4 drew the same op sequence")
	}
	if len(a.Ops) != n {
		t.Fatalf("%d ops, want %d", len(a.Ops), n)
	}
	classes := map[string]int64{}
	for _, op := range a.Ops {
		classes[op.Class]++
	}
	for _, c := range warmClasses {
		if got, want := classes[c.name], int64(c.share*n); got != want {
			t.Errorf("%s: %d ops, want exactly %d", c.name, got, want)
		}
	}
	if a.RunsStarted != classes[classPartial]+classes[classFull] ||
		a.CacheHits != classes[classRepeat]+classes[classArtefact] {
		t.Errorf("predicted counters %+v do not follow the class counts", a)
	}
	seen := map[warmKey]bool{}
	for _, k := range setup {
		seen[k] = true
	}
	for i, op := range append(slices.Clone(a.Warmup), a.Ops...) {
		switch op.Class {
		case classPartial:
			if seen[op.Key] {
				t.Fatalf("op %d: partial key %+v reused", i, op.Key)
			}
			if slices.Contains(op.Key.sections(), fullOnlySection) {
				t.Fatalf("op %d: partial request for %s", i, fullOnlySection)
			}
		case classRepeat, classArtefact:
			if !seen[op.Key] {
				t.Fatalf("op %d: %s of %+v, a key never requested", i, op.Class, op.Key)
			}
		case classFull:
			if op.Key.Sections != "" {
				t.Fatalf("op %d: full op with a section filter", i)
			}
		}
		if op.Class != classStats {
			seen[op.Key] = true
		}
	}
}

// TestWarmClassesPlaceP50AndTail holds the serve-warm shares to their
// purpose: at the op counts a run uses, the median op is a partial
// request and the tail percentile a full render, each clear of the
// outer fifths of its class (warmClasses lists the classes fastest
// first).
func TestWarmClassesPlaceP50AndTail(t *testing.T) {
	inside := func(n int, q float64, class string) {
		t.Helper()
		lo := 0.0
		for _, c := range warmClasses {
			hi := lo + c.share
			if c.name == class {
				margin := c.share / 5
				if q < lo+margin || q > hi-margin {
					t.Errorf("n=%d: quantile %.4f lies in an outer fifth of %s [%.2f, %.2f]", n, q, class, lo, hi)
				}
				return
			}
			lo = hi
		}
		t.Fatalf("no class %s", class)
	}
	for _, seconds := range []int{10, 15, 20, 60} {
		n := workloads[1].ops(seconds)
		_, rank, ok := tailPercentile(n, tailBeyond)
		if !ok {
			t.Fatalf("n=%d: no tail percentile", n)
		}
		inside(n, 0.5, classPartial)
		inside(n, (float64(rank)-0.5)/float64(n), classFull)
	}
}

func TestChurnOpsFromSeed(t *testing.T) {
	const cycles = 8
	a := churnOps(5, cycles)
	if b := churnOps(5, cycles); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different op sequences")
	}
	if c := churnOps(6, cycles); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 5 and 6 drew the same op sequence")
	}
	if len(a.Ops) != cycles*churnCycleOps {
		t.Fatalf("%d ops, want %d", len(a.Ops), cycles*churnCycleOps)
	}
	all := append(slices.Clone(a.Warmup), a.Ops...)
	misses := 0
	for i, c := range all {
		if c.WorldMiss {
			misses++
		}
		// No request repeats within the result LRU's reach.
		for j := max(0, i-serviceCacheSize); j < i; j++ {
			if all[j] == c {
				t.Fatalf("op %d repeats op %d inside the %d-run result cache", i, j, serviceCacheSize)
			}
		}
	}
	if misses != (cycles+1)*churnSeeds {
		t.Errorf("%d world misses, want one per seed per cycle", misses)
	}
	if a.MemoComputes != cycles*(churnSeeds*11+(churnCycleOps-churnSeeds)*10) ||
		a.WorldGenerations != cycles*churnSeeds || a.RunsStarted != int64(len(a.Ops)) {
		t.Errorf("predicted counters %+v", a)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metrics and workloads
// the program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, program has %q at %d", names, w.name, i)
		}
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if want := []string{"setup_s", "p50_ms", "tail_ms", "throughput_per_s", "cpu_ms_per_op", "peak_rss_mb"}; !slices.Equal(e2e, want) {
		t.Errorf("end_to_end %v, want %v", e2e, want)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, l := range layerMetrics {
		if got := spec.PerLayer[i]; got.Name != l.name || got.Unit != l.unit || got.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, program reports %+v", i, got, l)
		}
	}
}
