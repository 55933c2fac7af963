package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkStudyRunOneWorker-8   	       1	 244837123 ns/op
BenchmarkStudyRunConcurrent-8   	       1	 199102456 ns/op	  512 B/op	       3 allocs/op
PASS
ok  	repro	1.234s
`

func TestParseBenchOutput(t *testing.T) {
	art, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if art.Goos != "linux" || art.Goarch != "amd64" || art.Pkg != "repro" {
		t.Errorf("header = %+v", art)
	}
	if len(art.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(art.Benchmarks))
	}
	seq := art.Benchmarks[0]
	if seq.Name != "StudyRunOneWorker" || seq.Procs != 8 || seq.Iterations != 1 || seq.NsPerOp != 244837123 {
		t.Errorf("one-worker = %+v", seq)
	}
	conc := art.Benchmarks[1]
	if conc.NsPerOp != 199102456 || conc.Extra["B/op"] != 512 || conc.Extra["allocs/op"] != 3 {
		t.Errorf("concurrent = %+v", conc)
	}
	// Raw lines reconstruct benchstat-compatible input.
	if !strings.HasPrefix(seq.Raw, "BenchmarkStudyRunOneWorker-8") || !strings.Contains(seq.Raw, "ns/op") {
		t.Errorf("raw line mangled: %q", seq.Raw)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := parse(strings.NewReader("BenchmarkBroken-8 notanumber 5 ns/op\n")); err == nil {
		t.Error("bad iteration count accepted")
	}
	if _, err := parse(strings.NewReader("BenchmarkNoNs-8 1 77 MB/s\n")); err == nil {
		t.Error("line without ns/op accepted")
	}
}

func TestLoadSniffsJSONAndText(t *testing.T) {
	text, err := load(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(text.Benchmarks) != 2 {
		t.Fatalf("text load parsed %d benchmarks", len(text.Benchmarks))
	}
	asJSON := `  {"benchmarks":[{"name":"StudyRunOneWorker","procs":8,"iterations":1,"ns_per_op":5,"raw":"x"}]}`
	art, err := load(strings.NewReader(asJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Benchmarks) != 1 || art.Benchmarks[0].NsPerOp != 5 {
		t.Fatalf("JSON load = %+v", art)
	}
	if _, err := load(strings.NewReader("{broken")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func art(pairs ...any) *Artifact {
	a := &Artifact{}
	for i := 0; i+1 < len(pairs); i += 2 {
		a.Benchmarks = append(a.Benchmarks, Benchmark{
			Name:    pairs[i].(string),
			NsPerOp: pairs[i+1].(float64),
		})
	}
	return a
}

func TestDiffWithinTolerancePasses(t *testing.T) {
	base := art("Pipeline", 100.0, "Sweep", 200.0)
	cur := art("Pipeline", 125.0, "Sweep", 150.0)
	report, failed := diffArtifacts(base, cur, 0.30)
	if failed {
		t.Fatalf("within-tolerance diff failed:\n%s", report)
	}
	if !strings.Contains(report, "gate passed") {
		t.Errorf("report missing verdict:\n%s", report)
	}
}

func TestDiffRegressionFails(t *testing.T) {
	base := art("Pipeline", 100.0)
	cur := art("Pipeline", 131.0)
	report, failed := diffArtifacts(base, cur, 0.30)
	if !failed {
		t.Fatalf("31%% regression passed a 30%% gate:\n%s", report)
	}
	if !strings.Contains(report, "FAIL") {
		t.Errorf("report missing FAIL marker:\n%s", report)
	}
}

func TestDiffMissingBenchmarkFails(t *testing.T) {
	base := art("Pipeline", 100.0, "Sweep", 200.0)
	cur := art("Pipeline", 100.0)
	report, failed := diffArtifacts(base, cur, 0.30)
	if !failed {
		t.Fatalf("dropped benchmark passed the gate:\n%s", report)
	}
	if !strings.Contains(report, "missing from current run") {
		t.Errorf("report missing dropped-benchmark marker:\n%s", report)
	}
}

func TestDiffNewBenchmarkReportedNotFailed(t *testing.T) {
	base := art("Pipeline", 100.0)
	cur := art("Pipeline", 100.0, "Extra", 50.0)
	report, failed := diffArtifacts(base, cur, 0.30)
	if failed {
		t.Fatalf("new benchmark failed the gate:\n%s", report)
	}
	if !strings.Contains(report, "new (not in baseline)") {
		t.Errorf("report missing new-benchmark marker:\n%s", report)
	}
}

// rows builds an artifact of one benchmark name measured at several
// GOMAXPROCS values, as a `-cpu 1,2` run reports it.
func rows(name string, nsByProcs map[int]float64) *Artifact {
	a := &Artifact{}
	for _, procs := range []int{1, 2, 4} {
		if ns, ok := nsByProcs[procs]; ok {
			a.Benchmarks = append(a.Benchmarks, Benchmark{Name: name, Procs: procs, NsPerOp: ns})
		}
	}
	return a
}

func TestDiffKeysRowsByProcs(t *testing.T) {
	base := rows("Scale1StudyRunCold", map[int]float64{1: 36e9, 2: 23e9})
	// The procs-1 row regressed by 67%; the procs-2 row did not.
	cur := rows("Scale1StudyRunCold", map[int]float64{1: 60e9, 2: 23e9})
	report, failed := diffArtifacts(base, cur, 0.30)
	if !failed {
		t.Fatalf("procs-1 regression hidden by the procs-2 row:\n%s", report)
	}
	if !strings.Contains(report, "+66.7%  FAIL") {
		t.Errorf("report does not pair procs-1 with procs-1:\n%s", report)
	}
	cur = rows("Scale1StudyRunCold", map[int]float64{1: 36e9})
	report, failed = diffArtifacts(base, cur, 0.30)
	if !failed || !strings.Contains(report, "Scale1StudyRunCold-2") ||
		!strings.Contains(report, "missing from current run") {
		t.Fatalf("dropped procs-2 row passed the gate:\n%s", report)
	}
}

func TestDiffSingleRowPairsAcrossProcs(t *testing.T) {
	base := rows("Sweep", map[int]float64{1: 100})
	cur := rows("Sweep", map[int]float64{2: 131})
	report, failed := diffArtifacts(base, cur, 0.30)
	if !failed || !strings.Contains(report, "current run at procs 2") {
		t.Fatalf("single procs-1 baseline row did not gate the procs-2 run:\n%s", report)
	}
	if strings.Contains(report, "new (not in baseline)") {
		t.Errorf("paired row also reported as new:\n%s", report)
	}
}

func TestDiffImprovementPasses(t *testing.T) {
	base := art("Pipeline", 100.0)
	cur := art("Pipeline", 10.0)
	if report, failed := diffArtifacts(base, cur, 0.30); failed {
		t.Fatalf("a 10x improvement failed the gate:\n%s", report)
	}
}

func withExtra(a *Artifact, name string, extra map[string]float64) *Artifact {
	for i := range a.Benchmarks {
		if a.Benchmarks[i].Name == name {
			a.Benchmarks[i].Extra = extra
		}
	}
	return a
}

func TestDiffExtraRelativeGate(t *testing.T) {
	base := withExtra(art("Shed", 100.0), "Shed", map[string]float64{"shed_rate": 0.10})
	cur := withExtra(art("Shed", 100.0), "Shed", map[string]float64{"shed_rate": 0.12})
	if report, failed := diffArtifacts(base, cur, 0.30); failed {
		t.Fatalf("+20%% extra failed a 30%% gate:\n%s", report)
	}
	cur = withExtra(art("Shed", 100.0), "Shed", map[string]float64{"shed_rate": 0.14})
	report, failed := diffArtifacts(base, cur, 0.30)
	if !failed {
		t.Fatalf("+40%% extra passed a 30%% gate:\n%s", report)
	}
	if !strings.Contains(report, "shed_rate") || !strings.Contains(report, "FAIL") {
		t.Errorf("report missing extra failure line:\n%s", report)
	}
}

func TestDiffExtraZeroBaselineAbsoluteGate(t *testing.T) {
	base := withExtra(art("Shed", 100.0), "Shed", map[string]float64{"shed_rate": 0})
	// Below the tolerance: no relative scale from zero, so the
	// tolerance is the absolute ceiling.
	cur := withExtra(art("Shed", 100.0), "Shed", map[string]float64{"shed_rate": 0.25})
	if report, failed := diffArtifacts(base, cur, 0.30); failed {
		t.Fatalf("extra under the absolute ceiling failed:\n%s", report)
	}
	cur = withExtra(art("Shed", 100.0), "Shed", map[string]float64{"shed_rate": 0.31})
	report, failed := diffArtifacts(base, cur, 0.30)
	if !failed {
		t.Fatalf("extra over the absolute ceiling passed:\n%s", report)
	}
	if !strings.Contains(report, "absolute ceiling") {
		t.Errorf("report missing absolute-ceiling marker:\n%s", report)
	}
}

func TestDiffExtraMissingUnitFails(t *testing.T) {
	base := withExtra(art("Shed", 100.0), "Shed", map[string]float64{"shed_rate": 0.10})
	cur := art("Shed", 100.0)
	report, failed := diffArtifacts(base, cur, 0.30)
	if !failed {
		t.Fatalf("dropped extra unit passed the gate:\n%s", report)
	}
	if !strings.Contains(report, "unit missing from current run") {
		t.Errorf("report missing dropped-unit marker:\n%s", report)
	}
}

func TestDiffExtraImprovementPasses(t *testing.T) {
	base := withExtra(art("Shed", 100.0), "Shed", map[string]float64{"shed_rate": 0.50})
	cur := withExtra(art("Shed", 100.0), "Shed", map[string]float64{"shed_rate": 0})
	if report, failed := diffArtifacts(base, cur, 0.30); failed {
		t.Fatalf("extra improvement failed the gate:\n%s", report)
	}
}

// TestLoadFoldsRepeatsToMedian pins the fold that makes a baseline the
// median of several concatenated runs: each (name, procs) row keeps
// the run with the median ns/op — its raw line and extra units with
// it — rows with other procs stay apart, first-appearance order holds,
// and an even count keeps the lower median.
func TestLoadFoldsRepeatsToMedian(t *testing.T) {
	runs := `goos: linux
BenchmarkA-2   	1	 500 ns/op	 50 B/op
BenchmarkB     	1	 900 ns/op
BenchmarkA-2   	1	 100 ns/op	 10 B/op
BenchmarkA     	1	 700 ns/op
BenchmarkA-2   	1	 300 ns/op	 30 B/op
BenchmarkB     	1	 800 ns/op
BenchmarkA-2   	1	 900 ns/op	 90 B/op
BenchmarkA-2   	1	 200 ns/op	 20 B/op
`
	art, err := load(strings.NewReader(runs))
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		label string
		ns    float64
	}
	var got []row
	for _, b := range art.Benchmarks {
		got = append(got, row{b.label(), b.NsPerOp})
	}
	want := []row{{"A-2", 300}, {"B", 800}, {"A", 700}}
	if len(got) != len(want) {
		t.Fatalf("folded rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("folded rows = %v, want %v", got, want)
		}
	}
	med := art.Benchmarks[0]
	if med.Extra["B/op"] != 30 || !strings.Contains(med.Raw, " 300 ns/op") {
		t.Errorf("median row lost its own run: %+v", med)
	}
}

// TestDiffFoldsRepeatedInput pins the fold on -diff's inputs: one slow
// run among five does not fail the gate, because the median does not
// move.
func TestDiffFoldsRepeatedInput(t *testing.T) {
	base, err := load(strings.NewReader("BenchmarkA 1 100 ns/op\nBenchmarkA 1 102 ns/op\nBenchmarkA 1 98 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := load(strings.NewReader("BenchmarkA 1 101 ns/op\nBenchmarkA 1 400 ns/op\nBenchmarkA 1 99 ns/op\nBenchmarkA 1 103 ns/op\nBenchmarkA 1 97 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if report, failed := diffArtifacts(base, cur, 0.10); failed {
		t.Fatalf("one slow run of five failed the gate:\n%s", report)
	}
}
