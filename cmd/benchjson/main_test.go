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
