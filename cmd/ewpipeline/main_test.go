package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/studysvc"
	"repro/internal/synth"
)

// goldenArgs are the options of the seed-77 report golden.
var goldenArgs = []string{"-seed", "77", "-scale", "0.02", "-annotation", "300"}

// runCmd drives the command and returns its exit code and both streams.
func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestGoldenReport pins the command's stdout to the seed-77 report
// golden, byte for byte, whether the study runs in-process at any
// worker count or on a live study service.
func TestGoldenReport(t *testing.T) {
	golden, err := os.ReadFile("../../internal/report/testdata/full_seed77_scale002.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := string(golden) + "\n"
	srv := httptest.NewServer(studysvc.New(studysvc.Config{}).Handler())
	t.Cleanup(srv.Close)

	for _, tc := range []struct {
		name   string
		extra  []string
		stderr string
	}{
		{"workers=default", nil, "--- critical path ---"},
		{"workers=1", []string{"-workers", "1"}, "--- critical path ---"},
		{"remote", []string{"-remote", srv.URL}, "executed on the server"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(t, append(append([]string(nil), goldenArgs...), tc.extra...)...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if stdout != want {
				t.Errorf("stdout drifted from the golden report (%d bytes, want %d)", len(stdout), len(want))
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr)
			}
		})
	}
}

// TestOnlyRendersSelection pins -only: stdout is report.Render of the
// named sections over the same study, and nothing else.
func TestOnlyRendersSelection(t *testing.T) {
	names := []string{"table5", "figure2"}
	study := core.NewStudy(core.Options{Synth: synth.Config{Seed: 77, Scale: 0.02}, AnnotationSize: 300})
	defer study.Close()
	res, err := study.Compute(context.Background(), names...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.Render(res, names...)
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCmd(t, append(append([]string(nil), goldenArgs...), "-only", "table5,figure2")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if stdout != want+"\n" {
		t.Errorf("-only stdout:\n%s\nwant:\n%s", stdout, want)
	}
}

// TestBadOptionsExit1 pins the argument errors: an unknown -only name
// and a malformed -faults profile both exit 1 before any study runs.
func TestBadOptionsExit1(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "table99"},
		{"-faults", "explode=yes"},
	} {
		code, stdout, stderr := runCmd(t, args...)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if stdout != "" || !strings.HasPrefix(stderr, "ewpipeline: ") {
			t.Errorf("%v: stdout %q, stderr %q", args, stdout, stderr)
		}
	}
}
