package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/synth"
)

// faultOpts is the shared study shape for the fault-injection
// acceptance tests — the same world the HTTP-equivalence test pins.
func faultOpts(faults string) Options {
	return Options{
		Synth:          synth.Config{Seed: 7, Scale: 0.02, ImageSize: 48},
		AnnotationSize: 400,
		Workers:        4,
		Faults:         faults,
	}
}

// diffResults reports per-field DeepEqual mismatches between two runs.
func diffResults(t *testing.T, want, got *Results, label string) {
	t.Helper()
	wv, gv := reflect.ValueOf(*want), reflect.ValueOf(*got)
	rt := wv.Type()
	for i := 0; i < rt.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("Results.%s differs (%s)", rt.Field(i).Name, label)
		}
	}
}

// TestFaultRetryableEquivalence pins the tentpole invariant: a
// retryable-only fault schedule — every URL rate-limited 429 +
// Retry-After for fewer failures than the crawler's retry budget —
// yields Results bit-identical to the fault-free run. The adversary
// costs wall-clock, never data.
func TestFaultRetryableEquivalence(t *testing.T) {
	ctx := context.Background()
	want, err := NewStudy(faultOpts("")).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want.Degraded() {
		t.Fatal("fault-free run reports degradation")
	}

	// failures=2 ≤ the crawler's default MaxRetries=2: every fetch
	// lands within budget.
	got, err := NewStudy(faultOpts("failures=2;retry-after=1ms;ratelimit=*")).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, want, got, "rate-limited vs fault-free")
	if got.Degraded() {
		t.Error("retryable-only schedule reported degradation")
	}
}

// TestFaultRetryableEquivalenceSequential holds the same invariant on
// the single-worker reference run, under the flaky-5xx adversary.
func TestFaultRetryableEquivalenceSequential(t *testing.T) {
	ctx := context.Background()
	opts := faultOpts("")
	opts.Synth = synth.Config{Seed: 11, Scale: 0.015, ImageSize: 48}
	opts.AnnotationSize = 300
	opts.Workers, opts.CrawlConcurrency = 1, 1
	want, err := NewStudy(opts).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	opts.Faults = "failures=1;flaky=*"
	got, err := NewStudy(opts).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		diffResults(t, want, got, "flaky vs fault-free, one worker")
	}
}

// TestFaultDownHostDegrades pins the degradation contract: a host that
// is permanently dead does not fail or abort the study — it produces a
// partial corpus whose coverage ledger names exactly the dead host,
// deterministically across runs.
func TestFaultDownHostDegrades(t *testing.T) {
	ctx := context.Background()
	baseline, err := NewStudy(faultOpts("")).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.CrawlStats.Coverage.Hosts) == 0 {
		t.Fatal("baseline crawl touched no hosts")
	}
	// Kill the busiest host — the worst case for corpus loss.
	victim := baseline.CrawlStats.Coverage.Hosts[0]
	for _, h := range baseline.CrawlStats.Coverage.Hosts {
		if h.Tasks > victim.Tasks {
			victim = h
		}
	}

	opts := faultOpts("down=" + victim.Host)
	got, err := NewStudy(opts).Run(ctx)
	if err != nil {
		t.Fatalf("dead host aborted the study: %v", err)
	}
	if !got.Degraded() {
		t.Fatal("dead host did not mark the study degraded")
	}
	cov := got.CrawlStats.Coverage
	if !cov.Degraded || cov.Errors != victim.Tasks {
		t.Fatalf("coverage = %+v, want %d tasks lost", cov, victim.Tasks)
	}
	if len(cov.DeadHosts) != 1 || cov.DeadHosts[0] != victim.Host {
		t.Fatalf("DeadHosts = %v, want exactly [%s]", cov.DeadHosts, victim.Host)
	}
	// Healthy hosts are untouched: their ledger rows match the baseline.
	for _, h := range cov.Hosts {
		if h.Host == victim.Host {
			continue
		}
		for _, b := range baseline.CrawlStats.Coverage.Hosts {
			if b.Host == h.Host && h != b {
				t.Errorf("healthy host %s drifted: %+v vs %+v", h.Host, h, b)
			}
		}
	}

	// The degraded result is itself deterministic: same schedule, same
	// partial corpus, bit for bit.
	again, err := NewStudy(opts).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, got, again, "degraded run repeated")
}

// TestFaultInvalidProfileIgnoredInCore documents the core boundary
// contract: Options.Faults is validated at the API edges (studysvc,
// the CLIs); an unparseable profile reaching NewStudy is ignored
// rather than crashing a run already in flight.
func TestFaultInvalidProfileIgnoredInCore(t *testing.T) {
	opts := faultOpts("not a profile")
	opts.Synth.Scale = 0.01
	opts.AnnotationSize = 150
	res, err := NewStudy(opts).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded() {
		t.Error("ignored profile still degraded the run")
	}
}
