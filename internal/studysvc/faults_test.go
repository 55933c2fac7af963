package studysvc

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestFaultedRequestDegradesEnvelope pins the service half of the
// degradation contract: a /v1/study request whose fault profile kills
// every crawl host completes as StatusDone with degraded=true — never
// a 500 — and its report carries the per-host ledger.
func TestFaultedRequestDegradesEnvelope(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()

	baseline, err := c.Run(ctx, tinyRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Degraded || baseline.Summary == nil || baseline.Summary.CrawlTasks == 0 {
		t.Fatalf("baseline envelope unusable: degraded=%v summary=%+v", baseline.Degraded, baseline.Summary)
	}

	req := tinyRequest(3)
	req.Faults = "down=*"
	env, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("dead-substrate study failed instead of degrading: %v", err)
	}
	if env.Status != StatusDone {
		t.Fatalf("status = %s (%s), want done", env.Status, env.Error)
	}
	if !env.Degraded {
		t.Fatal("envelope not marked degraded")
	}
	if env.Cached || env.ID == baseline.ID {
		t.Fatal("faulted request shared the fault-free run's cache entry")
	}
	// The canonical profile is the plan's own spelling, defaults included.
	if env.Options.Faults != "seed=2019;down=*" {
		t.Fatalf("canonical faults = %q", env.Options.Faults)
	}
	if env.Summary.CrawlErrorRate != 100 {
		t.Fatalf("crawl_error_rate = %g, want 100 (every host down)", env.Summary.CrawlErrorRate)
	}
	if !strings.Contains(env.Report, "DEGRADED") {
		t.Error("report does not surface the degradation ledger")
	}
}

// TestRetryableFaultsMatchFaultFreeSummary: the tentpole equivalence,
// observed through the service — a retryable-only profile yields the
// same summary as the fault-free request, under a different cache key.
func TestRetryableFaultsMatchFaultFreeSummary(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()

	baseline, err := c.Run(ctx, tinyRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	req := tinyRequest(5)
	req.Faults = "failures=2;retry-after=1ms;ratelimit=*"
	env, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if env.Degraded {
		t.Error("retryable-only profile marked degraded")
	}
	if env.Cached {
		t.Error("faulted request must not share the fault-free cache entry")
	}
	if *env.Summary != *baseline.Summary {
		t.Errorf("summaries differ:\nfaulted:  %+v\nbaseline: %+v", *env.Summary, *baseline.Summary)
	}
	if env.Report != baseline.Report {
		t.Error("retryable-only report differs from fault-free report")
	}
}

// TestRejectsBadFaultProfile: an unparseable profile is a 400 at the
// API boundary, before any run starts.
func TestRejectsBadFaultProfile(t *testing.T) {
	svc, c := newTestService(t, Config{})
	req := tinyRequest(3)
	req.Faults = "explode=yes"
	_, err := c.Run(context.Background(), req)
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != 400 {
		t.Fatalf("err = %v, want HTTP 400", err)
	}
	if st := svc.Stats(); st.RunsStarted != 0 {
		t.Fatalf("invalid profile still started %d runs", st.RunsStarted)
	}
}

// TestOffFaultsShareFaultFreeKey: "" and "off" canonicalize to the
// same cache entry, so the faults field never splits the fault-free
// key space.
func TestOffFaultsShareFaultFreeKey(t *testing.T) {
	svc, c := newTestService(t, Config{})
	ctx := context.Background()
	first, err := c.Run(ctx, tinyRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	req := tinyRequest(3)
	req.Faults = "off"
	second, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.ID != first.ID {
		t.Fatalf("faults=off did not share the fault-free entry (cached=%v)", second.Cached)
	}
	if st := svc.Stats(); st.RunsStarted != 1 {
		t.Fatalf("runs started = %d, want 1", st.RunsStarted)
	}
}

// TestFaultSpellingsShareKey: three spellings of one fault plan — the
// bare clause, the default failures count written out, and stray
// spaces and separators — canonicalize to one faults string and one
// cache key, so they are one study, not three.
func TestFaultSpellingsShareKey(t *testing.T) {
	var keys []string
	for _, faults := range []string{"flaky=a.com", "failures=2;flaky=a.com", " flaky = a.com ;"} {
		req := tinyRequest(3)
		req.Faults = faults
		c, err := canonicalize(req)
		if err != nil {
			t.Fatalf("%q: %v", faults, err)
		}
		keys = append(keys, c.key())
	}
	if keys[0] != keys[1] || keys[0] != keys[2] {
		t.Fatalf("one plan, several keys:\n%s", strings.Join(keys, "\n"))
	}
}
