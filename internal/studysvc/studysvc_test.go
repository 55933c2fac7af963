package studysvc

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// tinyRequest names a world small enough for sub-second runs.
func tinyRequest(seed uint64) Request {
	return Request{Seed: seed, Scale: 0.01, AnnotationSize: 150, Workers: 2}
}

func newTestService(t *testing.T, cfg Config) (*Service, *Client) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return svc, NewClient(srv.URL, srv.Client())
}

// TestIdenticalRequestsRunOnce is the acceptance-criteria cache test:
// two identical POST /v1/study requests perform exactly one study run.
func TestIdenticalRequestsRunOnce(t *testing.T) {
	svc, c := newTestService(t, Config{})
	ctx := context.Background()

	first, err := c.Run(ctx, tinyRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != StatusDone || first.Cached {
		t.Fatalf("first run: status=%s cached=%v", first.Status, first.Cached)
	}
	second, err := c.Run(ctx, tinyRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical request was not served from cache")
	}
	if second.ID != first.ID {
		t.Errorf("cache hit returned a different run: %s vs %s", second.ID, first.ID)
	}
	if second.Report != first.Report {
		t.Error("cached report differs from the original")
	}

	st := svc.Stats()
	if st.RunsStarted != 1 {
		t.Errorf("two identical requests started %d runs, want exactly 1", st.RunsStarted)
	}
	if st.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", st.CacheHits)
	}
}

// TestConcurrentIdenticalRequestsCoalesce: identical requests arriving
// while a run is in flight attach to it instead of starting their own.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	svc, c := newTestService(t, Config{MaxConcurrentRuns: 4})
	ctx := context.Background()

	const n = 4
	envs := make([]*Envelope, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			envs[i], errs[i] = c.Run(ctx, tinyRequest(5))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if envs[i].Status != StatusDone {
			t.Fatalf("request %d: status %s (%s)", i, envs[i].Status, envs[i].Error)
		}
		if envs[i].ID != envs[0].ID {
			t.Errorf("request %d ran separately: id %s vs %s", i, envs[i].ID, envs[0].ID)
		}
	}
	st := svc.Stats()
	if st.RunsStarted != 1 {
		t.Errorf("%d concurrent identical requests started %d runs, want 1", n, st.RunsStarted)
	}
	if st.Coalesced+st.CacheHits != n-1 {
		t.Errorf("coalesced=%d cache_hits=%d, want them to cover %d requests",
			st.Coalesced, st.CacheHits, n-1)
	}
}

// TestCanonicalizationSharesRuns: a request with explicit defaults and
// one with omitted fields name the same world and share a cache entry.
func TestCanonicalizationSharesRuns(t *testing.T) {
	svc, c := newTestService(t, Config{})
	ctx := context.Background()

	if _, err := c.Run(ctx, Request{Seed: 7, Scale: 0.01, AnnotationSize: 150, Workers: 0}); err != nil {
		t.Fatal(err)
	}
	env, err := c.Run(ctx, Request{Seed: 7, Scale: 0.01, AnnotationSize: 150, Workers: -3})
	if err != nil {
		t.Fatal(err)
	}
	if !env.Cached {
		t.Error("canonically-identical request missed the cache")
	}
	if st := svc.Stats(); st.RunsStarted != 1 {
		t.Errorf("started %d runs, want 1", st.RunsStarted)
	}
}

// TestLRUEviction: with capacity 1, a second world evicts the first,
// and re-requesting the first runs it again.
func TestLRUEviction(t *testing.T) {
	svc, c := newTestService(t, Config{CacheSize: 1})
	ctx := context.Background()

	a1, err := c.Run(ctx, tinyRequest(11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx, tinyRequest(13)); err != nil {
		t.Fatal(err)
	}
	a2, err := c.Run(ctx, tinyRequest(11))
	if err != nil {
		t.Fatal(err)
	}
	if a2.Cached {
		t.Error("evicted entry served from cache")
	}
	if a2.ID == a1.ID {
		t.Error("evicted run re-served instead of re-run")
	}
	st := svc.Stats()
	if st.RunsStarted != 3 || st.Evictions < 1 {
		t.Errorf("runs=%d evictions=%d, want 3 runs and >=1 eviction", st.RunsStarted, st.Evictions)
	}
	// Determinism: the re-run reproduces the evicted run's results.
	if a1.Report != a2.Report {
		t.Error("re-run after eviction produced a different report")
	}

	// The evicted run's id is gone.
	if _, err := c.Get(ctx, a1.ID); err == nil {
		t.Error("GET of an evicted run should 404")
	}
}

func TestGetByID(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()

	env, err := c.Run(ctx, tinyRequest(17))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, env.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone || got.Summary == nil || got.Summary.EWhoringThreads != env.Summary.EWhoringThreads {
		t.Errorf("GET %s = %+v", env.ID, got)
	}
	if _, err := c.Get(ctx, "s-999"); err == nil {
		t.Error("unknown id should 404")
	}
}

func TestRejectsOversizedScale(t *testing.T) {
	_, c := newTestService(t, Config{MaxScale: 0.02})
	_, err := c.Run(context.Background(), Request{Scale: 0.5})
	if err == nil || !strings.Contains(err.Error(), "scale") {
		t.Fatalf("oversized scale not rejected: %v", err)
	}
}

func TestRejectsOversizedWorkers(t *testing.T) {
	_, c := newTestService(t, Config{})
	_, err := c.Run(context.Background(), Request{Scale: 0.01, Workers: 1_000_000_000})
	if err == nil || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("oversized worker count not rejected: %v", err)
	}
}

func TestRejectsMalformedBody(t *testing.T) {
	_, c := newTestService(t, Config{})
	srvURL := c.BaseURL
	resp, err := c.HTTP.Post(srvURL+"/v1/study", "application/json",
		strings.NewReader(`{"seed": "not a number"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

// TestStudyReportMatchesDirectRun pins the service to the library: the
// report served over HTTP is byte-identical to report.Full of a direct
// in-process run with the same options.
func TestStudyReportMatchesDirectRun(t *testing.T) {
	_, c := newTestService(t, Config{})
	env, err := c.Run(context.Background(), tinyRequest(19))
	if err != nil {
		t.Fatal(err)
	}
	if env.Status != StatusDone {
		t.Fatalf("status %s: %s", env.Status, env.Error)
	}
	want := directReport(t, tinyRequest(19))
	if env.Report != want {
		t.Error("served report differs from a direct run")
	}
}

// TestAsyncSubmitAndPoll covers the fire-and-forget path: POST with
// wait=false returns 202 running, and GET ?wait=true delivers the
// finished run.
func TestAsyncSubmitAndPoll(t *testing.T) {
	svc, c := newTestService(t, Config{})
	body := strings.NewReader(`{"seed":23,"scale":0.01,"annotation_size":150}`)
	resp, err := c.HTTP.Post(c.BaseURL+"/v1/study?wait=false", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := jsonDecode(resp, &env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 202 {
		t.Fatalf("async submit: status %d, want 202", resp.StatusCode)
	}
	if env.Status != StatusRunning && env.Status != StatusDone {
		t.Fatalf("async submit: run status %q", env.Status)
	}

	// A plain GET may observe the run mid-flight; it must still answer.
	got, err := c.Get(context.Background(), env.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != env.ID {
		t.Fatalf("GET returned run %s, want %s", got.ID, env.ID)
	}
	// Poll with wait=true for the final state.
	resp2, err := c.HTTP.Get(c.BaseURL + "/v1/study/" + env.ID + "?wait=true")
	if err != nil {
		t.Fatal(err)
	}
	var final Envelope
	if err := jsonDecode(resp2, &final); err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone || final.Summary == nil {
		t.Fatalf("final = %+v", final)
	}
	if st := svc.Stats(); st.RunsStarted != 1 {
		t.Errorf("async flow started %d runs, want 1", st.RunsStarted)
	}
}

// TestDoneAfterFiled pins the run lifecycle's publication order: a
// run's done channel closes only after the run is filed in the result
// cache, so a requester woken by done that repeats its request gets a
// cache hit. The test holds the service lock — which the filing needs
// — across the end of a table1-only run: done must not close while
// the lock is held, and must close with the run cached once it is
// released.
func TestDoneAfterFiled(t *testing.T) {
	svc := New(Config{})
	req := tinyRequest(5)
	req.Artefacts = []string{"table1"}
	c, err := canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := svc.getOrStart(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	filed := func() bool {
		_, ok := svc.cache[r.key]
		return ok
	}

	svc.mu.Lock()
	// Wait (lock held) until the table1 node has computed; after it
	// the run only renders the section and files itself.
	deadline := time.Now().Add(30 * time.Second)
	for !table1Computed(svc) {
		if time.Now().After(deadline) {
			svc.mu.Unlock()
			t.Fatal("table1 never computed")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-r.done:
		ok := filed()
		svc.mu.Unlock()
		if !ok {
			t.Fatal("done closed before the run was filed in the cache")
		}
		return
	case <-time.After(300 * time.Millisecond):
	}
	svc.mu.Unlock()

	<-r.done
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if !filed() {
		t.Fatal("finished run is missing from the cache")
	}
	if _, ok := svc.inflight[r.key]; ok {
		t.Fatal("finished run is still in flight")
	}
}

// table1Computed reports whether the service's memo ledger has timed
// a successful table1 computation.
func table1Computed(svc *Service) bool {
	for _, n := range svc.memo.Nodes() {
		if n.Name == core.ArtefactTable1 {
			return n.Latency.Count > 0
		}
	}
	return false
}

// tinySpec is a 2-seed cross-seed sweep small enough for tests.
func tinySpec() sweep.Spec {
	return sweep.Spec{
		Preset: sweep.PresetCrossSeed, Seeds: 2,
		Scale: 0.01, Annotation: 200, Parallelism: 2,
	}
}

// TestRemoteSweepMatchesLocal pins the acceptance criterion: a sweep
// driven cell-by-cell through the client backend against a live
// service produces aggregates identical to the in-process sweep, and
// the sweep traffic shows up in the service counters.
func TestRemoteSweepMatchesLocal(t *testing.T) {
	svc, c := newTestService(t, Config{MaxConcurrentRuns: 2})
	ctx := context.Background()
	cells, err := tinySpec().Cells()
	if err != nil {
		t.Fatal(err)
	}

	local := sweep.Run(ctx, "pair", cells, sweep.Local{}, sweep.Options{Parallelism: 2})
	remote := sweep.Run(ctx, "pair", cells, Backend{Client: c}, sweep.Options{Parallelism: 2})
	if len(local.Errors) != 0 || len(remote.Errors) != 0 {
		t.Fatalf("errors: local=%v remote=%v", local.Errors, remote.Errors)
	}
	if !reflect.DeepEqual(local.Aggregate, remote.Aggregate) {
		t.Fatalf("remote aggregates differ from local:\n%+v\nvs\n%+v", remote.Aggregate, local.Aggregate)
	}
	for i := range cells {
		if !reflect.DeepEqual(local.Cells[i].Summary, remote.Cells[i].Summary) {
			t.Fatalf("cell %d summary differs local vs remote", i)
		}
	}
	st := svc.Stats()
	if st.RunsStarted != int64(len(cells)) || st.RunsCompleted != int64(len(cells)) {
		t.Fatalf("service saw %d/%d runs, want %d", st.RunsStarted, st.RunsCompleted, len(cells))
	}
}

// TestStudyListing covers GET /v1/study: cached and in-flight runs are
// visible with their options, so operators don't have to guess ids.
func TestStudyListing(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()

	env, err := c.Run(ctx, Request{Seed: 31, Scale: 0.01, AnnotationSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	list, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 1 {
		t.Fatalf("listed %d runs, want 1", len(list.Runs))
	}
	r := list.Runs[0]
	if r.ID != env.ID || !r.Cached || r.Status != StatusDone {
		t.Fatalf("listing row = %+v, want cached done run %s", r, env.ID)
	}
	if r.Options.Seed != 31 || r.Options.Scale != 0.01 || r.Options.AnnotationSize != 200 {
		t.Fatalf("listing options = %+v", r.Options)
	}
	// The listed id is directly fetchable — no guessing.
	if _, err := c.Get(ctx, r.ID); err != nil {
		t.Fatal(err)
	}
}

// TestCrawlConcurrencyCanonicalization: the crawl knob is part of the
// cache key, defaults like the study itself, and is bounded.
func TestCrawlConcurrencyCanonicalization(t *testing.T) {
	a, _ := canonicalize(Request{})
	b, _ := canonicalize(Request{CrawlConcurrency: 8})
	if a.key() != b.key() {
		t.Fatalf("default crawl concurrency should canonicalize to 8: %q vs %q", a.key(), b.key())
	}
	if c, _ := canonicalize(Request{CrawlConcurrency: 4}); c.key() == a.key() {
		t.Fatal("distinct crawl concurrency collapsed into one key")
	}

	_, cl := newTestService(t, Config{MaxWorkers: 8})
	if _, err := cl.Run(context.Background(), Request{Scale: 0.01, CrawlConcurrency: 64}); err == nil {
		t.Fatal("oversized crawl concurrency accepted")
	}
}
