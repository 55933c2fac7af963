package studysvc

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// blockRuns parks every run inside execute (holding its pool slot)
// until the returned release is closed; started receives one token per
// run that reached the hook.
func blockRuns(svc *Service) (started chan struct{}, release chan struct{}) {
	started = make(chan struct{}, 16)
	release = make(chan struct{})
	svc.testRunHook = func() {
		started <- struct{}{}
		<-release
	}
	return started, release
}

// postStudy POSTs a raw study request and returns the response.
func postStudy(t *testing.T, url string, r Request, query string) *http.Response {
	t.Helper()
	u := url + "/v1/study"
	if query != "" {
		u += "?" + query
	}
	resp, err := http.Post(u, "application/json", jsonBody(t, r))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSaturatedPoolSheds is the acceptance-criteria shed test: with
// the queue disabled, a saturated pool answers 429 + Retry-After and
// counts the shed; once the pool drains, the same request is accepted.
func TestSaturatedPoolSheds(t *testing.T) {
	svc := New(Config{MaxConcurrentRuns: 1, MaxQueueDepth: -1})
	started, release := blockRuns(svc)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	// Occupy the only slot: the run parks in the hook, the wait=false
	// response returns immediately.
	resp := postStudy(t, srv.URL, tinyRequest(11), "wait=false")
	var first Envelope
	if err := jsonDecode(resp, &first); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupying request: status %d", resp.StatusCode)
	}
	<-started

	// A distinct request now has no slot and no queue: shed.
	resp = postStudy(t, srv.URL, tinyRequest(12), "")
	var body errorResponse
	if err := jsonDecode(resp, &body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated pool answered %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want %q", ra, "1")
	}
	if !strings.Contains(body.Error, "saturated") {
		t.Errorf("error body %q does not name saturation", body.Error)
	}
	if st := svc.Stats(); st.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", st.Shed)
	}

	// Cache hits need no slot: the occupying run's options coalesce
	// onto the in-flight run even while the pool is saturated.
	resp = postStudy(t, srv.URL, tinyRequest(11), "wait=false")
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("coalescable request was shed: status %d", resp.StatusCode)
	}

	// Drain the pool and wait for the first run to finish; the shed
	// request is now accepted.
	close(release)
	resp = postStudy(t, srv.URL, tinyRequest(11), "")
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.URL, nil)
	c.MaxRetries = -1 // a retry here would hide a broken drain
	env, err := c.Run(context.Background(), tinyRequest(12))
	if err != nil {
		t.Fatalf("request after drain: %v", err)
	}
	if env.Status != StatusDone {
		t.Fatalf("request after drain: %+v", env)
	}
	if st := svc.Stats(); st.Shed != 1 {
		t.Errorf("drain changed the shed counter: %d", st.Shed)
	}
}

// TestQueueWaitTimeoutSheds: with a queue, a waiter that cannot get a
// slot within MaxQueueWait is shed, and the queue depth returns to 0.
func TestQueueWaitTimeoutSheds(t *testing.T) {
	svc := New(Config{
		MaxConcurrentRuns: 1,
		MaxQueueDepth:     4,
		MaxQueueWait:      50 * time.Millisecond,
		RetryAfter:        3 * time.Second,
	})
	_, release := blockRuns(svc)
	defer close(release)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	resp := postStudy(t, srv.URL, tinyRequest(21), "wait=false")
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	resp = postStudy(t, srv.URL, tinyRequest(22), "")
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued request answered %d, want 429 after the wait bound", resp.StatusCode)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Errorf("shed after %v, before the 50ms queue wait elapsed", waited)
	}
	// RetryAfter is configurable and rounds up to whole seconds.
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want %q", ra, "3")
	}
	st := svc.Stats()
	if st.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", st.Shed)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth %d after the waiter was shed, want 0", st.QueueDepth)
	}
}

// TestQueueFullSheds: waiters beyond MaxQueueDepth are shed
// immediately, without burning the queue-wait deadline.
func TestQueueFullSheds(t *testing.T) {
	svc := New(Config{
		MaxConcurrentRuns: 1,
		MaxQueueDepth:     1,
		MaxQueueWait:      30 * time.Second, // must not be waited out
	})
	_, release := blockRuns(svc)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	resp := postStudy(t, srv.URL, tinyRequest(31), "wait=false")
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}

	// Fill the one queue spot with a parked waiter.
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		resp := postStudy(t, srv.URL, tinyRequest(32), "")
		_ = resp.Body.Close()
	}()
	waitFor(t, func() bool { return svc.Stats().QueueDepth == 1 })

	start := time.Now()
	resp = postStudy(t, srv.URL, tinyRequest(33), "")
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue request answered %d, want 429", resp.StatusCode)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("queue-full shed took %v; it must not wait out the deadline", waited)
	}
	close(release)
	<-parked
}

// waitFor polls cond to true within a deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestInFlightRequestsTracksOpenHTTP: a request parked waiting on a
// run shows up in InFlightRequests — what the server's shutdown log
// names — and leaves when it completes.
func TestInFlightRequestsTracksOpenHTTP(t *testing.T) {
	svc := New(Config{MaxConcurrentRuns: 1})
	_, release := blockRuns(svc)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp := postStudy(t, srv.URL, tinyRequest(41), "")
		_ = resp.Body.Close()
	}()
	waitFor(t, func() bool { return len(svc.InFlightRequests()) == 1 })
	entry := svc.InFlightRequests()[0]
	if !strings.Contains(entry, "POST /v1/study") {
		t.Errorf("in-flight entry %q does not name the request", entry)
	}
	close(release)
	<-done
	waitFor(t, func() bool { return len(svc.InFlightRequests()) == 0 })
}

// TestRequestIDHeader: every response carries X-Request-ID, and a
// caller-provided id is adopted rather than replaced.
func TestRequestIDHeader(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("response missing X-Request-ID")
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/stats", nil)
	req.Header.Set("X-Request-ID", "caller-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-7" {
		t.Errorf("caller-provided request id replaced: %q", got)
	}
}

// statsKeyPaths pins the /v1/stats JSON shape: every key path in the
// document, with array elements folded as "[]". Extending the stats is
// additive (the golden below gains lines); renaming or removing a
// field breaks dashboards and must show up here.
func statsKeyPaths(prefix string, v any, paths map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			paths[p] = true
			statsKeyPaths(p, child, paths)
		}
	case []any:
		for _, child := range v {
			statsKeyPaths(prefix+"[]", child, paths)
		}
	}
}

func TestStatsJSONShape(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, nil)
	if _, err := c.Run(context.Background(), tinyRequest(51)); err != nil {
		t.Fatal(err)
	}
	_ = svc // the run populates queue_wait, memo and nodes

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := jsonDecode(resp, &doc); err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	statsKeyPaths("", doc, paths)
	got := make([]string, 0, len(paths))
	for p := range paths {
		got = append(got, p)
	}
	sort.Strings(got)

	want := []string{
		"cache_hits",
		"cached_results",
		"coalesced",
		"evictions",
		"in_flight",
		"memo",
		"memo.computes",
		"memo.entries",
		"memo.evictions",
		"memo.hits",
		"nodes",
		"nodes[].computes",
		"nodes[].latency",
		"nodes[].latency.buckets",
		"nodes[].latency.buckets[].count",
		"nodes[].latency.buckets[].le_ms",
		"nodes[].latency.count",
		"nodes[].latency.max_ms",
		"nodes[].latency.min_ms",
		"nodes[].latency.p50_ms",
		"nodes[].latency.p95_ms",
		"nodes[].latency.p99_ms",
		"nodes[].latency.total_ms",
		"nodes[].memo_hits",
		"nodes[].name",
		"nodes[].p50_ms",
		"nodes[].p95_ms",
		"open_requests",
		"queue_depth",
		"queue_wait",
		"queue_wait.buckets",
		"queue_wait.buckets[].count",
		"queue_wait.buckets[].le_ms",
		"queue_wait.count",
		"queue_wait.max_ms",
		"queue_wait.min_ms",
		"queue_wait.p50_ms",
		"queue_wait.p95_ms",
		"queue_wait.p99_ms",
		"queue_wait.total_ms",
		"runs_completed",
		"runs_failed",
		"runs_started",
		"shed",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("/v1/stats key paths changed:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestStatsNodesMatchMemoLedger pins /v1/stats nodes to the memo
// store's ledger: across a full run, a filtered run of the same world
// and a full rerun that differs only in workers, the per-node rows sum
// to the memo block's counters, and every computation — and nothing
// else — is timed.
func TestStatsNodesMatchMemoLedger(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()
	filtered := tinyRequest(61)
	filtered.Artefacts = []string{"table5"}
	rerun := tinyRequest(61)
	rerun.Workers = 1
	for _, req := range []Request{tinyRequest(61), filtered, rerun} {
		env, err := c.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if env.Status != StatusDone || env.Cached {
			t.Fatalf("run %s: status=%s cached=%v", env.ID, env.Status, env.Cached)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Memo == nil || st.Memo.Hits == 0 {
		t.Fatalf("memo block %+v: the later runs should hit the first run's nodes", st.Memo)
	}
	var computes, hits int64
	for _, n := range st.Nodes {
		computes += n.Computes
		hits += n.MemoHits
		if n.Latency.Count != n.Computes {
			t.Errorf("node %s: latency.count %d, computes %d", n.Name, n.Latency.Count, n.Computes)
		}
	}
	if computes != st.Memo.Computes || hits != st.Memo.Hits {
		t.Errorf("nodes sum to %d computes / %d hits, memo block has %d / %d",
			computes, hits, st.Memo.Computes, st.Memo.Hits)
	}
}

// TestClientRetriesShedRequests: the client backs off on 429 as the
// server asks (capped, deterministic) and succeeds when a slot opens.
// One submission is one logical request: every attempt in the retry
// sequence carries the same client-minted X-Request-ID.
func TestClientRetriesShedRequests(t *testing.T) {
	var attempts int
	var attemptIDs []string
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/study", func(w http.ResponseWriter, req *http.Request) {
		attempts++
		attemptIDs = append(attemptIDs, req.Header.Get("X-Request-ID"))
		if attempts <= 2 {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "study pool saturated: queue full")
			return
		}
		writeJSON(w, Envelope{ID: "s-1", Status: StatusDone})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	c := NewClient(srv.URL, nil)
	c.MaxBackoff = 5 * time.Millisecond // cap the 1s Retry-After for test speed
	env, err := c.Run(context.Background(), tinyRequest(61))
	if err != nil {
		t.Fatalf("retrying client gave up: %v (attempts %d)", err, attempts)
	}
	if env.Status != StatusDone || attempts != 3 {
		t.Fatalf("status %s after %d attempts, want done after 3", env.Status, attempts)
	}
	if attemptIDs[0] == "" || !strings.HasPrefix(attemptIDs[0], "c-") {
		t.Errorf("first attempt X-Request-ID = %q, want a client-minted c-N id", attemptIDs[0])
	}
	for i, id := range attemptIDs {
		if id != attemptIDs[0] {
			t.Errorf("attempt %d X-Request-ID = %q, want %q (one submission, one id)", i+1, id, attemptIDs[0])
		}
	}

	// MaxRetries < 0 disables retrying: the raw 429 surfaces, with the
	// server's body and hint attached.
	attempts = 0
	c.MaxRetries = -1
	_, err = c.Run(context.Background(), tinyRequest(61))
	var he *HTTPError
	if !errors.As(err, &he) {
		t.Fatalf("non-retrying client error = %v, want *HTTPError", err)
	}
	if he.Status != http.StatusTooManyRequests || he.RetryAfter != time.Second {
		t.Errorf("HTTPError = %+v, want 429 with 1s hint", he)
	}
	if !strings.Contains(he.Msg, "queue full") {
		t.Errorf("HTTPError.Msg %q lost the server's reason", he.Msg)
	}
	if attempts != 1 {
		t.Errorf("non-retrying client made %d attempts, want 1", attempts)
	}
}

// captureRT records the X-Request-ID a request carried and the one the
// response echoed back.
type captureRT struct {
	sent   *string
	echoed *string
}

func (c captureRT) RoundTrip(req *http.Request) (*http.Response, error) {
	*c.sent = req.Header.Get("X-Request-ID")
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		*c.echoed = resp.Header.Get("X-Request-ID")
	}
	return resp, err
}

// TestClientRequestIDEchoed: a real service adopts the client-minted
// request id instead of assigning its own — the response echo matches
// what the client sent, so both sides' logs share the join key.
func TestClientRequestIDEchoed(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	var sent, echoed string
	c := NewClient(srv.URL, &http.Client{Transport: captureRT{&sent, &echoed}})
	if _, err := c.Run(context.Background(), tinyRequest(62)); err != nil {
		t.Fatal(err)
	}
	if sent == "" || !strings.HasPrefix(sent, "c-") {
		t.Errorf("client sent X-Request-ID %q, want a c-N id", sent)
	}
	if echoed != sent {
		t.Errorf("server echoed X-Request-ID %q, want the client's %q", echoed, sent)
	}
}

// TestClientSurfacesErrorBody: a non-2xx response's error carries the
// server's reason, not just the status code.
func TestClientSurfacesErrorBody(t *testing.T) {
	_, c := newTestService(t, Config{MaxScale: 0.1})
	_, err := c.Run(context.Background(), Request{Scale: 0.5})
	var he *HTTPError
	if !errors.As(err, &he) {
		t.Fatalf("error = %v, want *HTTPError", err)
	}
	if he.Status != http.StatusUnprocessableEntity {
		t.Errorf("status = %d, want 422", he.Status)
	}
	if !strings.Contains(he.Msg, "exceeds the service limit") {
		t.Errorf("Msg %q lost the server's reason", he.Msg)
	}
	if !strings.Contains(err.Error(), "exceeds the service limit") {
		t.Errorf("Error() %q lost the server's reason", err.Error())
	}
}

// TestOriginRequestThreadsToRun: the run records which HTTP request
// started it — the join key between the request log and the run log.
func TestOriginRequestThreadsToRun(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/study",
		jsonBody(t, tinyRequest(71)))
	req.Header.Set("X-Request-ID", "origin-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := jsonDecode(resp, &env); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	r := svc.byID[env.ID]
	svc.mu.Unlock()
	if r == nil {
		t.Fatalf("run %s not addressable", env.ID)
	}
	if r.origin != "origin-1" {
		t.Errorf("run origin = %q, want the starting request's id", r.origin)
	}
}
