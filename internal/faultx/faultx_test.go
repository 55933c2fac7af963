package faultx

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseProfileEmptyAndOff(t *testing.T) {
	for _, in := range []string{"", "  ", "off", " off "} {
		plan, err := ParseProfile(in)
		if err != nil {
			t.Fatalf("ParseProfile(%q): %v", in, err)
		}
		if plan != nil {
			t.Fatalf("ParseProfile(%q) = %v, want nil plan", in, plan)
		}
		if NewInjector(plan) != nil {
			t.Fatalf("NewInjector(nil) must be nil")
		}
	}
}

func TestParseProfileGrammar(t *testing.T) {
	plan, err := ParseProfile(
		"seed=7; failures=1; retry-after=2ms; ratelimit=a.com,b.com;" +
			"failures=3; flaky=c.com; stall=5ms; slow=d.com;" +
			"reset=e.com; down=f.com; rot=0.25; rot=0.5@g.com")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 7 {
		t.Fatalf("seed = %d, want 7", plan.Seed)
	}
	if plan.Rot != 0.25 {
		t.Fatalf("global rot = %g, want 0.25", plan.Rot)
	}
	want := map[string]HostFault{
		"a.com": {Failures: 1, Status: 429, RetryAfter: 2 * time.Millisecond},
		"b.com": {Failures: 1, Status: 429, RetryAfter: 2 * time.Millisecond},
		"c.com": {Failures: 3, Status: 500},
		"d.com": {Failures: 3, Stall: 5 * time.Millisecond},
		"e.com": {Failures: 3, Reset: true, Stall: 5 * time.Millisecond},
		"f.com": {Down: true},
		"g.com": {RotRate: 0.5},
	}
	if len(plan.Hosts) != len(want) {
		t.Fatalf("hosts = %v, want %d entries", plan.Hosts, len(want))
	}
	for h, hf := range want {
		if got := plan.Hosts[h]; got != hf {
			t.Errorf("host %s = %+v, want %+v", h, got, hf)
		}
	}
}

func TestParseProfileDefaults(t *testing.T) {
	plan, err := ParseProfile("ratelimit=*")
	if err != nil {
		t.Fatal(err)
	}
	hf := plan.Hosts["*"]
	if plan.Seed != 2019 || hf.Failures != 2 || hf.RetryAfter != time.Millisecond {
		t.Fatalf("defaults wrong: seed=%d fault=%+v", plan.Seed, hf)
	}
	// A slow clause with no stall scalar set defaults to 1ms, so the
	// fault is actually scheduled rather than silently inert.
	plan, err = ParseProfile("slow=a.com")
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Hosts["a.com"].Stall; got != time.Millisecond {
		t.Fatalf("bare slow stall = %v, want 1ms", got)
	}
}

func TestParseProfileErrors(t *testing.T) {
	for _, in := range []string{
		"nonsense",
		"bogus=1",
		"seed=abc",
		"failures=-1",
		"failures=x",
		"retry-after=fast",
		"retry-after=-1s",
		"stall=later",
		"rot=2",
		"rot=-0.1",
		"rot=high@a.com",
	} {
		if _, err := ParseProfile(in); err == nil {
			t.Errorf("ParseProfile(%q) accepted, want error", in)
		}
	}
}

func TestDecideScheduledCounter(t *testing.T) {
	plan, err := ParseProfile("failures=2;ratelimit=a.com")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(plan)
	for i := 0; i < 2; i++ {
		d := inj.Decide("a.com", "/x")
		if d.Status != 429 || d.RetryAfter != time.Millisecond {
			t.Fatalf("request %d: %+v, want 429 + hint", i, d)
		}
	}
	if d := inj.Decide("a.com", "/x"); d.Fault() {
		t.Fatalf("request 3 for same URL still faulted: %+v", d)
	}
	// A different URL on the same host has its own counter.
	if d := inj.Decide("a.com", "/y"); d.Status != 429 {
		t.Fatalf("fresh URL not faulted: %+v", d)
	}
	// An unlisted host passes through (no wildcard in this plan).
	if d := inj.Decide("b.com", "/x"); d.Fault() {
		t.Fatalf("unlisted host faulted: %+v", d)
	}
}

func TestDecideDownAndPrecedence(t *testing.T) {
	plan, err := ParseProfile("down=a.com;rot=1")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(plan)
	// Down beats rot: every request is a 500, forever.
	for i := 0; i < 5; i++ {
		if d := inj.Decide("a.com", "/x"); d.Status != 500 {
			t.Fatalf("down host request %d: %+v, want 500", i, d)
		}
	}
	// Other hosts see rot=1 → every URL is rotten.
	if d := inj.Decide("b.com", "/x"); d.Status != 404 {
		t.Fatalf("rot=1 host: %+v, want 404", d)
	}
}

func TestRotDeterministicAndSeeded(t *testing.T) {
	plan, _ := ParseProfile("rot=0.5")
	a, b := NewInjector(plan), NewInjector(plan)
	rotten, healthy := 0, 0
	for _, u := range []string{"/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h", "/i", "/j"} {
		da, db := a.Decide("h.com", u), b.Decide("h.com", u)
		if da != db {
			t.Fatalf("rot verdict for %s differs across injectors: %+v vs %+v", u, da, db)
		}
		// Repeat calls are stable too (permanent rot, no counter).
		if again := a.Decide("h.com", u); again != da {
			t.Fatalf("rot verdict for %s drifted on repeat: %+v vs %+v", u, again, da)
		}
		if da.Status == 404 {
			rotten++
		} else {
			healthy++
		}
	}
	if rotten == 0 || healthy == 0 {
		t.Fatalf("rot=0.5 over 10 URLs gave %d rotten / %d healthy — hash degenerate", rotten, healthy)
	}
	// A different seed rots a different subset.
	other, _ := ParseProfile("seed=1;rot=0.5")
	oi := NewInjector(other)
	same := true
	for _, u := range []string{"/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h", "/i", "/j"} {
		if oi.Decide("h.com", u) != a.Decide("h.com", u) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed change did not move the rotten subset")
	}
}

func TestRetryAfterRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{time.Millisecond, 250 * time.Millisecond, 2 * time.Second} {
		if got := ParseRetryAfter(FormatRetryAfter(d)); got != d {
			t.Errorf("round-trip %v → %q → %v", d, FormatRetryAfter(d), got)
		}
	}
	for _, v := range []string{"", "soon", "-1", "0", "Mon, 02 Jan 2006 15:04:05 GMT", "NaN", "Inf", "1e10"} {
		if got := ParseRetryAfter(v); got != 0 {
			t.Errorf("ParseRetryAfter(%q) = %v, want 0", v, got)
		}
	}
	// Integer seconds — what studysvc emits — parse too.
	if got := ParseRetryAfter("2"); got != 2*time.Second {
		t.Errorf("ParseRetryAfter(2) = %v", got)
	}
}

func TestTransportSeam(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		io.WriteString(w, "real")
	}))
	defer srv.Close()

	plan, _ := ParseProfile("failures=2;ratelimit=imgur.com")
	client := srv.Client()
	client.Transport = Transport(client.Transport, NewInjector(plan), nil)

	for i := 0; i < 2; i++ {
		resp, err := client.Get(srv.URL + "/imgur.com/img1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 429 {
			t.Fatalf("request %d: status %d, want 429", i, resp.StatusCode)
		}
		if hint := ParseRetryAfter(resp.Header.Get("Retry-After")); hint != time.Millisecond {
			t.Fatalf("request %d: Retry-After %q", i, resp.Header.Get("Retry-After"))
		}
		if hits != 0 {
			t.Fatalf("faulted request reached the real handler")
		}
	}
	resp, err := client.Get(srv.URL + "/imgur.com/img1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "real" || hits != 1 {
		t.Fatalf("post-schedule request: status %d body %q hits %d", resp.StatusCode, body, hits)
	}
	// Other sites under the same server are untouched.
	resp, err = client.Get(srv.URL + "/oron.com/f1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || hits != 2 {
		t.Fatalf("unlisted site: status %d hits %d", resp.StatusCode, hits)
	}
}

func TestTransportReset(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	plan, _ := ParseProfile("failures=1;reset=imgur.com")
	client := srv.Client()
	client.Transport = Transport(client.Transport, NewInjector(plan), nil)
	_, err := client.Get(srv.URL + "/imgur.com/x")
	if err == nil || !strings.Contains(err.Error(), "connection reset by imgur.com") {
		t.Fatalf("reset fault error = %v, want ResetError", err)
	}
	resp, err := client.Get(srv.URL + "/imgur.com/x")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("post-reset request: %v / %v", resp, err)
	}
	resp.Body.Close()
}

func TestTransportStallHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	plan, _ := ParseProfile("failures=1;stall=10s;slow=imgur.com")
	client := srv.Client()
	client.Transport = Transport(client.Transport, NewInjector(plan), nil)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/imgur.com/x", nil)
	start := time.Now()
	_, err := client.Do(req)
	if err == nil {
		t.Fatal("stalled request succeeded before its 10s stall")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stall ignored context cancellation (took %v)", elapsed)
	}
}

func TestMiddlewareSeam(t *testing.T) {
	hits := 0
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		io.WriteString(w, "real")
	})
	plan, _ := ParseProfile("failures=1;ratelimit=imgur.com;reset=oron.com")
	inj := NewInjector(plan)
	srv := httptest.NewServer(Middleware(inj, nil)(next))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/imgur.com/img1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 429 || ParseRetryAfter(resp.Header.Get("Retry-After")) != time.Millisecond {
		t.Fatalf("middleware fault: status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp, err = http.Get(srv.URL + "/imgur.com/img1")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("post-schedule: %v / %v", resp, err)
	}
	resp.Body.Close()

	// Reset faults abort the connection: the client sees a transport
	// error, not a status — matching the Transport seam.
	if _, err := http.Get(srv.URL + "/oron.com/f1"); err == nil {
		t.Fatal("reset fault answered instead of aborting")
	}
	if _, err := http.Get(srv.URL + "/oron.com/f1"); err != nil {
		t.Fatalf("post-reset request failed: %v", err)
	}
	if hits != 2 {
		t.Fatalf("real handler saw %d requests, want 2", hits)
	}
}

func TestMiddlewareNilInjectorIsIdentity(t *testing.T) {
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if got := Middleware(nil, nil)(next); got == nil {
		t.Fatal("nil-injector middleware returned nil handler")
	}
	if Transport(nil, nil, nil) != nil {
		t.Fatal("Transport with nil injector must return base unchanged (nil)")
	}
}

func TestHostFuncs(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/imgur.com/im/abc.jpg", nil)
	if got := PathHost(req); got != "imgur.com" {
		t.Fatalf("PathHost = %q", got)
	}
	req = httptest.NewRequest(http.MethodGet, "/landing", nil)
	if got := PathHost(req); got != "landing" {
		t.Fatalf("PathHost bare segment = %q", got)
	}
	if got := FixedHost("reverse")(req); got != "reverse" {
		t.Fatalf("FixedHost = %q", got)
	}
}

func TestPlanString(t *testing.T) {
	plan, _ := ParseProfile("rot=0.3;down=oron.com,zippyshare.com;failures=2;ratelimit=imgur.com")
	got := plan.String()
	want := `seed=2019 rot=0.3 imgur.com{429×2} oron.com{down} zippyshare.com{down}`
	if got != want {
		t.Fatalf("Plan.String() = %q, want %q", got, want)
	}
	if (*Plan)(nil).String() != "off" {
		t.Fatal("nil plan String() != off")
	}
}
