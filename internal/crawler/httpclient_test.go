package crawler

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hosting"
	"repro/internal/imagex"
	"repro/internal/pipeline"
	"repro/internal/reverse"
	"repro/internal/urlx"
	"repro/internal/wayback"
)

// testSubstrate serves a small hosting world, a reverse index and a
// wayback archive over live HTTP and returns a client for them.
func testSubstrate(t *testing.T) (*HTTPClient, *hosting.World) {
	t.Helper()
	w := hosting.NewWorld()
	img := w.AddSite(hosting.SiteConfig{Domain: "imgur.com", Kind: urlx.KindImageSharing})
	img.PutImage("live", imagex.GenModel(1, 0, imagex.PoseNude, 32))
	cloud := w.AddSite(hosting.SiteConfig{Domain: "mediafire.com", Kind: urlx.KindCloudStorage})
	if err := cloud.PutPack("pack1", []*imagex.Image{
		imagex.GenModel(10, 0, imagex.PoseNude, 32),
		imagex.GenModel(10, 1, imagex.PoseDressed, 32),
	}); err != nil {
		t.Fatal(err)
	}
	w.AddSite(hosting.SiteConfig{Domain: "oron.com", Kind: urlx.KindCloudStorage, Defunct: true})

	ix := reverse.NewIndex(0)
	ix.AddImage(imagex.GenModel(1, 0, imagex.PoseNude, 32), reverse.Record{
		URL: "https://origin.example/m1", Domain: "origin.example",
		CrawlDate: time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC),
	})
	arch := wayback.NewArchive()
	arch.Add("https://origin.example/m1", time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))

	hostSrv := httptest.NewServer(w)
	t.Cleanup(hostSrv.Close)
	revSrv := httptest.NewServer(reverse.Handler(ix))
	t.Cleanup(revSrv.Close)
	waySrv := httptest.NewServer(wayback.Handler(arch))
	t.Cleanup(waySrv.Close)

	hc := NewHTTPClient(HTTPConfig{
		HostingURL: hostSrv.URL,
		ReverseURL: revSrv.URL,
		WaybackURL: waySrv.URL,
		Crawl:      Config{Concurrency: 4},
	})
	t.Cleanup(hc.Close)
	return hc, w
}

func TestHTTPClientCrawl(t *testing.T) {
	hc, _ := testSubstrate(t)
	res := collectStream(hc, []Task{
		task("https://imgur.com/live", urlx.KindImageSharing),
		task("https://mediafire.com/pack1", urlx.KindCloudStorage),
		task("https://oron.com/x", urlx.KindCloudStorage),
	})
	if res[0].Outcome != OutcomeOK || len(res[0].Images) != 1 {
		t.Errorf("image fetch: outcome %v, %d images", res[0].Outcome, len(res[0].Images))
	}
	if res[1].Outcome != OutcomeOK || !res[1].IsPack || len(res[1].Images) != 2 {
		t.Errorf("pack fetch: outcome %v, pack=%v, %d images", res[1].Outcome, res[1].IsPack, len(res[1].Images))
	}
	if res[2].Outcome != OutcomeSiteDown {
		t.Errorf("defunct site: outcome %v", res[2].Outcome)
	}
}

func TestHTTPClientSearchAndWayback(t *testing.T) {
	hc, _ := testSubstrate(t)
	ctx := context.Background()
	im := imagex.GenModel(1, 0, imagex.PoseNude, 32)

	byHash, err := hc.SearchHash(ctx, imagex.Hash128Of(im))
	if err != nil || len(byHash) != 1 {
		t.Fatalf("SearchHash: %d matches, err %v", len(byHash), err)
	}

	seen, err := hc.SeenBefore(ctx, byHash[0].URL, time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil || !seen {
		t.Errorf("SeenBefore(2016) = %v, err %v; want true", seen, err)
	}
	seen, err = hc.SeenBefore(ctx, byHash[0].URL, time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil || seen {
		t.Errorf("SeenBefore(2015) = %v, err %v; want false", seen, err)
	}
}

// TestHTTPClientReusesConnection pins keep-alive reuse across both
// substrate lookups: getJSON reads each reply to the end, so
// alternating searches and Wayback lookups share one connection even
// when the JSON value and its trailing newline arrive apart.
func TestHTTPClientReusesConnection(t *testing.T) {
	var dials atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/searchhash" {
			io.WriteString(w, `{"matches":[]}`)
		} else {
			io.WriteString(w, `{"available":false}`)
		}
		w.(http.Flusher).Flush()
		time.Sleep(2 * time.Millisecond)
		io.WriteString(w, "\n")
	}))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	hc := NewHTTPClient(HTTPConfig{ReverseURL: srv.URL, WaybackURL: srv.URL, Client: srv.Client()})
	defer hc.Close()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := hc.SearchHash(ctx, imagex.Hash128{A: imagex.Hash(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := hc.SeenBefore(ctx, "http://a.example/x", time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("10 sequential lookups opened %d connections, want 1", got)
	}
}

// TestHTTPClientLookupStatusError pins the lookups' failure shape: a
// non-200 reply, once retries are spent, is a *StatusError carrying
// the server's Retry-After hint.
func TestHTTPClientLookupStatusError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	hc := NewHTTPClient(HTTPConfig{ReverseURL: srv.URL, WaybackURL: srv.URL, MaxRetries: -1})
	defer hc.Close()
	ctx := context.Background()
	_, searchErr := hc.SearchHash(ctx, imagex.Hash128{})
	seen, waybackErr := hc.SeenBefore(ctx, "http://a.example/x", time.Now())
	for _, err := range []error{searchErr, waybackErr} {
		var se *StatusError
		if !errors.As(err, &se) || se.StatusCode != http.StatusServiceUnavailable || se.RetryAfter != 7*time.Second {
			t.Errorf("err = %#v, want a 503 *StatusError with a 7s Retry-After", err)
		}
	}
	if seen {
		t.Error("failed Wayback lookup reported seen")
	}
}

func TestHTTPClientVisitKind(t *testing.T) {
	hc, _ := testSubstrate(t)
	ctx := context.Background()
	if k, ok, err := hc.VisitKind(ctx, "imgur.com"); !ok || k != urlx.KindImageSharing || err != nil {
		t.Errorf("imgur.com: kind %v ok %v err %v", k, ok, err)
	}
	if k, ok, err := hc.VisitKind(ctx, "mediafire.com"); !ok || k != urlx.KindCloudStorage || err != nil {
		t.Errorf("mediafire.com: kind %v ok %v err %v", k, ok, err)
	}
	// The substrate's authoritative negatives are not errors.
	if _, ok, err := hc.VisitKind(ctx, "oron.com"); ok || err != nil {
		t.Errorf("defunct site: ok %v err %v", ok, err)
	}
	if _, ok, err := hc.VisitKind(ctx, "nosuch.example"); ok || err != nil {
		t.Errorf("unregistered domain: ok %v err %v", ok, err)
	}
}

// TestHTTPClientVisitKindSurfacesFailures: statuses outside the
// substrate's vocabulary are lookup failures, not authoritative
// negatives — after the bounded retries they surface as errors.
func TestHTTPClientVisitKindSurfacesFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "teapot", http.StatusTeapot)
	}))
	defer srv.Close()
	hc := NewHTTPClient(HTTPConfig{
		HostingURL:  srv.URL,
		MaxRetries:  1,
		BackoffBase: time.Millisecond,
	})
	defer hc.Close()
	if _, ok, err := hc.VisitKind(context.Background(), "weird.example"); ok || err == nil {
		t.Errorf("unexpected status: ok %v err %v, want a surfaced error", ok, err)
	}
}

// TestHTTPClientRetries pins the bounded-retry behaviour: a server
// that fails twice at the transport level then succeeds is absorbed by
// the deterministic backoff schedule.
func TestHTTPClientRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			// Hijack and slam the connection to force a transport error.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
			return
		}
		w.Header().Set("Content-Type", hosting.ContentTypeSIMG)
		w.Write(imagex.GenModel(1, 0, imagex.PoseNude, 24).Encode())
	}))
	defer srv.Close()

	hc := NewHTTPClient(HTTPConfig{
		HostingURL: srv.URL,
		Crawl:      Config{Concurrency: 1, MaxRetries: 2, BackoffBase: time.Millisecond},
	})
	defer hc.Close()
	res := collectStream(hc, []Task{task("https://imgur.com/x", urlx.KindImageSharing)})
	if res[0].Outcome != OutcomeOK {
		t.Fatalf("retry did not recover: outcome %v err %v", res[0].Outcome, res[0].Err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
}

func TestHTTPClientRequestTimeout(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	// Unblock the handler before srv.Close waits on it (defers are LIFO).
	defer srv.Close()
	defer close(block)

	hc := NewHTTPClient(HTTPConfig{
		HostingURL:     srv.URL,
		RequestTimeout: 50 * time.Millisecond,
		Crawl:          Config{Concurrency: 1, MaxRetries: -1, BackoffBase: time.Millisecond},
	})
	defer hc.Close()
	start := time.Now()
	res := collectStream(hc, []Task{task("https://imgur.com/slow", urlx.KindImageSharing)})
	if res[0].Outcome != OutcomeError {
		t.Fatalf("outcome %v, want error", res[0].Outcome)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

// TestHTTPClientPerHostRateLimit pins the per-virtual-host spacing: 3
// requests to one domain with a 30ms interval cannot complete in under
// ~60ms, while separate domains are not throttled against each other.
func TestHTTPClientPerHostRateLimit(t *testing.T) {
	w := hosting.NewWorld()
	for _, d := range []string{"a.com", "b.com"} {
		site := w.AddSite(hosting.SiteConfig{Domain: d, Kind: urlx.KindImageSharing})
		site.PutImage("x", imagex.GenModel(1, 0, imagex.PoseNude, 24))
	}
	srv := httptest.NewServer(w)
	defer srv.Close()

	const interval = 30 * time.Millisecond
	hc := NewHTTPClient(HTTPConfig{
		HostingURL: srv.URL,
		Crawl:      Config{Concurrency: 4, PerHostDelay: interval},
	})
	defer hc.Close()

	start := time.Now()
	res := collectStream(hc, []Task{
		task("https://a.com/x", urlx.KindImageSharing),
		task("https://a.com/x", urlx.KindImageSharing),
		task("https://a.com/x", urlx.KindImageSharing),
	})
	elapsed := time.Since(start)
	for _, r := range res {
		if r.Outcome != OutcomeOK {
			t.Fatalf("outcome %v err %v", r.Outcome, r.Err)
		}
	}
	if elapsed < 2*interval {
		t.Errorf("3 same-host requests finished in %v, want >= %v", elapsed, 2*interval)
	}
}

// collectStream crawls tasks through the client's stream and returns
// the results in task order.
func collectStream(hc *HTTPClient, tasks []Task) []Result {
	return pipeline.Collect(hc.CrawlStream(context.Background(), tasks))
}
