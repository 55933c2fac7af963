package crawler

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/hosting"
	"repro/internal/imagex"
	"repro/internal/urlx"
)

// testWorld builds a hosting world with one image site and one cloud
// site plus representative content.
func testWorld(t *testing.T) (*hosting.World, *httptest.Server, *Crawler) {
	t.Helper()
	w := hosting.NewWorld()
	img := w.AddSite(hosting.SiteConfig{Domain: "imgur.com", Kind: urlx.KindImageSharing})
	img.PutImage("live", imagex.GenModel(1, 0, imagex.PoseNude, 32))
	img.PutImage("deleted", imagex.GenModel(2, 0, imagex.PoseNude, 32))
	img.SetStatus("deleted", hosting.StatusDeleted)
	img.PutImage("tos", imagex.GenModel(3, 0, imagex.PoseNude, 32))
	img.SetStatus("tos", hosting.StatusTakedown)

	cloud := w.AddSite(hosting.SiteConfig{Domain: "mediafire.com", Kind: urlx.KindCloudStorage})
	if err := cloud.PutPack("pack1", []*imagex.Image{
		imagex.GenModel(10, 0, imagex.PoseNude, 32),
		imagex.GenModel(10, 1, imagex.PoseDressed, 32),
		imagex.GenModel(10, 0, imagex.PoseNude, 32), // duplicate of first
	}); err != nil {
		t.Fatal(err)
	}

	w.AddSite(hosting.SiteConfig{Domain: "dropbox.com", Kind: urlx.KindCloudStorage, RequiresLogin: true}).
		PutPack("wall", []*imagex.Image{imagex.GenModel(11, 0, imagex.PoseNude, 32)})
	w.AddSite(hosting.SiteConfig{Domain: "oron.com", Kind: urlx.KindCloudStorage, Defunct: true})

	srv := httptest.NewServer(w)
	t.Cleanup(srv.Close)
	c := New(Config{Concurrency: 4}, srv.Client(), w.Resolver(srv.URL))
	return w, srv, c
}

func task(url string, kind urlx.Kind) Task {
	return Task{
		Link:   urlx.Link{URL: url, Domain: urlx.Domain(url), Kind: kind},
		Thread: 1, Post: 2, Author: 3,
	}
}

func TestCrawlImage(t *testing.T) {
	_, _, c := testWorld(t)
	res := c.Crawl(context.Background(), []Task{task("https://imgur.com/live", urlx.KindImageSharing)})
	if len(res) != 1 {
		t.Fatal("wrong result count")
	}
	r := res[0]
	if r.Outcome != OutcomeOK || len(r.Images) != 1 || r.IsPack {
		t.Fatalf("result = %+v (err %v)", r.Outcome, r.Err)
	}
	if r.Task.Thread != 1 || r.Task.Post != 2 || r.Task.Author != 3 {
		t.Fatal("provenance metadata lost")
	}
}

func TestCrawlPack(t *testing.T) {
	_, _, c := testWorld(t)
	res := c.Crawl(context.Background(), []Task{task("https://mediafire.com/pack1", urlx.KindCloudStorage)})
	r := res[0]
	if r.Outcome != OutcomeOK || !r.IsPack || len(r.Images) != 3 {
		t.Fatalf("pack result: outcome %v images %d err %v", r.Outcome, len(r.Images), r.Err)
	}
}

func TestCrawlOutcomes(t *testing.T) {
	_, _, c := testWorld(t)
	tasks := []Task{
		task("https://imgur.com/deleted", urlx.KindImageSharing),
		task("https://imgur.com/missing", urlx.KindImageSharing),
		task("https://dropbox.com/wall", urlx.KindCloudStorage),
		task("https://oron.com/x", urlx.KindCloudStorage),
		task("https://imgur.com/tos", urlx.KindImageSharing),
	}
	res := c.Crawl(context.Background(), tasks)
	if res[0].Outcome != OutcomeNotFound {
		t.Errorf("deleted: %v", res[0].Outcome)
	}
	if res[1].Outcome != OutcomeNotFound {
		t.Errorf("missing: %v", res[1].Outcome)
	}
	if res[2].Outcome != OutcomeLoginRequired {
		t.Errorf("login wall: %v", res[2].Outcome)
	}
	if res[3].Outcome != OutcomeSiteDown {
		t.Errorf("defunct: %v", res[3].Outcome)
	}
	// ToS takedown on an image site yields a banner image (OK).
	if res[4].Outcome != OutcomeOK || len(res[4].Images) != 1 {
		t.Errorf("tos: %v", res[4].Outcome)
	}
	if f := res[4].Images[0].SkinStats().Fraction; f > 0.01 {
		t.Error("tos banner contains the original content")
	}
}

func TestCrawlManyConcurrent(t *testing.T) {
	w, _, _ := testWorld(t)
	site, _ := w.Site("imgur.com")
	var tasks []Task
	for i := 0; i < 100; i++ {
		path := "bulk" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		site.PutImage(path, imagex.GenModel(uint64(100+i), 0, imagex.PoseNude, 24))
		tasks = append(tasks, task("https://imgur.com/"+path, urlx.KindImageSharing))
	}
	srv := httptest.NewServer(w)
	defer srv.Close()
	c := New(Config{Concurrency: 16}, srv.Client(), w.Resolver(srv.URL))
	res := c.Crawl(context.Background(), tasks)
	ok := 0
	for _, r := range res {
		if r.Outcome == OutcomeOK {
			ok++
		}
	}
	if ok != 100 {
		t.Fatalf("only %d/100 fetched", ok)
	}
}

// TestCrawlReusesConnections counts the server's connections over a
// crawl that mixes 200s with 404, 410 and 401 answers. Error bodies are
// read to EOF before they are closed, so every connection returns to
// the keep-alive pool after each fetch and the crawl dials at most
// Concurrency of them. The client caps its connections at the worker
// count: without the cap, a worker whose returned connection was
// handed to another worker still waiting on its first dial would dial
// again, and the count would depend on scheduling.
func TestCrawlReusesConnections(t *testing.T) {
	w, _, _ := testWorld(t)
	site, _ := w.Site("imgur.com")
	const concurrency = 4
	var tasks []Task
	for i := 0; i < 48; i++ {
		switch i % 4 {
		case 0, 1:
			path := fmt.Sprintf("reuse%d", i)
			site.PutImage(path, imagex.GenModel(uint64(200+i), 0, imagex.PoseNude, 24))
			tasks = append(tasks, task("https://imgur.com/"+path, urlx.KindImageSharing))
		case 2:
			tasks = append(tasks, task(fmt.Sprintf("https://imgur.com/missing%d", i), urlx.KindImageSharing))
		default:
			tasks = append(tasks, task("https://dropbox.com/wall", urlx.KindCloudStorage),
				task("https://imgur.com/deleted", urlx.KindImageSharing))
		}
	}
	var dials atomic.Int32
	srv := httptest.NewUnstartedServer(w)
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	client := srv.Client()
	tr := client.Transport.(*http.Transport)
	tr.MaxIdleConnsPerHost, tr.MaxConnsPerHost = concurrency, concurrency
	c := New(Config{Concurrency: concurrency}, client, w.Resolver(srv.URL))
	byOutcome := make(map[Outcome]int)
	for _, r := range c.Crawl(context.Background(), tasks) {
		byOutcome[r.Outcome]++
	}
	if byOutcome[OutcomeOK] != 24 || byOutcome[OutcomeNotFound] != 24 || byOutcome[OutcomeLoginRequired] != 12 {
		t.Fatalf("outcomes = %v", byOutcome)
	}
	if n := dials.Load(); n > concurrency {
		t.Fatalf("crawl of %d tasks opened %d connections, want at most %d", len(tasks), n, concurrency)
	}
}

func TestCrawlCancellation(t *testing.T) {
	_, _, c := testWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tasks := make([]Task, 50)
	for i := range tasks {
		tasks[i] = task("https://imgur.com/live", urlx.KindImageSharing)
	}
	res := c.Crawl(ctx, tasks)
	errs := 0
	for _, r := range res {
		if r.Outcome == OutcomeError {
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("cancelled crawl completed everything")
	}
}

func TestCrawlBadResolver(t *testing.T) {
	c := New(Config{}, nil, func(string) (string, error) { return "", context.DeadlineExceeded })
	res := c.Crawl(context.Background(), []Task{task("https://x.com/1", urlx.KindImageSharing)})
	if res[0].Outcome != OutcomeError || res[0].Err == nil {
		t.Fatalf("result = %+v", res[0])
	}
}

func TestSummarize(t *testing.T) {
	_, _, c := testWorld(t)
	res := c.Crawl(context.Background(), []Task{
		task("https://imgur.com/live", urlx.KindImageSharing),
		task("https://mediafire.com/pack1", urlx.KindCloudStorage),
		task("https://imgur.com/deleted", urlx.KindImageSharing),
	})
	s := Summarize(res)
	if s.Tasks != 3 {
		t.Errorf("Tasks = %d", s.Tasks)
	}
	if s.PacksFetched != 1 || s.PackImages != 3 || s.PreviewImages != 1 {
		t.Errorf("stats = %+v", s)
	}
	// The pack contains an exact duplicate image.
	if s.DuplicateCount != 1 {
		t.Errorf("DuplicateCount = %d want 1", s.DuplicateCount)
	}
	if s.UniqueImages != 3 {
		t.Errorf("UniqueImages = %d want 3", s.UniqueImages)
	}
	if s.ByOutcome[OutcomeNotFound] != 1 {
		t.Errorf("ByOutcome = %v", s.ByOutcome)
	}
	if len(s.OutcomeCounts()) == 0 {
		t.Error("OutcomeCounts empty")
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		OutcomeOK: "ok", OutcomeNotFound: "not found",
		OutcomeLoginRequired: "login required", OutcomeSiteDown: "site down",
		OutcomeError: "error", Outcome(99): "unknown",
	} {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q", o, o.String())
		}
	}
}

// TestCrawlStreamMatchesCrawl pins the stream's ordering contract: a
// single-worker crawl and a 16-worker crawl deliver the same results
// in task order.
func TestCrawlStreamMatchesCrawl(t *testing.T) {
	w, srv, _ := testWorld(t)
	tasks := []Task{
		task("https://imgur.com/live", urlx.KindImageSharing),
		task("https://imgur.com/deleted", urlx.KindImageSharing),
		task("https://mediafire.com/pack1", urlx.KindCloudStorage),
		task("https://dropbox.com/wall", urlx.KindCloudStorage),
		task("https://oron.com/x", urlx.KindCloudStorage),
		task("https://imgur.com/tos", urlx.KindImageSharing),
	}
	crawl := func(concurrency int) []Result {
		c := New(Config{Concurrency: concurrency}, srv.Client(), w.Resolver(srv.URL))
		var out []Result
		for r := range c.CrawlStream(context.Background(), tasks) {
			out = append(out, r)
		}
		return out
	}
	want, got := crawl(1), crawl(16)
	if len(want) != len(tasks) || len(got) != len(want) {
		t.Fatalf("stream delivered %d (1 worker) and %d (16 workers) results, want %d", len(want), len(got), len(tasks))
	}
	for i := range want {
		if got[i].Task != want[i].Task || want[i].Task != tasks[i] {
			t.Fatalf("result %d out of order: got task %+v want %+v", i, got[i].Task, tasks[i])
		}
		if got[i].Outcome != want[i].Outcome || got[i].IsPack != want[i].IsPack ||
			len(got[i].Images) != len(want[i].Images) {
			t.Fatalf("result %d differs: got (%v, pack=%v, %d images) want (%v, pack=%v, %d images)",
				i, got[i].Outcome, got[i].IsPack, len(got[i].Images),
				want[i].Outcome, want[i].IsPack, len(want[i].Images))
		}
	}
}

func TestCrawlStreamCancel(t *testing.T) {
	_, _, c := testWorld(t)
	var tasks []Task
	for i := 0; i < 200; i++ {
		tasks = append(tasks, task("https://imgur.com/live", urlx.KindImageSharing))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := c.CrawlStream(ctx, tasks)
	n := 0
	for range ch {
		n++
		if n == 3 {
			cancel()
		}
	}
	if n == len(tasks) {
		t.Fatal("cancellation did not stop the stream")
	}
}
