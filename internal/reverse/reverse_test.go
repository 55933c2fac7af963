package reverse

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/imagex"
)

func day(n int) time.Time {
	return time.Date(2014, time.June, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, n)
}

func TestSearchExactAndRecompressed(t *testing.T) {
	ix := NewIndex(0)
	origin := imagex.GenModel(5, 0, imagex.PoseNude, 48)
	ix.AddImage(origin, Record{URL: "http://pornsite.example/m5", Domain: "pornsite.example", CrawlDate: day(0)})

	if got := ix.SearchHash(imagex.Hash128Of(origin)); len(got) != 1 || got[0].Distance != 0 || got[0].Score != 1 {
		t.Fatalf("exact search = %+v", got)
	}
	re := origin.Recompress(16)
	got := ix.SearchHash(imagex.Hash128Of(re))
	if len(got) != 1 {
		t.Fatalf("recompressed copy not matched")
	}
	if got[0].Score <= 0.8 {
		t.Fatalf("recompressed score %.3f too low", got[0].Score)
	}
}

func TestMirrorEvadesSearch(t *testing.T) {
	ix := NewIndex(0)
	origin := imagex.GenModel(8, 0, imagex.PoseNude, 48)
	ix.AddImage(origin, Record{URL: "u", Domain: "d"})
	if got := ix.SearchHash(imagex.Hash128Of(origin.Mirror())); len(got) != 0 {
		t.Fatalf("mirrored image matched %d records; mirroring should evade", len(got))
	}
}

func TestUnrelatedImagesDoNotMatch(t *testing.T) {
	ix := NewIndex(0)
	for i := 0; i < 100; i++ {
		ix.AddImage(imagex.GenModel(uint64(i), 0, imagex.PoseNude, 48), Record{URL: "u", Domain: "d"})
	}
	hits := 0
	for i := 1000; i < 1050; i++ {
		hits += len(ix.SearchHash(imagex.Hash128Of(imagex.GenModel(uint64(i), 0, imagex.PoseNude, 48))))
	}
	if hits > 5 {
		t.Fatalf("%d spurious matches across 50 unrelated queries", hits)
	}
}

func TestSearchSortedByDistance(t *testing.T) {
	ix := NewIndex(10)
	ix.Add(imagex.Hash128{A: 0b0011}, Record{URL: "far", Domain: "d"})
	ix.Add(imagex.Hash128{A: 0b0001}, Record{URL: "near", Domain: "d"})
	got := ix.SearchHash(imagex.Hash128{})
	if len(got) != 2 || got[0].URL != "near" || got[1].URL != "far" {
		t.Fatalf("search order = %+v", got)
	}

	// Records that share a URL and a distance (one image indexed from
	// several backlinks) come back in the order they were indexed,
	// among enough other hits that an unstable sort would move them.
	ix = NewIndex(10)
	for i := 0; i < 40; i++ {
		ix.Add(imagex.Hash128{A: imagex.Hash(i % 3)}, Record{URL: fmt.Sprintf("u%d", i%5), Backlink: fmt.Sprintf("b%02d", i)})
	}
	got = ix.SearchHash(imagex.Hash128{})
	for k := 1; k < len(got); k++ {
		p, c := got[k-1], got[k]
		if p.Distance == c.Distance && p.URL == c.URL && p.Backlink > c.Backlink {
			t.Fatalf("ties on (distance %d, URL %s) out of index order: %s before %s", c.Distance, c.URL, p.Backlink, c.Backlink)
		}
	}
}

func TestDomains(t *testing.T) {
	matches := []Match{
		{Record: Record{Domain: "b.com"}},
		{Record: Record{Domain: "a.com"}},
		{Record: Record{Domain: "b.com"}},
	}
	got := Domains(matches)
	if len(got) != 2 || got[0] != "a.com" || got[1] != "b.com" {
		t.Fatalf("Domains = %v", got)
	}
}

func TestSeenBefore(t *testing.T) {
	matches := []Match{
		{Record: Record{CrawlDate: day(10)}},
		{Record: Record{CrawlDate: day(20)}},
	}
	if !SeenBefore(matches, day(15)) {
		t.Fatal("match crawled day 10 not seen before day 15")
	}
	if SeenBefore(matches, day(10)) {
		t.Fatal("strictly-before violated")
	}
	if SeenBefore(nil, day(100)) {
		t.Fatal("empty matches seen before")
	}
}

func TestHTTPServiceRoundtrip(t *testing.T) {
	ix := NewIndex(0)
	origin := imagex.GenModel(12, 1, imagex.PosePartial, 48)
	ix.AddImage(origin, Record{
		URL: "http://blog.example/post/1/img.jpg", Domain: "blog.example",
		Backlink: "http://blog.example/post/1", CrawlDate: day(3),
	})
	srv := httptest.NewServer(Handler(ix))
	defer srv.Close()

	c := NewClient(srv.URL, srv.Client())
	matches, err := c.SearchHash(context.Background(), imagex.Hash128Of(origin))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("matches = %d", len(matches))
	}
	m := matches[0]
	if m.Domain != "blog.example" || m.Backlink != "http://blog.example/post/1" {
		t.Fatalf("match = %+v", m)
	}
	if !m.CrawlDate.Equal(day(3)) {
		t.Fatalf("crawl date %v", m.CrawlDate)
	}
}

func TestHTTPRejectsBadRequests(t *testing.T) {
	srv := httptest.NewServer(Handler(NewIndex(0)))
	defer srv.Close()
	for _, path := range []string{
		"/searchhash",        // no hash
		"/searchhash?h=0123", // too short
		"/searchhash?h=" + strings.Repeat("g", 32), // not hex
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("GET %s = %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	ix := NewIndex(0)
	ix.Add(imagex.Hash128{A: 1}, Record{})
	srv := httptest.NewServer(Handler(ix))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
}

func BenchmarkSearch10k(b *testing.B) {
	ix := NewIndex(0)
	for i := 0; i < 10000; i++ {
		h := uint64(i) * 0x9e3779b97f4a7c15
		ix.Add(imagex.Hash128{A: imagex.Hash(h), D: imagex.Hash(h >> 3)}, Record{URL: "u", Domain: "d"})
	}
	h := imagex.Hash128Of(imagex.GenModel(3, 0, imagex.PoseNude, 48))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.SearchHash(h)
	}
}

func TestSearchHashEndpoint(t *testing.T) {
	ix := NewIndex(0)
	origin := imagex.GenModel(5, 0, imagex.PoseNude, 48)
	ix.AddImage(origin, Record{URL: "http://pornsite.example/m5", Domain: "pornsite.example", CrawlDate: day(0)})
	srv := httptest.NewServer(Handler(ix))
	defer srv.Close()

	c := NewClient(srv.URL, srv.Client())
	got, err := c.SearchHash(context.Background(), imagex.Hash128Of(origin))
	if err != nil {
		t.Fatal(err)
	}
	want := ix.SearchHash(imagex.Hash128Of(origin))
	if len(got) != len(want) || got[0].URL != want[0].URL || got[0].Distance != want[0].Distance {
		t.Fatalf("remote hash search = %+v, want %+v", got, want)
	}
	if !got[0].CrawlDate.Equal(want[0].CrawlDate) {
		t.Errorf("crawl date did not survive the wire: %v != %v", got[0].CrawlDate, want[0].CrawlDate)
	}

	// Malformed hashes are rejected.
	resp, err := srv.Client().Get(srv.URL + "/searchhash?h=nothex")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad hash: status %d, want 400", resp.StatusCode)
	}
}

func TestHashWireFormatRoundtrip(t *testing.T) {
	h := imagex.Hash128{A: 0xdeadbeef01234567, D: 0x89abcdef00000001}
	got, err := ParseHash128(FormatHash128(h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("roundtrip %v != %v", got, h)
	}
}

// TestClientReusesConnection pins keep-alive reuse: the client reads
// each reply to the end, so sequential searches share one connection
// even when the JSON value and its trailing newline arrive apart.
func TestClientReusesConnection(t *testing.T) {
	var dials atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"matches":[]}`)
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
	c := NewClient(srv.URL, srv.Client())
	for i := 0; i < 5; i++ {
		if _, err := c.SearchHash(context.Background(), imagex.Hash128{A: imagex.Hash(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("5 sequential searches opened %d connections, want 1", got)
	}
}
