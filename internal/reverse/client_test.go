package reverse_test

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/imagex"
	"repro/internal/reverse"
)

// TestClientReusesConnection pins keep-alive reuse between the search
// service and its one client, crawler.HTTPClient: sequential searches,
// hits and misses alike, share one connection to the real Handler.
func TestClientReusesConnection(t *testing.T) {
	ix := reverse.NewIndex(0)
	im := imagex.GenModel(1, 0, imagex.PoseNude, 32)
	ix.AddImage(im, reverse.Record{
		URL: "https://origin.example/m1", Domain: "origin.example",
		CrawlDate: time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC),
	})
	var dials atomic.Int32
	srv := httptest.NewUnstartedServer(reverse.Handler(ix))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	hc := crawler.NewHTTPClient(crawler.HTTPConfig{ReverseURL: srv.URL, Client: srv.Client()})
	defer hc.Close()
	hit := imagex.Hash128Of(im)
	for i := 0; i < 5; i++ {
		h := hit
		if i%2 == 1 {
			h = imagex.Hash128{A: ^hit.A, D: ^hit.D}
		}
		got, err := hc.SearchHash(context.Background(), h)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1 - i%2; len(got) != want {
			t.Fatalf("search %d: %d matches, want %d", i, len(got), want)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("5 sequential searches opened %d connections, want 1", got)
	}
}
