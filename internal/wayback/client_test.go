package wayback_test

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/wayback"
)

// TestClientReusesConnection pins keep-alive reuse between the Wayback
// service and its one client, crawler.HTTPClient: sequential lookups,
// archived and unarchived URLs alike, share one connection to the real
// Handler.
func TestClientReusesConnection(t *testing.T) {
	arch := wayback.NewArchive()
	arch.Add("https://origin.example/m1", time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
	var dials atomic.Int32
	srv := httptest.NewUnstartedServer(wayback.Handler(arch))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	hc := crawler.NewHTTPClient(crawler.HTTPConfig{WaybackURL: srv.URL, Client: srv.Client()})
	defer hc.Close()
	before := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		u := "https://origin.example/m1"
		if i%2 == 1 {
			u = "https://never.example/x"
		}
		seen, err := hc.SeenBefore(context.Background(), u, before)
		if err != nil {
			t.Fatal(err)
		}
		if want := i%2 == 0; seen != want {
			t.Fatalf("lookup %d of %s: seen %v, want %v", i, u, seen, want)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("5 sequential lookups opened %d connections, want 1", got)
	}
}
