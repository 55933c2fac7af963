package wayback

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func day(n int) time.Time {
	return time.Date(2013, time.March, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, n)
}

func TestFirstSeen(t *testing.T) {
	a := NewArchive()
	if _, ok := a.FirstSeen("http://x.com"); ok {
		t.Fatal("empty archive has captures")
	}
	a.Add("http://x.com", day(20))
	a.Add("http://x.com", day(5))
	a.Add("http://x.com", day(10))
	first, ok := a.FirstSeen("http://x.com")
	if !ok || !first.Equal(day(5)) {
		t.Fatalf("FirstSeen = %v %v", first, ok)
	}
	snaps := a.Snapshots("http://x.com")
	if len(snaps) != 3 || !snaps[0].Equal(day(5)) || !snaps[2].Equal(day(20)) {
		t.Fatalf("Snapshots = %v", snaps)
	}
}

func TestSeenBefore(t *testing.T) {
	a := NewArchive()
	a.Add("http://x.com", day(10))
	if !a.SeenBefore("http://x.com", day(11)) {
		t.Fatal("captured day 10, cutoff day 11")
	}
	if a.SeenBefore("http://x.com", day(10)) {
		t.Fatal("strictly-before violated")
	}
	if a.SeenBefore("http://unknown.com", day(100)) {
		t.Fatal("unknown URL seen before")
	}
}

func TestNumURLs(t *testing.T) {
	a := NewArchive()
	a.Add("u1", day(1))
	a.Add("u1", day(2))
	a.Add("u2", day(1))
	if a.NumURLs() != 2 {
		t.Fatalf("NumURLs = %d", a.NumURLs())
	}
}

func TestHTTPAvailable(t *testing.T) {
	a := NewArchive()
	a.Add("http://x.com/img.jpg", day(3))
	srv := httptest.NewServer(Handler(a))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())

	ok, err := c.SeenBefore(context.Background(), "http://x.com/img.jpg", day(5))
	if err != nil || !ok {
		t.Fatalf("SeenBefore = %v %v", ok, err)
	}
	ok, err = c.SeenBefore(context.Background(), "http://x.com/img.jpg", day(2))
	if err != nil || ok {
		t.Fatalf("SeenBefore(before capture) = %v %v", ok, err)
	}
	ok, err = c.SeenBefore(context.Background(), "http://never.com", day(100))
	if err != nil || ok {
		t.Fatalf("SeenBefore(unknown) = %v %v", ok, err)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	srv := httptest.NewServer(Handler(NewArchive()))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/available")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("missing url param = %d", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/available?url=http%3A%2F%2Fx.com&before=garbage")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// "before" is only validated when the URL has captures; unknown
	// URLs short-circuit to unavailable.
	if resp.StatusCode != 200 {
		t.Fatalf("unknown url with bad before = %d", resp.StatusCode)
	}
}

func TestHTTPBadBeforeOnKnownURL(t *testing.T) {
	a := NewArchive()
	a.Add("http://x.com", day(1))
	srv := httptest.NewServer(Handler(a))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/available?url=http%3A%2F%2Fx.com&before=garbage")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad before param = %d", resp.StatusCode)
	}
}

func TestConcurrentAddAndQuery(t *testing.T) {
	a := NewArchive()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			a.Add("http://x.com", day(i%50))
		}
	}()
	for i := 0; i < 500; i++ {
		a.SeenBefore("http://x.com", day(25))
	}
	<-done
	if len(a.Snapshots("http://x.com")) != 500 {
		t.Fatal("lost snapshots under concurrency")
	}
}

// TestClientReusesConnection pins keep-alive reuse: the client reads
// each reply to the end, so sequential lookups share one connection
// even when the JSON value and its trailing newline arrive apart.
func TestClientReusesConnection(t *testing.T) {
	var dials atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"available":false}`)
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
		if _, err := c.SeenBefore(context.Background(), "http://a.example/x", time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("5 sequential lookups opened %d connections, want 1", got)
	}
}
