package wayback

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
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
	available := func(rawURL string, before time.Time) AvailabilityResponse {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/available?url=" + url.QueryEscape(rawURL) +
			"&before=" + url.QueryEscape(before.Format(time.RFC3339)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/available = %d", resp.StatusCode)
		}
		var ar AvailabilityResponse
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatal(err)
		}
		return ar
	}

	if ar := available("http://x.com/img.jpg", day(5)); !ar.Available || ar.FirstSeen != day(3).Format(time.RFC3339) || ar.Snapshots != 1 {
		t.Fatalf("available = %+v", ar)
	}
	if ar := available("http://x.com/img.jpg", day(2)); ar.Available {
		t.Fatalf("available(before capture) = %+v", ar)
	}
	if ar := available("http://never.com", day(100)); ar.Available {
		t.Fatalf("available(unknown) = %+v", ar)
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
