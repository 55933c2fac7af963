package wayback

import (
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
	// Captures are kept sorted whatever the insertion order.
	snaps := a.snaps["http://x.com"]
	if len(snaps) != 3 || !snaps[0].Equal(day(5)) || !snaps[2].Equal(day(20)) {
		t.Fatalf("captures = %v", snaps)
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
	if len(a.snaps["http://x.com"]) != 500 {
		t.Fatal("lost snapshots under concurrency")
	}
}
