package reverse

import (
	"fmt"
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
