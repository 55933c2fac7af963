package reverse

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/imagex"
	"repro/internal/randx"
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

// linearIndex is the index before records were grouped by hash: one
// hash per record, a distance to every record, and a stable sort that
// leaves the record index as the last key.
type linearIndex struct {
	radius  int
	hashes  []imagex.Hash128
	records []Record
}

func (ix *linearIndex) add(h imagex.Hash128, rec Record) {
	ix.hashes = append(ix.hashes, h)
	ix.records = append(ix.records, rec)
}

func (ix *linearIndex) search(h imagex.Hash128) []Match {
	var out []Match
	for i, eh := range ix.hashes {
		if d := h.Distance(eh); d <= ix.radius {
			out = append(out, Match{Record: ix.records[i], Score: 1 - float64(d)/128, Distance: d})
		}
	}
	slices.SortStableFunc(out, func(a, b Match) int {
		if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
			return c
		}
		return strings.Compare(a.URL, b.URL)
	})
	return out
}

// TestSearchMatchesLinearScan compares the grouped scan with the
// linear one on random indexes whose records repeat a small pool of
// hashes and URLs, so many hits tie on distance and URL and only the
// record index orders them. Queries are pool hashes with a few bits
// flipped, plus unrelated hashes.
func TestSearchMatchesLinearScan(t *testing.T) {
	rng := randx.New(0x5ea4c4)
	for trial := 0; trial < 20; trial++ {
		radius := 1 + rng.Intn(12)
		ix, ref := NewIndex(radius), &linearIndex{radius: radius}
		pool := make([]imagex.Hash128, 1+rng.Intn(30))
		for i := range pool {
			pool[i] = imagex.Hash128{A: imagex.Hash(rng.Uint64()), D: imagex.Hash(rng.Uint64())}
			if i > 0 && rng.Bool(0.5) {
				// A near neighbour of an earlier hash: several groups
				// fall inside one query's radius.
				pool[i] = flip(rng, pool[rng.Intn(i)], rng.Intn(radius+1))
			}
		}
		for i, n := 0, rng.Intn(400); i < n; i++ {
			h := pool[rng.Intn(len(pool))]
			rec := Record{
				URL:       fmt.Sprintf("http://s%d.example/%d", rng.Intn(3), rng.Intn(4)),
				Backlink:  fmt.Sprintf("b%d", i),
				CrawlDate: day(i),
			}
			ix.Add(h, rec)
			ref.add(h, rec)
		}
		if ix.Len() != len(ref.records) {
			t.Fatalf("trial %d: Len %d, %d records added", trial, ix.Len(), len(ref.records))
		}
		for q := 0; q < 30; q++ {
			h := imagex.Hash128{A: imagex.Hash(rng.Uint64()), D: imagex.Hash(rng.Uint64())}
			if q%5 != 0 {
				h = flip(rng, pool[rng.Intn(len(pool))], rng.Intn(radius+3))
			}
			if got, want := ix.SearchHash(h), ref.search(h); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, query %v: grouped scan %+v, linear scan %+v", trial, h, got, want)
			}
		}
	}
}

// flip returns h with n random bits flipped (a bit may flip twice).
func flip(rng *randx.Rand, h imagex.Hash128, n int) imagex.Hash128 {
	for ; n > 0; n-- {
		bit := imagex.Hash(1) << rng.Intn(64)
		if rng.Bool(0.5) {
			h.A ^= bit
		} else {
			h.D ^= bit
		}
	}
	return h
}
