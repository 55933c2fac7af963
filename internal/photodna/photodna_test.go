package photodna

import (
	"sync"
	"testing"

	"repro/internal/imagex"
)

func TestMatchExact(t *testing.T) {
	hl := NewHashList(0)
	im := imagex.GenModel(1, 0, imagex.PoseNude, 48)
	hl.Add(im, Entry{ID: 7, Actionable: true, Severity: CategoryA, VictimAge: 17})
	e, ok := hl.Match(im)
	if !ok || e.ID != 7 {
		t.Fatalf("Match = %+v %v", e, ok)
	}
}

func TestMatchSurvivesRecompression(t *testing.T) {
	hl := NewHashList(0)
	im := imagex.GenModel(3, 1, imagex.PoseNude, 48)
	hl.Add(im, Entry{ID: 1})
	re := im.Recompress(16)
	if _, ok := hl.Match(re); !ok {
		t.Fatal("recompressed image evaded the hashlist; robust hashing broken")
	}
}

func TestMatchRejectsUnrelated(t *testing.T) {
	hl := NewHashList(0)
	for i := 0; i < 50; i++ {
		hl.Add(imagex.GenModel(uint64(i), 0, imagex.PoseNude, 48), Entry{ID: i})
	}
	misses := 0
	for i := 1000; i < 1100; i++ {
		if _, ok := hl.Match(imagex.GenModel(uint64(i), 0, imagex.PoseNude, 48)); !ok {
			misses++
		}
	}
	if misses < 95 {
		t.Fatalf("only %d/100 unrelated images missed the hashlist; radius too loose", misses)
	}
}

func TestMirrorEvades(t *testing.T) {
	// Robust hashing is not mirror-invariant (the paper notes actors
	// can mirror images to evade detection systems).
	hl := NewHashList(0)
	im := imagex.GenModel(9, 0, imagex.PoseNude, 48)
	hl.Add(im, Entry{ID: 1})
	if _, ok := hl.Match(im.Mirror()); ok {
		t.Log("mirrored image still matched — hash unusually symmetric; acceptable but rare")
	}
}

func TestMatchPicksClosest(t *testing.T) {
	hl := NewHashList(10)
	hl.AddHash(RobustHash{A: 0x00ff}, Entry{ID: 1})
	hl.AddHash(RobustHash{A: 0x000f}, Entry{ID: 2})
	// Query 0x0007: distance 1 to 0x000f (differ in bit 3), larger to 0x00ff.
	e, ok := hl.MatchHash(RobustHash{A: 0x0007})
	if !ok || e.ID != 2 {
		t.Fatalf("MatchHash = %+v %v, want entry 2", e, ok)
	}
}

func TestHashListLen(t *testing.T) {
	hl := NewHashList(0)
	if hl.Len() != 0 {
		t.Fatal("fresh hashlist not empty")
	}
	hl.AddHash(RobustHash{A: 1}, Entry{})
	hl.AddHash(RobustHash{A: 2}, Entry{})
	hl.AddHash(RobustHash{A: 1}, Entry{}) // duplicate hash replaces
	if hl.Len() != 2 {
		t.Fatalf("Len = %d", hl.Len())
	}
}

func TestRobustHashDistance(t *testing.T) {
	a := RobustHash{A: 0x0f, D: 0xf0}
	b := RobustHash{A: 0x0e, D: 0x70}
	if d := a.Distance(b); d != 2 {
		t.Fatalf("Distance = %d want 2", d)
	}
	if a.Distance(a) != 0 {
		t.Fatal("self-distance nonzero")
	}
}

func TestSummarize(t *testing.T) {
	hot := NewHotline()
	hot.Report(MatchReport{
		Entry: Entry{Actionable: true, Severity: CategoryA},
		URLs: []URLReport{
			{Region: RegionUK, SiteType: SiteImageSharing},
			{Region: RegionNorthAmerica, SiteType: SiteForum},
		},
	})
	hot.Report(MatchReport{
		Entry: Entry{Actionable: false, Severity: CategoryC},
		URLs:  []URLReport{{Region: RegionEurope, SiteType: SiteBlog}},
	})
	s := hot.Summarize()
	if s.Matches != 2 {
		t.Errorf("Matches = %d", s.Matches)
	}
	if s.ActionableURLs != 2 {
		t.Errorf("ActionableURLs = %d (non-actionable must not be actioned)", s.ActionableURLs)
	}
	if s.BySeverity[CategoryA] != 2 || s.BySeverity[CategoryC] != 0 {
		t.Errorf("BySeverity = %v", s.BySeverity)
	}
	if s.ByRegion[RegionUK] != 1 || s.ByRegion[RegionEurope] != 0 {
		t.Errorf("ByRegion = %v", s.ByRegion)
	}
	if s.BySiteType[SiteForum] != 1 {
		t.Errorf("BySiteType = %v", s.BySiteType)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}

// TestConcurrentFilter runs the gate's match-then-report step from
// many goroutines against one hashlist and hotline: every match must
// be filed exactly once.
func TestConcurrentFilter(t *testing.T) {
	hl := NewHashList(0)
	bad := imagex.GenModel(7, 0, imagex.PoseNude, 48)
	hl.Add(bad, Entry{ID: 1, Actionable: true, Severity: CategoryA})
	hot := NewHotline()
	check := func(im *imagex.Image, thread, post int) {
		if e, ok := hl.Match(im); ok {
			hot.Report(MatchReport{Entry: e, SourceThread: thread, SourcePost: post})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				check(bad, g, i)
				check(imagex.GenModel(uint64(100+g*50+i), 0, imagex.PoseNude, 48), g, i)
			}
		}(g)
	}
	wg.Wait()
	if got := hot.Summarize().Matches; got != 400 {
		t.Fatalf("concurrent matches = %d, want 400", got)
	}
}

func TestStringers(t *testing.T) {
	if CategoryA.String() != "A" || SeverityUnknown.String() != "?" {
		t.Error("Severity.String wrong")
	}
	if RegionUK.String() != "UK" || RegionUnknown.String() != "unknown" {
		t.Error("Region.String wrong")
	}
	if SiteImageSharing.String() != "image sharing" || SiteUnknown.String() != "unknown" {
		t.Error("SiteType.String wrong")
	}
}

// TestMatchHashTieBreakDeterministic pins the distance tie-break: with
// several entries equidistant from the query, the lowest entry ID must
// win regardless of map iteration order (DESIGN.md §1).
func TestMatchHashTieBreakDeterministic(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		hl := NewHashList(8)
		// Query hash {A:0,D:0}; all entries at Hamming distance 2.
		hl.AddHash(RobustHash{A: 0b0011}, Entry{ID: 7})
		hl.AddHash(RobustHash{A: 0b1100}, Entry{ID: 3})
		hl.AddHash(RobustHash{D: 0b0101}, Entry{ID: 9})
		e, ok := hl.MatchHash(RobustHash{})
		if !ok || e.ID != 3 {
			t.Fatalf("trial %d: matched entry %d (ok=%v), want lowest ID 3", trial, e.ID, ok)
		}
	}
}

// TestMatchHashPrefersCloserOverLowerID: the tie-break must not
// override the distance ordering.
func TestMatchHashPrefersCloserOverLowerID(t *testing.T) {
	hl := NewHashList(8)
	hl.AddHash(RobustHash{A: 0b1}, Entry{ID: 50}) // distance 1
	hl.AddHash(RobustHash{A: 0b11}, Entry{ID: 1}) // distance 2
	if e, ok := hl.MatchHash(RobustHash{}); !ok || e.ID != 50 {
		t.Fatalf("matched entry %+v (ok=%v), want the closer ID 50", e, ok)
	}
}
