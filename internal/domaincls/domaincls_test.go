package domaincls

import (
	"fmt"
	"reflect"
	"testing"
)

func testDirectory(nPorn, nOther int) (*Directory, []string) {
	dir := NewDirectory()
	var domains []string
	for i := 0; i < nPorn; i++ {
		d := fmt.Sprintf("porn%03d.example", i)
		dir.Set(d, ClassPorn)
		domains = append(domains, d)
	}
	others := []SiteClass{
		ClassSocialNetwork, ClassBlog, ClassPhotoSharing, ClassForum,
		ClassShop, ClassNews, ClassDating, ClassGames, ClassBusiness,
		ClassEntertainment,
	}
	for i := 0; i < nOther; i++ {
		d := fmt.Sprintf("site%03d.example", i)
		dir.Set(d, others[i%len(others)])
		domains = append(domains, d)
	}
	return dir, domains
}

func TestClassifyDeterministic(t *testing.T) {
	dir, domains := testDirectory(10, 10)
	for _, mk := range []func(*Directory) *Classifier{NewMcAfee, NewVirusTotal, NewOpenDNS} {
		c := mk(dir)
		for _, d := range domains {
			a := c.Classify(d)
			b := c.Classify(d)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: nondeterministic tags for %s: %v vs %v", c.Name, d, a, b)
			}
			if len(a) == 0 {
				t.Fatalf("%s: empty tags for %s", c.Name, d)
			}
		}
	}
}

func TestClassifiersDisagree(t *testing.T) {
	dir, domains := testDirectory(50, 50)
	mc, vt := NewMcAfee(dir), NewVirusTotal(dir)
	same := 0
	for _, d := range domains {
		if reflect.DeepEqual(mc.Classify(d), vt.Classify(d)) {
			same++
		}
	}
	if same > len(domains)/4 {
		t.Fatalf("classifiers agree on %d/%d domains; taxonomies should differ", same, len(domains))
	}
}

func TestPornDominatesPornDomains(t *testing.T) {
	dir, _ := testDirectory(1, 0)
	mc := NewMcAfee(dir)
	tags := mc.Classify("porn000.example")
	if tags[0] != "Pornography" && tags[0] != NoResult {
		t.Fatalf("primary tag %q", tags[0])
	}
}

func TestOpenDNSNoResultRate(t *testing.T) {
	dir, domains := testDirectory(500, 500)
	od := NewOpenDNS(dir)
	n := 0
	for _, d := range domains {
		if od.Classify(d)[0] == NoResult {
			n++
		}
	}
	rate := float64(n) / float64(len(domains))
	// Paper: ~22% of OpenDNS lookups have no result.
	if rate < 0.15 || rate > 0.30 {
		t.Fatalf("OpenDNS no_result rate %.3f, want ≈0.22", rate)
	}
}

func TestVirusTotalMultiTag(t *testing.T) {
	dir, domains := testDirectory(300, 300)
	vt := NewVirusTotal(dir)
	multi := 0
	for _, d := range domains {
		if len(vt.Classify(d)) > 1 {
			multi++
		}
	}
	if multi < len(domains)/4 {
		t.Fatalf("VirusTotal multi-tagged only %d/%d domains", multi, len(domains))
	}
}

func TestTallyShape(t *testing.T) {
	dir, domains := testDirectory(600, 400)
	for _, mk := range []func(*Directory) *Classifier{NewMcAfee, NewVirusTotal, NewOpenDNS} {
		c := mk(dir)
		rows := Tally(c, domains, 85)
		if len(rows) == 0 {
			t.Fatalf("%s: empty tally", c.Name)
		}
		// Rows sorted by descending count.
		for i := 1; i < len(rows); i++ {
			if rows[i].Domains > rows[i-1].Domains {
				t.Fatalf("%s: tally not sorted at %d", c.Name, i)
			}
		}
		// Cumulative percentages ascend and the last row crosses 85%.
		for i := 1; i < len(rows); i++ {
			if rows[i].CumPct <= rows[i-1].CumPct {
				t.Fatalf("%s: CumPct not ascending", c.Name)
			}
		}
		if rows[len(rows)-1].CumPct < 85 {
			t.Fatalf("%s: tally stopped at %.1f%%", c.Name, rows[len(rows)-1].CumPct)
		}
		// With a porn-dominated directory, an adult tag leads, as in
		// Table 6 ("The top categories are mostly porn-related").
		adult := map[string]bool{
			"Pornography": true, "adult content": true, "porn": true,
			"Nudity": true, "sex": true,
		}
		if !adult[rows[0].Tag] && rows[0].Tag != NoResult {
			t.Fatalf("%s: top tag %q not adult", c.Name, rows[0].Tag)
		}
	}
}

func TestTallyFullCutoff(t *testing.T) {
	dir, domains := testDirectory(50, 50)
	rows := Tally(NewMcAfee(dir), domains, 100)
	last := rows[len(rows)-1]
	if last.CumPct < 99.999 {
		t.Fatalf("full tally ends at %.3f%%", last.CumPct)
	}
}

func TestSiteClassString(t *testing.T) {
	if ClassPorn.String() != "porn" || ClassUnknown.String() != "unknown" ||
		SiteClass(99).String() != "unknown" {
		t.Fatal("SiteClass.String wrong")
	}
}

func TestDirectory(t *testing.T) {
	dir := NewDirectory()
	dir.Set("a.com", ClassBlog)
	if dir.Class("a.com") != ClassBlog || dir.Class("b.com") != ClassUnknown {
		t.Fatal("directory lookup wrong")
	}
	if dir.Len() != 1 {
		t.Fatal("Len wrong")
	}
}
