package urlx

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestExtract(t *testing.T) {
	text := `Preview here: https://imgur.com/aB3dE (mirror http://gyazo.com/xyz).
Pack: https://mediafire.com/file/123?key=9 enjoy!`
	got := Extract(text)
	want := []string{
		"https://imgur.com/aB3dE",
		"http://gyazo.com/xyz",
		"https://mediafire.com/file/123?key=9",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Extract = %v", got)
	}
}

func TestExtractTrimsPunctuation(t *testing.T) {
	got := Extract("see https://imgur.com/abc. and https://mega.nz/f/1,")
	if got[0] != "https://imgur.com/abc" || got[1] != "https://mega.nz/f/1" {
		t.Fatalf("Extract = %v", got)
	}
}

func TestExtractNone(t *testing.T) {
	if got := Extract("no links here, just ewhoring chat"); len(got) != 0 {
		t.Fatalf("Extract = %v", got)
	}
}

func TestExtractPreservesDuplicates(t *testing.T) {
	got := Extract("https://a.com/x https://a.com/x")
	if len(got) != 2 {
		t.Fatalf("Extract = %v", got)
	}
}

func TestDomain(t *testing.T) {
	cases := map[string]string{
		"https://IMGUR.com/abc":            "imgur.com",
		"http://drive.google.com/d/1":      "drive.google.com",
		"https://mega.nz:8443/f/x":         "mega.nz",
		"not a url at all ::: definitely!": "",
	}
	for in, want := range cases {
		if got := Domain(in); got != want {
			t.Errorf("Domain(%q) = %q want %q", in, got, want)
		}
	}
}

func TestDefaultWhitelist(t *testing.T) {
	w := DefaultWhitelist()
	if w.Len() != len(ImageSharingSites)+len(CloudStorageSites) {
		t.Fatalf("Len = %d", w.Len())
	}
	if k, ok := w.Kind("imgur.com"); !ok || k != KindImageSharing {
		t.Error("imgur.com not image sharing")
	}
	if k, ok := w.Kind("mediafire.com"); !ok || k != KindCloudStorage {
		t.Error("mediafire.com not cloud storage")
	}
	if _, ok := w.Kind("example.com"); ok {
		t.Error("unknown domain whitelisted")
	}
}

func TestClassify(t *testing.T) {
	w := DefaultWhitelist()
	l := w.Classify("https://Imgur.com/abc123")
	if l.Domain != "imgur.com" || l.Kind != KindImageSharing {
		t.Fatalf("Classify = %+v", l)
	}
	u := w.Classify("https://randomblog.net/post")
	if u.Kind != KindUnknown {
		t.Fatalf("Classify unknown = %+v", u)
	}
}

func TestCountByDomainAndSorted(t *testing.T) {
	w := DefaultWhitelist()
	links := w.ClassifyAll([]string{
		"https://imgur.com/1", "https://imgur.com/2",
		"https://gyazo.com/1",
		"https://mediafire.com/1",
	})
	tally := CountByDomain(links, KindImageSharing)
	if tally["imgur.com"] != 2 || tally["gyazo.com"] != 1 || len(tally) != 2 {
		t.Fatalf("tally = %v", tally)
	}
	sorted := SortedCounts(tally)
	if sorted[0].Domain != "imgur.com" || sorted[0].Count != 2 {
		t.Fatalf("sorted = %v", sorted)
	}
}

func TestSortedCountsTieAlphabetical(t *testing.T) {
	sorted := SortedCounts(map[string]int{"b.com": 1, "a.com": 1})
	if sorted[0].Domain != "a.com" {
		t.Fatalf("sorted = %v", sorted)
	}
}

func TestDomainsOfKind(t *testing.T) {
	w := NewWhitelist()
	w.Add("b.com", KindImageSharing)
	w.Add("a.com", KindImageSharing)
	w.Add("c.com", KindCloudStorage)
	got := w.Domains(KindImageSharing)
	if !reflect.DeepEqual(got, []string{"a.com", "b.com"}) {
		t.Fatalf("Domains = %v", got)
	}
}

func TestSnowballExpands(t *testing.T) {
	w := DefaultWhitelist()
	before := w.Len()
	urls := []string{
		"https://imgur.com/x",
		"https://newimagehost.io/a",
		"https://newcloud.cc/f/1",
		"https://randomblog.net/post",
	}
	oracle := func(domain string) (Kind, bool) {
		switch domain {
		case "newimagehost.io":
			return KindImageSharing, true
		case "newcloud.cc":
			return KindCloudStorage, true
		default:
			return KindUnknown, false
		}
	}
	added := Snowball(w, urls, oracle, 0)
	if added != 2 || w.Len() != before+2 {
		t.Fatalf("added = %d, Len = %d", added, w.Len())
	}
	if k, _ := w.Kind("newimagehost.io"); k != KindImageSharing {
		t.Error("snowball misclassified newimagehost.io")
	}
	if _, ok := w.Kind("randomblog.net"); ok {
		t.Error("snowball added a non-hosting domain")
	}
}

func TestSnowballTerminatesAndVisitsOnce(t *testing.T) {
	w := NewWhitelist()
	visits := map[string]int{}
	oracle := func(domain string) (Kind, bool) {
		visits[domain]++
		return KindUnknown, false
	}
	Snowball(w, []string{"https://x.com/1", "https://y.com/2"}, oracle, 10)
	for d, n := range visits {
		if n != 1 {
			t.Errorf("domain %s visited %d times", d, n)
		}
	}
	if len(visits) != 2 {
		t.Fatalf("visited %d domains", len(visits))
	}
}

func TestKindString(t *testing.T) {
	if KindImageSharing.String() != "image sharing" ||
		KindCloudStorage.String() != "cloud storage" ||
		KindUnknown.String() != "unknown" {
		t.Fatal("Kind.String wrong")
	}
}

// Property: every extracted URL starts with http and contains no
// whitespace.
func TestQuickExtractWellFormed(t *testing.T) {
	f := func(prefix, suffix string) bool {
		text := prefix + " https://imgur.com/abc " + suffix
		for _, u := range Extract(text) {
			if len(u) < 7 || (u[:7] != "http://" && u[:8] != "https://") {
				return false
			}
			for _, r := range u {
				if r == ' ' || r == '\n' || r == '\t' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
