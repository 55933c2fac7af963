package synth

import (
	"fmt"
	"time"

	"repro/internal/domaincls"
	"repro/internal/hosting"
	"repro/internal/imagex"
	"repro/internal/photodna"
	"repro/internal/randx"
	"repro/internal/reverse"
	"repro/internal/urlx"
)

// Model is one synthetic "model": a person whose images circulate in
// packs. Images are deterministic in (Seed, Variant, Pose) and are not
// stored.
type Model struct {
	Seed         uint64
	Name         string
	OriginDomain string
	// OriginDate is when the origin shoot went online.
	OriginDate time.Time
	// Indexed: the model's images appear in the reverse-image-search
	// corpus. Non-indexed models produce the paper's "zero-match"
	// packs.
	Indexed bool
	Images  []ModelImage
	// Flagged indexes into Images for hashlisted (abuse-flagged)
	// material, or -1.
	Flagged int
}

// ModelImage is one image of a model.
type ModelImage struct {
	Variant int
	Pose    imagex.Pose
	// OriginURL is the canonical hosting URL on the origin domain.
	OriginURL string
	// Reposts is how many further domains the image has spread to.
	Reposts int
}

// domainSpec drives origin-domain generation per ground-truth class.
type domainSpec struct {
	class  domaincls.SiteClass
	label  string
	count  int // paper-scale domain count (≈ Table 6 mix)
	origin bool
}

var domainSpecs = []domainSpec{
	{domaincls.ClassPorn, "tube", 2400, true},
	{domaincls.ClassBlog, "blog", 700, true},
	{domaincls.ClassEntertainment, "stream", 420, false},
	{domaincls.ClassShop, "shop", 360, false},
	{domaincls.ClassBusiness, "biz", 330, false},
	{domaincls.ClassNews, "news", 300, false},
	{domaincls.ClassForum, "board", 260, true},
	{domaincls.ClassSocialNetwork, "social", 250, true},
	{domaincls.ClassPhotoSharing, "photos", 220, true},
	{domaincls.ClassGames, "game", 200, false},
	{domaincls.ClassDating, "date", 180, true},
	{domaincls.ClassUnknown, "misc", 300, false},
}

// genWeb creates the origin web: domains with ground-truth classes and
// regions, models with images, reverse-search records, Wayback
// captures, and the PhotoDNA hashlist.
func (w *World) genWeb(rng *randx.Rand) {
	cfg := w.Config
	webStart := date(2006, time.January)

	// Domains. The reverse-search corpus needs thousands of domains at
	// full scale; classes keep the Table 6 mix.
	var allDomains []string
	var originDomains []string
	for _, spec := range domainSpecs {
		n := cfg.scaled(spec.count, 4)
		for i := 0; i < n; i++ {
			d := fmt.Sprintf("%s%03d.example", spec.label, i)
			w.Directory.Set(d, spec.class)
			w.DomainRegion[d] = pickRegion(rng)
			allDomains = append(allDomains, d)
			if spec.origin {
				originDomains = append(originDomains, d)
			}
		}
	}

	// Models. 600 at paper scale, each with 60-120 images, indexed on
	// a heavy-tailed number of repost domains. Unique-file and
	// match-ratio targets follow (§4.2: 53 948 unique; Table 5: 12.7 /
	// 17.3 matches per matched image).
	nModels := cfg.scaled(600, 30)
	repostPool := allDomains
	for mi := 0; mi < nModels; mi++ {
		// ~15% of models are "private" (never indexed by the reverse
		// search) — the source of zero-match packs. Every 7th model is
		// deterministically private so small worlds always have some.
		indexed := mi%7 != 3 && rng.Bool(0.98)
		m := &Model{
			Seed:         rng.Uint64(),
			Name:         randx.Pick(rng, modelNames),
			OriginDomain: randx.Pick(rng, originDomains),
			Indexed:      indexed,
			Flagged:      -1,
		}
		// 75% of models are long-established ("old"); the rest are
		// recent, so their reverse-search records postdate forum
		// posts (the paper's non-"Seen Before" matches).
		if rng.Bool(0.75) {
			m.OriginDate = webStart.AddDate(0, 0, rng.Intn(365*8))
		} else {
			m.OriginDate = date(2016, time.January).AddDate(0, 0, rng.Intn(365*3))
		}
		nImgs := 60 + rng.Intn(61)
		if cfg.Scale < 0.2 {
			// Small worlds shrink packs too, keeping generation fast.
			nImgs = 20 + rng.Intn(21)
		}
		for i := 0; i < nImgs; i++ {
			pose := imagex.PoseNude
			switch {
			case i%10 < 3:
				pose = imagex.PoseDressed
			case i%10 < 6:
				pose = imagex.PosePartial
			}
			mi2 := ModelImage{
				Variant:   i,
				Pose:      pose,
				OriginURL: fmt.Sprintf("http://%s/%s/%04d.jpg", m.OriginDomain, m.Name, i),
				Reposts:   int(rng.Pareto(2, 1.1)),
			}
			if mi2.Reposts > 40 {
				mi2.Reposts = 40
			}
			m.Images = append(m.Images, mi2)
		}
		w.Models = append(w.Models, m)

		if !m.Indexed {
			continue
		}
		// Index the model's images: origin record plus reposts. The
		// walk draws every date, domain and URL in the sequential
		// order; hashing (which consumes no randomness — GenModel and
		// Hash128Of are pure in their arguments) is deferred to a
		// render job, and the ordered apply inserts the records
		// exactly where the sequential path would. Captures are
		// scalars, never *Model: the flagged loop below mutates models
		// after these jobs are in flight.
		for i := range m.Images {
			p := &indexPlan{image: rasterKey{m.Seed, m.Images[i].Variant, m.Images[i].Pose, cfg.ImageSize}}
			crawl := m.OriginDate.AddDate(0, 0, rng.Intn(120))
			p.origin = reverse.Record{
				URL:       m.Images[i].OriginURL,
				Domain:    m.OriginDomain,
				Backlink:  fmt.Sprintf("http://%s/%s/", m.OriginDomain, m.Name),
				CrawlDate: crawl,
			}
			p.originCapture = m.OriginDate.AddDate(0, 0, rng.Intn(60))
			for r := 1; r < m.Images[i].Reposts; r++ {
				d := randx.Pick(rng, repostPool)
				rp := repostPlan{rec: reverse.Record{
					URL:       fmt.Sprintf("http://%s/p/%d%04d.jpg", d, mi, i*61+r),
					Domain:    d,
					Backlink:  fmt.Sprintf("http://%s/p/%d", d, mi),
					CrawlDate: crawl.AddDate(0, 0, rng.Intn(900)),
				}}
				if rng.Bool(0.3) {
					rp.capture = crawl.AddDate(0, 0, rng.Intn(400))
					rp.archived = true
				}
				p.reposts = append(p.reposts, rp)
			}
			w.do(func() { p.render(w) }, func() { p.applyTo(w) })
		}
	}

	// PhotoDNA hashlist: flag images in distinct models (36 at paper
	// scale). The first flagged model is the paper's "single UK victim
	// aged 17" with many circulating URLs; the second is the young
	// victim with one; the remainder are not actionable (age
	// unverifiable).
	nFlagged := cfg.scaled(36, 2)
	flagged := 0
	for _, m := range w.Models {
		if flagged >= nFlagged {
			break
		}
		if !rng.Bool(0.5) {
			continue
		}
		idx := rng.Intn(len(m.Images))
		m.Flagged = idx
		entry := photodna.Entry{ID: flagged + 1}
		switch flagged {
		case 0:
			entry.Actionable = true
			entry.Severity = photodna.CategoryB
			entry.VictimAge = 17
			// Heavily reposted (the 60-URL victim).
			m.Images[idx].Reposts = cfg.scaled(60, 6)
			m.Indexed = true
		case 1:
			entry.Actionable = true
			entry.Severity = photodna.CategoryA
			entry.VictimAge = 9
			m.Images[idx].Reposts = 1
		default:
			entry.Actionable = false
			entry.Severity = photodna.Severity(1 + rng.Intn(3))
		}
		hp := &hashPlan{
			image: rasterKey{m.Seed, m.Images[idx].Variant, m.Images[idx].Pose, cfg.ImageSize},
			entry: entry,
		}
		w.do(func() { hp.render(w) }, func() { hp.applyTo(w) })
		flagged++
	}

	// Also ensure UK/EU flagged-URL regions exist: the first flagged
	// model's origin is placed in the UK.
	if len(w.Models) > 0 {
		for _, m := range w.Models {
			if m.Flagged >= 0 {
				w.DomainRegion[m.OriginDomain] = photodna.RegionUK
				break
			}
		}
	}

}

// genHostingSites registers the Table 3/4 whitelisted services plus
// the long-tail "others" found by snowball sampling. Cheap, so it runs
// even under SkipImages (proof uploads need the sites).
func (w *World) genHostingSites() {
	for _, d := range urlx.ImageSharingSites {
		w.Web.AddSite(hostingConfig(d, urlx.KindImageSharing))
	}
	for _, d := range urlx.CloudStorageSites {
		w.Web.AddSite(hostingConfig(d, urlx.KindCloudStorage))
	}
	for i := 0; i < 12; i++ {
		w.Web.AddSite(hostingConfig(fmt.Sprintf("otherimg%02d.example", i), urlx.KindImageSharing))
	}
	for i := 0; i < 8; i++ {
		w.Web.AddSite(hostingConfig(fmt.Sprintf("othercloud%02d.example", i), urlx.KindCloudStorage))
	}
}

// hostingSiteConfig aliases hosting.SiteConfig for brevity.
type hostingSiteConfig = hosting.SiteConfig

// hostingConfig builds a SiteConfig with the paper's special cases:
// registration walls on Dropbox/Drive, oron defunct.
func hostingConfig(domain string, kind urlx.Kind) (cfg hostingSiteConfig) {
	cfg.Domain = domain
	cfg.Kind = kind
	switch domain {
	case "dropbox.com", "drive.google.com":
		cfg.RequiresLogin = true
	case "oron.com":
		cfg.Defunct = true
	}
	return cfg
}

func pickRegion(rng *randx.Rand) photodna.Region {
	switch {
	case rng.Bool(0.03):
		return photodna.RegionUK
	case rng.Bool(0.52):
		return photodna.RegionNorthAmerica
	default:
		return photodna.RegionEurope
	}
}
