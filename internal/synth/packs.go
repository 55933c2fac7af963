package synth

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/hosting"
	"repro/internal/imagex"
	"repro/internal/randx"
	"repro/internal/urlx"
)

// Table 3 link-share weights (image-sharing sites), including the
// snowballed long tail.
var imageSiteWeights = []struct {
	domain string
	weight float64
}{
	{"imgur.com", 3297}, {"gyazo.com", 1006}, {"imageshack.com", 679},
	{"prnt.sc", 383}, {"photobucket.com", 311}, {"imagetwist.com", 105},
	{"imagezilla.net", 97}, {"minus.com", 51}, {"postimage.org", 47},
	{"imagebam.com", 44},
	// "Others": 700 across the snowballed hosts.
	{"otherimg00.example", 70}, {"otherimg01.example", 66},
	{"otherimg02.example", 64}, {"otherimg03.example", 62},
	{"otherimg04.example", 60}, {"otherimg05.example", 58},
	{"otherimg06.example", 56}, {"otherimg07.example", 56},
	{"otherimg08.example", 54}, {"otherimg09.example", 52},
	{"otherimg10.example", 52}, {"otherimg11.example", 50},
}

// Table 4 link-share weights (cloud-storage services).
var cloudSiteWeights = []struct {
	domain string
	weight float64
}{
	{"mediafire.com", 892}, {"mega.nz", 284}, {"dropbox.com", 130},
	{"oron.com", 95}, {"depositfiles.com", 46}, {"filefactory.com", 37},
	{"drive.google.com", 31}, {"ge.tt", 28}, {"zippyshare.com", 25},
	{"filedropper.com", 24},
	// "Others": 94 across the snowballed hosts.
	{"othercloud00.example", 14}, {"othercloud01.example", 13},
	{"othercloud02.example", 13}, {"othercloud03.example", 12},
	{"othercloud04.example", 12}, {"othercloud05.example", 11},
	{"othercloud06.example", 10}, {"othercloud07.example", 9},
}

func pickWeighted(rng *randx.Rand, table []struct {
	domain string
	weight float64
}) string {
	weights := make([]float64, len(table))
	for i, e := range table {
		weights[i] = e.weight
	}
	return table[rng.WeightedPick(weights)].domain
}

// nextToken returns a unique URL path token.
func (w *World) nextToken() string {
	w.urlCounter++
	return fmt.Sprintf("x%06d", w.urlCounter)
}

// genTOPContent builds the body and ground truth of one Thread
// Offering Packs: it composes a pack from a model's origin images
// (applying the transforms actors use), uploads previews to
// image-sharing sites and the pack zips to cloud storage (with the
// documented rates of link rot, takedowns and walls), and returns the
// post body containing the links.
func (w *World) genTOPContent(st *forumState, created time.Time) (string, *TOPTruth) {
	rng := st.rng
	top := &TOPTruth{Free: rng.Bool(0.187)}

	// Pick the model: flagged models are drained into free TOPs so
	// the hashlisted material actually circulates (and is caught).
	if top.Free && len(w.flaggedQueue) > 0 && rng.Bool(0.7) {
		top.Model = w.flaggedQueue[0]
		w.flaggedQueue = w.flaggedQueue[1:]
	} else if len(w.Models) > 0 {
		top.Model = rng.Intn(len(w.Models))
	}
	var model *Model
	if len(w.Models) > 0 {
		model = w.Models[top.Model]
	}

	// Preview links: free TOPs carry galleries (averages tuned to
	// Table 3's 7 314 links over the 774 linked TOPs); locked TOPs
	// post nothing openly.
	if top.Free {
		nPrev := 1 + rng.Poisson(8.4)
		for i := 0; i < nPrev; i++ {
			top.PreviewURLs = append(top.PreviewURLs, w.uploadPreview(st, model, created))
		}
		w.NumPreviewLinks += nPrev
	}

	// Pack links (free TOPs only).
	if top.Free && model != nil {
		nPack := 1 + rng.Poisson(1.2)
		for i := 0; i < nPack; i++ {
			url, flagged := w.uploadPack(st, model)
			top.PackURLs = append(top.PackURLs, url)
			if flagged {
				top.Flagged = true
			}
		}
		w.NumPackLinks += nPack
		if top.Flagged {
			w.NumFlaggedTOPs++
		}
	}

	name := "girls"
	if model != nil {
		name = model.Name
	}
	var body string
	if top.Free {
		body = fmt.Sprintf(randx.Pick(rng, topBodies),
			name, strings.Join(top.PreviewURLs, " "), strings.Join(top.PackURLs, " "))
	} else {
		body = fmt.Sprintf(randx.Pick(rng, topLockedBodies),
			name, strings.Join(top.PreviewURLs, " "))
	}
	return body, top
}

// uploadPreview uploads one preview-link target and returns its URL.
// The mix reproduces §4.2/§4.4: ~21% of links rot, ~20% are ToS
// takedowns (banner images), ~10% point at directory screenshots, the
// rest at genuine model previews (often modified to dodge reverse
// search).
func (w *World) uploadPreview(st *forumState, model *Model, created time.Time) string {
	rng := st.rng
	domain := pickWeighted(rng, imageSiteWeights)
	path := w.nextToken()
	url := fmt.Sprintf("https://%s/%s", domain, path)
	site, ok := w.Web.Site(domain)
	if !ok {
		return url
	}
	// Every branch draws its randomness on the walk, in the original
	// order; the rendering and upload run as a deferred job. Paths are
	// unique (nextToken) and hosting sites are mutex-protected maps, so
	// concurrent Put+SetStatus pairs commute — no ordered apply needed.
	// model may be captured directly: the forum phase never mutates
	// models.
	r := rng.Float64()
	switch {
	case r < 0.21:
		// Rotted: never registered → 404.
	case r < 0.41:
		w.do(func() {
			site.PutImage(path, imagex.New(8, 8, 0)) // placeholder, then takedown
			site.SetStatus(path, hosting.StatusTakedown)
		}, nil)
	case r < 0.51 && model != nil:
		gseed := rng.Uint64()
		w.do(func() {
			site.PutImage(path, imagex.GenThumbnailGrid(gseed, model.Seed, 160, 110))
		}, nil)
	case model != nil:
		// A genuine preview: one of the model's "hot" (most reposted)
		// images, possibly modified.
		idx := w.hotImage(rng, model)
		wm := ""
		var shade, recompress bool
		switch {
		case rng.Bool(0.30):
			wm = strings.ToUpper(st.spec.Name[:2]) + ".NET"
		case rng.Bool(0.20):
			shade = true
		case rng.Bool(0.25):
			recompress = true
		}
		w.do(func() {
			// img is the shared memoised raster: each modification
			// returns a transformed copy.
			img := w.ModelImage(model, idx)
			switch {
			case wm != "":
				img = img.Watermark(wm)
			case shade:
				img = img.Shade(0.25)
			case recompress:
				img = img.Recompress(24)
			}
			site.PutImage(path, img)
		}, nil)
	default:
		lseed := rng.Uint64()
		w.do(func() {
			site.PutImage(path, imagex.GenLandscape(lseed, w.Config.ImageSize, false))
		}, nil)
	}
	return url
}

// hotImage picks a model image biased towards high repost counts.
func (w *World) hotImage(rng *randx.Rand, model *Model) int {
	best, bestReposts := 0, -1
	for t := 0; t < 3; t++ {
		i := rng.Intn(len(model.Images))
		if model.Images[i].Reposts > bestReposts {
			best, bestReposts = i, model.Images[i].Reposts
		}
	}
	return best
}

// uploadPack composes a pack zip from the model's images and uploads
// it to a cloud-storage service. It reports whether the pack contains
// a hashlisted image. Packs embedding flagged material are forced
// live so the pipeline's PhotoDNA gate is exercised.
func (w *World) uploadPack(st *forumState, model *Model) (string, bool) {
	rng := st.rng
	flagged := model.Flagged >= 0
	domain := pickWeighted(rng, cloudSiteWeights)
	if flagged {
		domain = "mediafire.com" // live, no wall, not defunct
	}
	path := "file/" + w.nextToken()
	url := fmt.Sprintf("https://%s/%s", domain, path)
	site, ok := w.Web.Site(domain)
	if !ok {
		return url, false
	}

	// Compose the pack: ~80% of the model's shoot, with the transform
	// mix actors apply (mirroring produces the zero-match images). The
	// walk draws every inclusion and transform decision in the original
	// order; rendering, zipping and the upload run as a deferred job
	// (model is immutable during the forum phase, the path is unique).
	members := make([]packMember, 0, len(model.Images))
	for i := range model.Images {
		if rng.Bool(0.2) && i != model.Flagged {
			continue
		}
		pm := packMember{index: i}
		r := rng.Float64()
		switch {
		case i == model.Flagged:
			// Flagged material circulates unmodified or recompressed —
			// PhotoDNA must still match it.
			if rng.Bool(0.5) {
				pm.transform = packRecompress32
			}
		case r < 0.20:
			pm.transform = packRecompress24
		case r < 0.25:
			pm.transform = packWatermark
		case r < 0.30:
			pm.transform = packMirror
		}
		members = append(members, pm)
	}
	// The status draw ran after the pack upload in the sequential code,
	// but the upload consumes no randomness, so drawing it here is
	// identical.
	status := hosting.StatusLive
	if !flagged {
		r := rng.Float64()
		switch {
		case r < 0.17:
			status = hosting.StatusDeleted
		case r < 0.27:
			status = hosting.StatusTakedown
		}
	}
	// A deleted or taken-down pack, or one on a login-walled or
	// defunct site, is never served: the site answers from its status
	// or its config and never reads the archive. It is stored with its
	// status alone, so its members are neither deflated nor zipped.
	if cfg := site.Config(); status != hosting.StatusLive || cfg.RequiresLogin || cfg.Defunct {
		site.Put(path, hosting.Object{ContentType: hosting.ContentTypeZip, Status: status})
		return url, flagged
	}
	w.do(func() {
		entries := make([]imagex.PackEntry, len(members))
		for i, pm := range members {
			entries[i] = w.packEntry(packKey{w.modelRasterKey(model, pm.index), pm.transform})
		}
		// Zip-writing into a bytes.Buffer cannot fail; the walk has
		// already committed to the URL.
		data, _ := imagex.WritePackZip(entries)
		site.Put(path, hosting.Object{Data: data, ContentType: hosting.ContentTypeZip})
	}, nil)
	return url, flagged
}

// packMember is one walk-decided pack entry: which model image and
// which actor transform the deferred render applies to it.
type packMember struct {
	index     int
	transform packTransform
}

// packTransform enumerates the uploadPack transform mix.
type packTransform int

const (
	packKeep packTransform = iota
	packRecompress32
	packRecompress24
	packWatermark
	packMirror
)

// apply returns the member image: img itself for packKeep, else a
// transformed copy (img may be a shared memoised raster).
func (t packTransform) apply(img *imagex.Image) *imagex.Image {
	switch t {
	case packRecompress32:
		return img.Recompress(32)
	case packRecompress24:
		return img.Recompress(24)
	case packWatermark:
		return img.Watermark("PACK")
	case packMirror:
		return img.Mirror()
	}
	return img
}

// kindOfSite reports the whitelist kind the hosting world would
// advertise for a domain (used to wire snowball sampling in tests and
// the pipeline).
func (w *World) kindOfSite(domain string) (urlx.Kind, bool) {
	return w.Web.VisitKind(domain)
}
