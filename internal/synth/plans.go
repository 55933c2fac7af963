package synth

import (
	"time"

	"repro/internal/imagex"
	"repro/internal/photodna"
	"repro/internal/reverse"
)

// Plans are the value-captured halves of deferred generation jobs
// (exec.go): the walk fills one in from rng draws, render computes the
// image-derived parts on a worker, and applyTo performs the
// order-sensitive world mutations on the applier. Plans hold scalars
// and owned slices only — never *Model, which the walk keeps mutating
// while jobs are in flight.

// indexPlan indexes one model image into the reverse-search corpus and
// the Wayback archive: the origin record plus its reposts.
type indexPlan struct {
	// image is the raster's identity (hashing draws no randomness).
	image rasterKey

	origin        reverse.Record
	originCapture time.Time
	reposts       []repostPlan

	// hash is filled by render.
	hash imagex.Hash128
}

// repostPlan is one repost record; archived marks a Wayback capture.
type repostPlan struct {
	rec      reverse.Record
	capture  time.Time
	archived bool
}

func (p *indexPlan) render(w *World) {
	p.hash = imagex.Hash128Of(w.raster(p.image))
}

func (p *indexPlan) applyTo(w *World) {
	w.Reverse.Add(p.hash, p.origin)
	w.Wayback.Add(p.origin.URL, p.originCapture)
	for _, rp := range p.reposts {
		w.Reverse.Add(p.hash, rp.rec)
		if rp.archived {
			w.Wayback.Add(rp.rec.URL, rp.capture)
		}
	}
}

// hashPlan inserts one flagged image into the PhotoDNA hashlist.
// AddHash appends to the hashlist's entry slice, whose order DeepEqual
// sees, so the insert itself must run on the applier.
type hashPlan struct {
	image rasterKey
	entry photodna.Entry

	hash photodna.RobustHash
}

func (p *hashPlan) render(w *World) {
	p.hash = photodna.HashImage(w.raster(p.image))
}

func (p *hashPlan) applyTo(w *World) {
	w.HashList.AddHash(p.hash, p.entry)
}
