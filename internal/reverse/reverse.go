// Package reverse is the reproduction's TinEye: a reverse image search
// over a perceptual-hash index of the (synthetic) web. Each indexed
// record carries the hosting URL, the backlink it was crawled from and
// the crawl date, which is what the paper's provenance analysis (§4.5)
// consumes: "a report is created indicating for each match ... i) the
// domain and URL where the image is (or was) hosted; ii) the backlink
// from where it was crawled and; iii) the crawling date".
//
// Matching uses the composite perceptual hash (imagex.Hash128) within
// a Hamming radius, so it
// "deal[s] with a broad range of image transformations" (recompression
// and light edits match) while mirroring and heavy shading evade — the
// evasions the paper observes actors using.
package reverse

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/imagex"
)

// DefaultRadius is the match radius in summed Hamming bits over the
// composite hash. Recompressed copies land within a few bits;
// unrelated images sit tens of bits away.
const DefaultRadius = 10

// Record describes one indexed occurrence of an image on the web.
type Record struct {
	URL       string    `json:"url"`
	Domain    string    `json:"domain"`
	Backlink  string    `json:"backlink"`
	CrawlDate time.Time `json:"crawl_date"`
}

// Match is one search hit.
type Match struct {
	Record
	// Score is a similarity in (0, 1]: 1 means identical hash.
	Score float64 `json:"score"`
	// Distance is the raw Hamming distance.
	Distance int `json:"distance"`
}

// Index is the searchable image index. Safe for concurrent use.
//
// The web repeats images: many records share one hash (6.7 per
// distinct hash at scale 1.0). The index keeps each distinct hash
// once, with the indices of the records filed under it, so a search
// computes one distance per distinct hash.
type Index struct {
	mu      sync.RWMutex
	radius  int
	records []Record
	// hashes holds each distinct hash once, in first-seen order;
	// groups[g] lists, ascending, the records filed under hashes[g],
	// and slot maps a hash to its g.
	hashes []imagex.Hash128
	groups [][]int32
	slot   map[imagex.Hash128]int32
}

// NewIndex returns an empty index with the given radius
// (DefaultRadius if radius <= 0).
func NewIndex(radius int) *Index {
	if radius <= 0 {
		radius = DefaultRadius
	}
	return &Index{radius: radius}
}

// Add indexes a record under a precomputed hash.
func (ix *Index) Add(h imagex.Hash128, rec Record) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	g, ok := ix.slot[h]
	if !ok {
		if ix.slot == nil {
			ix.slot = make(map[imagex.Hash128]int32)
		}
		g = int32(len(ix.hashes))
		ix.slot[h] = g
		ix.hashes = append(ix.hashes, h)
		ix.groups = append(ix.groups, nil)
	}
	ix.groups[g] = append(ix.groups[g], int32(len(ix.records)))
	ix.records = append(ix.records, rec)
}

// AddImage indexes a record under the image's composite hash.
func (ix *Index) AddImage(im *imagex.Image, rec Record) {
	ix.Add(imagex.Hash128Of(im), rec)
}

// Len returns the number of indexed records.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.records)
}

// SearchHash returns every record within the radius of h, sorted by
// ascending distance, then URL, then record index. It scans every
// distinct hash and expands the groups inside the radius: see
// DESIGN.md for why a chunk index loses on the study's hash
// distribution.
func (ix *Index) SearchHash(h imagex.Hash128) []Match {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	type hit struct {
		rec  int32
		dist int
	}
	var hits []hit
	for g, eh := range ix.hashes {
		if d := h.Distance(eh); d <= ix.radius {
			for _, i := range ix.groups[g] {
				hits = append(hits, hit{i, d})
			}
		}
	}
	if len(hits) == 0 {
		return nil
	}
	slices.SortFunc(hits, func(a, b hit) int {
		return cmp.Or(
			cmp.Compare(a.dist, b.dist),
			strings.Compare(ix.records[a.rec].URL, ix.records[b.rec].URL),
			cmp.Compare(a.rec, b.rec))
	})
	out := make([]Match, len(hits))
	for k, ht := range hits {
		out[k] = Match{
			Record:   ix.records[ht.rec],
			Score:    1 - float64(ht.dist)/128,
			Distance: ht.dist,
		}
	}
	return out
}

// SeenBefore reports whether any match was crawled strictly before the
// cutoff — the paper's "Seen Before" column: the image was online
// before it was posted in the forum.
func SeenBefore(matches []Match, cutoff time.Time) bool {
	for _, m := range matches {
		if m.CrawlDate.Before(cutoff) {
			return true
		}
	}
	return false
}
