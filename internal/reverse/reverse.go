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
	"sort"
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
type Index struct {
	mu      sync.RWMutex
	radius  int
	hashes  []imagex.Hash128
	records []Record
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
	ix.hashes = append(ix.hashes, h)
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
	return len(ix.hashes)
}

// SearchHash returns every record within the radius of h, sorted by
// ascending distance, then URL, then record index. It scans every
// record: see DESIGN.md for why a chunk index loses on the study's
// hash distribution.
func (ix *Index) SearchHash(h imagex.Hash128) []Match {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var out []Match
	for i, eh := range ix.hashes {
		if d := h.Distance(eh); d <= ix.radius {
			out = append(out, Match{
				Record:   ix.records[i],
				Score:    1 - float64(d)/128,
				Distance: d,
			})
		}
	}
	// out is in record order, so the stable sort makes the record index
	// the last key: records tied on distance and URL keep the order they
	// were indexed in.
	slices.SortStableFunc(out, func(a, b Match) int {
		if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
			return c
		}
		return strings.Compare(a.URL, b.URL)
	})
	return out
}

// Domains returns the distinct domains across a set of matches.
func Domains(matches []Match) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, m := range matches {
		if _, ok := seen[m.Domain]; !ok {
			seen[m.Domain] = struct{}{}
			out = append(out, m.Domain)
		}
	}
	sort.Strings(out)
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
